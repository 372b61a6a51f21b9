package reopt

import (
	"slices"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/query"
)

// Bound is a lower bound on a subset's cardinality, observed by a pipelined
// check: the hash join covering Mask had emitted Rows rows when it was
// stopped.
type Bound struct {
	Mask query.BitSet
	Rows float64
}

// Bounds overlays the lower bounds of pipelined checks on the estimator a
// re-plan searches with, whatever the refiner: a bounded subset is
// estimated at no less than its bound, and a subset containing bounded ones
// is scaled by the largest contained bound's ratio to the base estimate of
// it, as Overlay scales by exact cardinalities. Estimates never go below 1.
// It forwards the base estimator's sessions.
type Bounds struct {
	base   cardest.Estimator
	bounds []scaledBound // one per subset, in observation order
}

// scaledBound is a bound with its scale factor for containing subsets.
type scaledBound struct {
	Bound
	ratio float64 // Rows over the base estimate of Mask, at least 1
}

// NewBounds returns base overlaid with q's lower bounds, or base itself
// when there are none. A subset bounded twice keeps its larger bound.
func NewBounds(base cardest.Estimator, q *query.Query, bounds []Bound) cardest.Estimator {
	if len(bounds) == 0 {
		return base
	}
	b := &Bounds{base: base}
	for _, x := range bounds {
		i := slices.IndexFunc(b.bounds, func(y scaledBound) bool { return y.Mask == x.Mask })
		if i < 0 {
			b.bounds = append(b.bounds, scaledBound{Bound: x})
		} else {
			b.bounds[i].Rows = max(b.bounds[i].Rows, x.Rows)
		}
	}
	for i := range b.bounds {
		x := &b.bounds[i]
		x.ratio = max(1, x.Rows/max(base.EstimateSubset(q, x.Mask), 1))
	}
	return b
}

// Name implements cardest.Estimator: the bounds refine the base estimator's
// estimates under its own name.
func (b *Bounds) Name() string { return b.base.Name() }

// EstimateSubset implements cardest.Estimator.
func (b *Bounds) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	return b.adjust(mask, b.base.EstimateSubset(q, mask))
}

// BeginQuery implements cardest.SessionEstimator: the overlay over the base
// estimator's session returns what EstimateSubset does.
func (b *Bounds) BeginQuery(q *query.Query) cardest.Estimator {
	return &Bounds{base: cardest.BeginQuery(b.base, q), bounds: b.bounds}
}

// adjust applies the bounds to the base estimate est of mask.
func (b *Bounds) adjust(mask query.BitSet, est float64) float64 {
	best, ratio := query.BitSet(0), 1.0
	for _, x := range b.bounds {
		if x.Mask == mask {
			return max(est, x.Rows, 1)
		}
		if x.Mask&mask == x.Mask && outranks(x.Mask, best) {
			best, ratio = x.Mask, x.ratio
		}
	}
	return max(est*ratio, 1)
}

var _ cardest.SessionEstimator = (*Bounds)(nil)
