package reopt

import (
	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/query"
)

// Overlay implements the paper's §8 observation that progressive
// estimation "can be applied to other estimators": it wraps ANY base
// estimator with the exact cardinalities of the executed sub-plans. Subsets
// that exactly match an executed sub-plan return the observed cardinality;
// subsets containing one are estimated by the base estimator and then
// scaled by the ratio between the executed sub-plan's true and originally
// estimated cardinality (error propagation correction); everything else
// falls through unchanged.
//
// Unlike LPCE-R this uses no learned refinement — it is the natural
// baseline for progressive estimation with data-driven or histogram
// estimators, and the ablation benches compare the two.
type Overlay struct {
	Base cardest.Estimator
	// exact holds the observed cardinality per executed subset. Repeated
	// executions of the same subset are deduped at construction, last
	// observation winning (later re-optimizations see fresher counts).
	exact map[query.BitSet]float64
	// ratio of true/estimated cardinality per executed subset, used to
	// rescale containing subsets.
	ratios map[query.BitSet]float64
}

// Name implements cardest.Estimator.
func (o *Overlay) Name() string { return o.Base.Name() + "+overlay" }

// EstimateSubset implements cardest.Estimator.
func (o *Overlay) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	// exact cardinalities for executed subsets
	if card, ok := o.exact[mask]; ok {
		return card
	}
	est := o.Base.EstimateSubset(q, mask)
	// error-propagation correction: scale by the largest contained
	// executed sub-plan's observed error ratio (errors propagate
	// multiplicatively up the join tree, the paper's §1 observation).
	// Equal-size candidates tie-break on the smaller mask value so the
	// choice never depends on map iteration order — replans must be
	// reproducible run to run.
	best := 0
	bestMask := query.BitSet(0)
	ratio := 1.0
	for m, r := range o.ratios { //detlint:ignore — the smaller-mask tie-break makes the pick order-independent
		if m&mask != m {
			continue
		}
		c := m.Count()
		if c > best || (c == best && best > 0 && m < bestMask) {
			best, bestMask, ratio = c, m, r
		}
	}
	v := est * ratio
	if v < 1 {
		v = 1
	}
	return v
}

var _ cardest.Estimator = (*Overlay)(nil)

// OverlayRefiner re-plans with the exact cardinalities of the executed
// sub-plans overlaid on Base: the refiner for estimators that have no
// learned refinement model. Base should be the query's initial estimator.
type OverlayRefiner struct {
	Base cardest.Estimator
}

// Estimator returns the overlay for one re-planning pass. Each executed
// subset's original estimate comes from Base, giving the error ratio that
// rescales the subsets containing it.
func (r OverlayRefiner) Estimator(q *query.Query, execs []Executed) cardest.Estimator {
	o := &Overlay{
		Base:   r.Base,
		exact:  make(map[query.BitSet]float64, len(execs)),
		ratios: make(map[query.BitSet]float64),
	}
	for _, e := range execs {
		mask := e.Mask()
		o.exact[mask] = e.Card
		if est := r.Base.EstimateSubset(q, mask); est >= 1 && e.Card >= 1 {
			o.ratios[mask] = e.Card / est
		} else {
			// a stale ratio from an earlier execution of this subset must not
			// survive the fresher observation
			delete(o.ratios, mask)
		}
	}
	return o
}
