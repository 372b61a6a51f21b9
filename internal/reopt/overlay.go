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

// Overlay corrects a base estimator with what execution observed, the
// paper's §8 observation that progressive estimation "can be applied to
// other estimators". Each observation covers one subset: a subset
// containing observed ones is estimated by the base and scaled by the
// largest contained one's ratio of observed to estimated cardinality
// (errors propagate multiplicatively up the join tree, the paper's §1
// observation), and an observed subset itself is estimated at no less than
// its lower bound. Everything else falls through unchanged, and no estimate
// goes below 1.
//
// An executed sub-plan's exact count is not among the corrections: the
// re-plan's search seeds it and never asks for that subset (engine.Refiner's
// contract), so an executed observation carries a ratio and no bound.
// Unlike LPCE-R the overlay uses no learned refinement — it is the natural
// baseline for progressive estimation with data-driven or histogram
// estimators, and the ablation benches compare the two. It forwards the
// base estimator's sessions.
type Overlay struct {
	base cardest.Estimator
	name string
	obs  []observation // one per subset
}

// observation is what execution revealed about one subset.
type observation struct {
	mask  query.BitSet
	ratio float64 // scales the subsets containing mask
	bound float64 // a lower bound on mask itself; 0 for none
}

// OverlayRefiner re-plans with the executed sub-plans' error ratios
// overlaid on Base: the refiner for estimators that have no learned
// refinement model. Base should be the query's initial estimator.
type OverlayRefiner struct {
	Base cardest.Estimator
}

// Estimator returns the overlay for one re-planning pass. Each executed
// subset's ratio is its count over Base's estimate of it, when both are at
// least 1; a subset executed twice keeps the later ratio (later
// re-optimizations see fresher counts), and a later execution without a
// ratio drops the earlier one.
func (r OverlayRefiner) Estimator(q *query.Query, execs []Executed) cardest.Estimator {
	o := &Overlay{base: r.Base, name: r.Base.Name() + "+overlay"}
	for _, e := range execs {
		mask := e.Mask()
		o.obs = slices.DeleteFunc(o.obs, func(x observation) bool { return x.mask == mask })
		if est := r.Base.EstimateSubset(q, mask); est >= 1 && e.Card >= 1 {
			o.obs = append(o.obs, observation{mask: mask, ratio: e.Card / est})
		}
	}
	return o
}

// NewBounds returns base overlaid with q's lower bounds (Controller.Bounds),
// or base itself when there are none. A bounded subset's ratio is its bound
// over base's estimate of it (floored at 1), and at least 1; a subset
// bounded twice keeps its larger bound. The overlay estimates under base's
// own name.
func NewBounds(base cardest.Estimator, q *query.Query, bounds []Bound) cardest.Estimator {
	if len(bounds) == 0 {
		return base
	}
	o := &Overlay{base: base, name: base.Name()}
	for _, b := range bounds {
		i := slices.IndexFunc(o.obs, func(x observation) bool { return x.mask == b.Mask })
		if i < 0 {
			o.obs = append(o.obs, observation{mask: b.Mask, bound: b.Rows})
		} else {
			o.obs[i].bound = max(o.obs[i].bound, b.Rows)
		}
	}
	for i := range o.obs {
		// A bound of at most 1 scales nothing, so base is not asked for its
		// subset. A bound that an executed sub-plan's count superseded reads
		// 0, so a refiner under the bounds is never asked for an executed
		// subset here either.
		if x := &o.obs[i]; x.bound > 1 {
			x.ratio = max(1, x.bound/max(base.EstimateSubset(q, x.mask), 1))
		} else {
			x.ratio = 1
		}
	}
	return o
}

// Name implements cardest.Estimator.
func (o *Overlay) Name() string { return o.name }

// EstimateSubset implements cardest.Estimator.
func (o *Overlay) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	est := o.base.EstimateSubset(q, mask)
	best, ratio := query.BitSet(0), 1.0
	for _, x := range o.obs {
		if x.mask == mask {
			return max(est, x.bound, 1)
		}
		if x.mask&mask == x.mask && outranks(x.mask, best) {
			best, ratio = x.mask, x.ratio
		}
	}
	return max(est*ratio, 1)
}

// BeginQuery implements cardest.SessionEstimator: the overlay over the base
// estimator's session returns what EstimateSubset does.
func (o *Overlay) BeginQuery(q *query.Query) cardest.Estimator {
	return &Overlay{base: cardest.BeginQuery(o.base, q), name: o.name, obs: o.obs}
}

// outranks reports whether contained subset m is a better pick than best
// (0 for none yet) to rescale a containing subset with: the larger subset
// wins, and among equal sizes the smaller mask, so the pick never depends
// on observation order — replans must be reproducible run to run.
func outranks(m, best query.BitSet) bool {
	c, cb := m.Count(), best.Count()
	return c > cb || (c == cb && m < best)
}

var _ cardest.SessionEstimator = (*Overlay)(nil)
