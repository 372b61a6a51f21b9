package reopt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
)

// The reference below is the two overlay types that reopt.Overlay replaced,
// as they were, renamed with a ref prefix: the exact-count overlay with its
// refiner, and the lower-bound overlay over the package's Bound.
// TestOverlayMatchesTwoTypeReference holds the merged type to them.

// refOverlay implements the paper's §8 observation that progressive
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
type refOverlay struct {
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
func (o *refOverlay) Name() string { return o.Base.Name() + "+overlay" }

// EstimateSubset implements cardest.Estimator.
func (o *refOverlay) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	// exact cardinalities for executed subsets
	if card, ok := o.exact[mask]; ok {
		return card
	}
	est := o.Base.EstimateSubset(q, mask)
	// error-propagation correction: scale by the largest contained
	// executed sub-plan's observed error ratio (errors propagate
	// multiplicatively up the join tree, the paper's §1 observation).
	best, ratio := query.BitSet(0), 1.0
	for m, r := range o.ratios { //detlint:ignore — refOutranks makes the pick order-independent
		if m&mask == m && refOutranks(m, best) {
			best, ratio = m, r
		}
	}
	return max(est*ratio, 1)
}

// refOutranks reports whether contained subset m is a better pick than best
// (0 for none yet) to rescale a containing subset with: the larger subset
// wins, and among equal sizes the smaller mask, so the pick never depends
// on iteration order — replans must be reproducible run to run.
func refOutranks(m, best query.BitSet) bool {
	c, cb := m.Count(), best.Count()
	return c > cb || (c == cb && m < best)
}

var _ cardest.Estimator = (*refOverlay)(nil)

// refOverlayRefiner re-plans with the exact cardinalities of the executed
// sub-plans overlaid on Base: the refiner for estimators that have no
// learned refinement model. Base should be the query's initial estimator.
type refOverlayRefiner struct {
	Base cardest.Estimator
}

// Estimator returns the overlay for one re-planning pass. Each executed
// subset's original estimate comes from Base, giving the error ratio that
// rescales the subsets containing it.
func (r refOverlayRefiner) Estimator(q *query.Query, execs []Executed) cardest.Estimator {
	o := &refOverlay{
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

// refBounds overlays the lower bounds of pipelined checks on the estimator a
// re-plan searches with, whatever the refiner: a bounded subset is
// estimated at no less than its bound, and a subset containing bounded ones
// is scaled by the largest contained bound's ratio to the base estimate of
// it, as refOverlay scales by exact cardinalities. Estimates never go below 1.
// It forwards the base estimator's sessions.
type refBounds struct {
	base   cardest.Estimator
	bounds []refScaledBound // one per subset, in observation order
}

// refScaledBound is a bound with its scale factor for containing subsets.
type refScaledBound struct {
	Bound
	ratio float64 // Rows over the base estimate of Mask, at least 1
}

// newRefBounds returns base overlaid with q's lower bounds, or base itself
// when there are none. A subset bounded twice keeps its larger bound.
func newRefBounds(base cardest.Estimator, q *query.Query, bounds []Bound) cardest.Estimator {
	if len(bounds) == 0 {
		return base
	}
	b := &refBounds{base: base}
	for _, x := range bounds {
		i := slices.IndexFunc(b.bounds, func(y refScaledBound) bool { return y.Mask == x.Mask })
		if i < 0 {
			b.bounds = append(b.bounds, refScaledBound{Bound: x})
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
func (b *refBounds) Name() string { return b.base.Name() }

// EstimateSubset implements cardest.Estimator.
func (b *refBounds) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	return b.adjust(mask, b.base.EstimateSubset(q, mask))
}

// BeginQuery implements cardest.SessionEstimator: the overlay over the base
// estimator's session returns what EstimateSubset does.
func (b *refBounds) BeginQuery(q *query.Query) cardest.Estimator {
	return &refBounds{base: cardest.BeginQuery(b.base, q), bounds: b.bounds}
}

// adjust applies the bounds to the base estimate est of mask.
func (b *refBounds) adjust(mask query.BitSet, est float64) float64 {
	best, ratio := query.BitSet(0), 1.0
	for _, x := range b.bounds {
		if x.Mask == mask {
			return max(est, x.Rows, 1)
		}
		if x.Mask&mask == x.Mask && refOutranks(x.Mask, best) {
			best, ratio = x.Mask, x.ratio
		}
	}
	return max(est*ratio, 1)
}

var _ cardest.SessionEstimator = (*refBounds)(nil)

// TestOverlayMatchesTwoTypeReference holds Overlay to the two types it
// replaced, bit for bit, on every subset no executed sub-plan covers — the
// only ones a re-plan's search asks for. It checks the refiner layer, the
// bounds layer, and the bounds over the refiner as engine.replan composes
// them, each called directly and through a session, over generated
// observations with repeated masks, counts of 0, base estimates below 1 and
// equal-size ties, on bases with and without sessions; TestBoundsOverlay's
// cases come first.
func TestOverlayMatchesTwoTypeReference(t *testing.T) {
	q := chainQuery(5)
	full := q.AllTablesMask()
	ab, bc := query.NewBitSet().Set(0).Set(1), query.NewBitSet().Set(1).Set(2)
	abc := ab | bc
	type trial struct {
		ests   map[query.BitSet]float64 // base estimates; 20 elsewhere
		truth  map[query.BitSet]float64 // each subset's count; 0 elsewhere
		execs  []Executed               // refiner layer: any counts
		bounds []Bound                  // bounds layer: any rows
		events []Bound                  // composed: Rows < 0 executes Mask
	}
	trials := []trial{
		{ests: map[query.BitSet]float64{ab: 100, bc: 50, abc: 0.001}, bounds: []Bound{{ab, 2000}, {bc, 10}, {ab, 5000}}},
		{ests: map[query.BitSet]float64{ab: 100, bc: 50, abc: 3}, bounds: []Bound{{bc, 10}, {ab, 5000}}},
	}
	rng := rand.New(rand.NewSource(1))
	pick := func(pool []float64) float64 { return pool[rng.Intn(len(pool))] }
	estPool := []float64{0, 0.001, 0.5, 1, 3, 20, 100, 100, 5000}
	cardPool := []float64{0, 0, 1, 7, 100, 300, 2000, 5000}
	for range 400 {
		tr := trial{ests: map[query.BitSet]float64{}, truth: map[query.BitSet]float64{}}
		masks := make([]query.BitSet, 2+rng.Intn(4)) // few, so they repeat
		for i := range masks {
			masks[i] = query.BitSet(1 + rng.Intn(int(full)))
			tr.truth[masks[i]] = pick(cardPool)
		}
		for m := query.BitSet(1); m <= full; m++ {
			tr.ests[m] = pick(estPool)
		}
		for range rng.Intn(6) {
			tr.execs = append(tr.execs, executed(masks[rng.Intn(len(masks))], pick(cardPool)))
		}
		for range rng.Intn(6) {
			tr.bounds = append(tr.bounds, Bound{masks[rng.Intn(len(masks))], pick(cardPool)})
		}
		// A bound is a partial count of its subset, so it never exceeds the
		// count, and no check fires on a subset once it is materialized.
		done := map[query.BitSet]bool{}
		for range rng.Intn(8) {
			m := masks[rng.Intn(len(masks))]
			if done[m] || rng.Intn(2) == 0 {
				done[m] = true
				tr.events = append(tr.events, Bound{m, -1})
			} else {
				tr.events = append(tr.events, Bound{m, min(pick(cardPool), tr.truth[m])})
			}
		}
		trials = append(trials, tr)
	}

	for i, tr := range trials {
		fn := func(m query.BitSet) float64 {
			if v, ok := tr.ests[m]; ok {
				return v
			}
			return 20
		}
		bases := []cardest.Estimator{&sessionBase{fn: fn}, cardest.FuncEstimator{Label: "base", Fn: func(_ *query.Query, m query.BitSet) float64 { return fn(m) }}}
		base := bases[i%2]

		c := NewController(DefaultPolicy())
		var execs []Executed
		var bounds []Bound
		for _, ev := range tr.events {
			node := &plan.Node{Op: plan.HashJoin, Tables: ev.Mask}
			if ev.Rows < 0 {
				_ = c.OnMaterialized(node, rows(int(tr.truth[ev.Mask])))
				execs = append(execs, Executed{Node: node, Card: tr.truth[ev.Mask]})
			} else {
				_ = c.OnPipelined(node, int(ev.Rows))
				bounds = append(bounds, ev)
			}
		}
		layers := []struct {
			name      string
			got, want cardest.Estimator
			execs     []Executed
		}{
			{"refiner", OverlayRefiner{Base: base}.Estimator(q, tr.execs), refOverlayRefiner{Base: base}.Estimator(q, tr.execs), tr.execs},
			{"bounds", NewBounds(base, q, tr.bounds), newRefBounds(base, q, tr.bounds), nil},
			{"composed",
				NewBounds(OverlayRefiner{Base: base}.Estimator(q, c.ExecutedSubs()), q, c.Bounds()),
				newRefBounds(refOverlayRefiner{Base: base}.Estimator(q, execs), q, bounds), execs},
		}
		for _, l := range layers {
			if l.got.Name() != l.want.Name() {
				t.Fatalf("trial %d %s: name %q, reference %q", i, l.name, l.got.Name(), l.want.Name())
			}
			sess, refSess := cardest.BeginQuery(l.got, q), cardest.BeginQuery(l.want, q)
			for m := query.BitSet(1); m <= full; m++ {
				if slices.ContainsFunc(l.execs, func(e Executed) bool { return e.Mask() == m }) {
					continue
				}
				want := math.Float64bits(l.want.EstimateSubset(q, m))
				for _, got := range []float64{l.got.EstimateSubset(q, m), sess.EstimateSubset(q, m), refSess.EstimateSubset(q, m)} {
					if math.Float64bits(got) != want {
						t.Fatalf("trial %d %s, subset %b: %v (direct, session, reference session), reference %v; %+v",
							i, l.name, uint32(m), got, math.Float64frombits(want), tr)
					}
				}
			}
		}
	}
}

// chainQuery returns an n-table chain query.
func chainQuery(n int) *query.Query {
	s := catalog.NewSchema()
	tables := []*catalog.Table{s.AddTable("t0", catalog.PK("id"))}
	var joins []query.Join
	for i := 1; i < n; i++ {
		prev := tables[i-1]
		tb := s.AddTable(fmt.Sprintf("t%d", i), catalog.PK("id"), catalog.FK("prev_id", prev.Column("id")))
		tables = append(tables, tb)
		joins = append(joins, query.Join{Left: tb.Column("prev_id"), Right: prev.Column("id")})
	}
	return query.New(tables, joins, nil)
}
