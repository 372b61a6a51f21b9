package optimizer

import (
	"fmt"
	"math"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// JoinShape restricts the plan-shape search space.
type JoinShape int

// Plan shapes.
const (
	// ShapeBushy searches the full space of binary join trees
	// (PostgreSQL's behaviour, and the default).
	ShapeBushy JoinShape = iota
	// ShapeLeftDeep restricts to left-deep trees (right child of every
	// join is a base relation), the classic System R space; the Figure 17
	// ablation shows re-optimization exploiting bushy plans left-deep
	// search cannot reach.
	ShapeLeftDeep
)

// Optimizer finds the minimum-cost physical plan for a query via dynamic
// programming over connected relation subsets.
type Optimizer struct {
	DB    *storage.Database
	Est   cardest.Estimator
	Cost  CostModel
	Shape JoinShape
	// CE, when non-nil, records every EstimateSubset result (query
	// fingerprint, relation mask, estimate) for CE evaluation: after
	// execution the recorded estimates are joined against observed true
	// cardinalities to grade the estimator sub-plan by sub-plan.
	CE *obs.CERecorder
}

// New returns an optimizer over db using est for cardinalities.
func New(db *storage.Database, est cardest.Estimator) *Optimizer {
	return &Optimizer{DB: db, Est: est, Cost: DefaultCost()}
}

// Stats reports plan-search effort for the experiment harness.
type Stats struct {
	EstimateCalls int // cardinality estimations performed (≤ 2ⁿ−1)
	PlannedMasks  int // connected subsets with a plan
}

type dpEntry struct {
	node *plan.Node
	cost float64
}

// Plan optimizes the query from scratch.
func (o *Optimizer) Plan(q *query.Query) (*plan.Node, Stats, error) {
	return o.PlanWithMaterialized(q, nil)
}

// PlanWithMaterialized optimizes the query treating the supplied
// materialized intermediates as additional leaf candidates with exact
// cardinalities — the re-optimization resume path (paper §6.2): the search
// space contains both plans that continue from the executed sub-plans and
// plans that restart from scratch, and the cheapest wins.
func (o *Optimizer) PlanWithMaterialized(q *query.Query, mats map[query.BitSet]*plan.Materialized) (*plan.Node, Stats, error) {
	n := len(q.Tables)
	if n == 0 {
		return nil, Stats{}, fmt.Errorf("optimizer: empty query")
	}
	full := q.AllTablesMask()
	var stats Stats

	// Per-run estimate cache: the paper stores sub-query estimates in a
	// memory pool so each subset is estimated once.
	cards := make(map[query.BitSet]float64)
	// One estimation session per search lets the estimator share work
	// between the subsets (LPCE memoizes sub-plan encodings by mask).
	session := cardest.BeginQuery(o.Est, q)
	est := func(mask query.BitSet) float64 {
		if v, ok := cards[mask]; ok {
			return v
		}
		stats.EstimateCalls++
		v := session.EstimateSubset(q, mask)
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 1 {
			v = 1
		}
		o.CE.RecordEstimate(q.Fingerprint(), mask, v)
		cards[mask] = v
		return v
	}
	// Materialized subsets have exact cardinalities; seed the cache so
	// refinement models and overlays agree with reality for executed parts.
	for mask, m := range mats {
		cards[mask] = float64(m.Card())
	}

	best := make(map[query.BitSet]*dpEntry)

	// Level 1: base-table access paths.
	for i := 0; i < n; i++ {
		mask := query.NewBitSet().Set(i)
		e := o.bestScan(q, i, est(mask))
		best[mask] = e
	}
	// Materialized leaves compete with whatever covers the same subset.
	for mask, m := range mats {
		cost := o.Cost.MatScanCost(float64(m.Card()))
		node := plan.NewMatLeaf(m)
		node.EstCost = cost
		if cur, ok := best[mask]; !ok || cost < cur.cost {
			best[mask] = &dpEntry{node: node, cost: cost}
		}
	}

	// Levels 2..n: enumerate connected subsets by increasing size.
	masks := make([][]query.BitSet, n+1)
	for mask := query.BitSet(1); mask <= full; mask++ {
		if mask&full != mask {
			continue
		}
		masks[mask.Count()] = append(masks[mask.Count()], mask)
	}
	for size := 2; size <= n; size++ {
		for _, mask := range masks[size] {
			if !q.Connected(mask) {
				continue
			}
			outCard := est(mask)
			var bestEntry *dpEntry
			if e, ok := best[mask]; ok {
				bestEntry = e // a materialized leaf already covers it
			}
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				rest := mask &^ sub
				if o.Shape == ShapeLeftDeep && rest.Count() != 1 {
					continue // right child must be a single relation
				}
				le, lok := best[sub]
				re, rok := best[rest]
				if !lok || !rok {
					continue
				}
				conds := q.JoinsBetween(sub, rest)
				if len(conds) == 0 {
					continue // no cross products
				}
				cardL, cardR := est(sub), est(rest)
				// Cost the operators first and build a node only for one that
				// beats the incumbent: building clones both subtrees, so DP
				// entries sharing a subtree never alias annotations.
				op, total := o.cheapestJoin(re.node, le.cost+re.cost, cardL, cardR, outCard)
				if bestEntry == nil || total < bestEntry.cost {
					node := plan.NewJoin(op, le.node.Clone(), re.node.Clone(), conds)
					node.EstCard = outCard
					node.EstCost = total
					bestEntry = &dpEntry{node: node, cost: total}
				}
			}
			if bestEntry != nil {
				best[mask] = bestEntry
				stats.PlannedMasks++
			}
		}
	}

	root, ok := best[full]
	if !ok {
		return nil, stats, fmt.Errorf("optimizer: query join graph is disconnected")
	}
	return root.node, stats, nil
}

// cheapestJoin costs the physical join operators for one (left, right)
// split on top of the children's cost and returns the cheapest total. Totals
// are compared, not operator costs, and only a strictly cheaper one wins, so
// on a tie — including one the addition rounds into — hash beats merge beats
// nested loop.
func (o *Optimizer) cheapestJoin(r *plan.Node, childCost, cardL, cardR, out float64) (plan.PhysOp, float64) {
	nl := o.Cost.RescanNLJoinCost(cardL, cardR, out)
	if r.IsLeaf() && r.Op != plan.MatScan {
		nl = o.Cost.IndexNLJoinCost(cardL, out)
	}
	op, best := plan.HashJoin, childCost+o.Cost.HashJoinCost(cardL, cardR, out)
	if total := childCost + o.Cost.MergeJoinCost(cardL, cardR, out); total < best {
		op, best = plan.MergeJoin, total
	}
	if total := childCost + nl; total < best {
		op, best = plan.NestLoopJoin, total
	}
	return op, best
}

// bestScan picks the cheaper of a sequential scan and an index scan for one
// base table.
func (o *Optimizer) bestScan(q *query.Query, idx int, estCard float64) *dpEntry {
	t := q.Tables[idx]
	preds := q.PredsOn(t)
	rows := float64(o.DB.Table(t).NumRows())

	seq := plan.NewLeaf(plan.SeqScan, t, idx, preds)
	seq.EstCard = estCard
	seqCost := o.Cost.SeqScanCost(rows)
	seq.EstCost = seqCost
	bestE := &dpEntry{node: seq, cost: seqCost}

	// Index scan: any predicate except != can drive an index. Each candidate
	// is costed with its own selectivity from the catalog statistics, so the
	// scan drives through the most selective predicate rather than whichever
	// happens to come first in the query.
	for pi := range preds {
		if preds[pi].Op == query.OpNE {
			continue
		}
		matches := indexMatches(preds[pi], estCard, rows, len(preds))
		cost := o.Cost.IndexScanCost(matches)
		if cost < bestE.cost {
			node := plan.NewLeaf(plan.IndexScan, t, idx, preds)
			node.IndexPred = &node.Preds[pi]
			node.EstCard = estCard
			node.EstCost = cost
			bestE = &dpEntry{node: node, cost: cost}
		}
	}
	return bestE
}

// indexMatches estimates how many rows an index fetch driven by predicate p
// returns when the combined selectivity of all k predicates yields estCard.
// The driving predicate alone matches at least estCard rows (the other
// predicates only filter further) and at most the whole table.
func indexMatches(p query.Predicate, estCard, rows float64, k int) float64 {
	if k <= 1 || estCard >= rows {
		return estCard
	}
	if sel := predSelectivity(p); sel >= 0 {
		m := rows * sel
		if m < estCard {
			m = estCard
		}
		if m > rows {
			m = rows
		}
		return m
	}
	// no statistics: geometric interpolation — one predicate accounts for
	// the k-th root of the combined selectivity
	sel := estCard / rows
	return rows * math.Pow(sel, 1/float64(k))
}

// predSelectivity estimates the standalone selectivity of one predicate from
// the catalog column statistics (uniformity assumption over NDV for equality
// and over the [Min, Max] span for ranges), or -1 when the statistics cannot
// price it.
func predSelectivity(p query.Predicate) float64 {
	c := p.Col
	switch p.Op {
	case query.OpEQ:
		if c.NDV > 0 {
			return 1 / float64(c.NDV)
		}
	case query.OpIn:
		if c.NDV > 0 {
			return float64(len(p.InSet)) / float64(c.NDV)
		}
	case query.OpLT, query.OpLE, query.OpGT, query.OpGE:
		span := float64(c.Max-c.Min) + 1
		if span <= 1 {
			return -1 // stats absent or single-valued column
		}
		var frac float64
		switch p.Op {
		case query.OpLT:
			frac = float64(p.Operand-c.Min) / span
		case query.OpLE:
			frac = float64(p.Operand-c.Min+1) / span
		case query.OpGT:
			frac = float64(c.Max-p.Operand) / span
		case query.OpGE:
			frac = float64(c.Max-p.Operand+1) / span
		}
		return math.Min(math.Max(frac, 0), 1)
	}
	return -1
}
