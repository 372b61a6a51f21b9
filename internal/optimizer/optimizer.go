package optimizer

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// Optimizer finds the minimum-cost physical plan for a query via dynamic
// programming over connected relation subsets, searching the full space of
// binary join trees (PostgreSQL's behaviour).
type Optimizer struct {
	DB  *storage.Database
	Est cardest.Estimator
	// CE, when non-nil, records every EstimateSubset result (query
	// fingerprint, relation mask, estimate) for CE evaluation: after
	// execution the recorded estimates are joined against observed true
	// cardinalities to grade the estimator sub-plan by sub-plan.
	CE *obs.CERecorder
}

// New returns an optimizer over db using est for cardinalities.
func New(db *storage.Database, est cardest.Estimator) *Optimizer {
	return &Optimizer{DB: db, Est: est}
}

// Stats reports plan-search effort for the experiment harness.
type Stats struct {
	EstimateCalls int // cardinality estimations performed (≤ 2ⁿ−1)
	PlannedMasks  int // connected subsets with a plan
}

// dpEntry is the search's state for one table subset: its cardinality and
// the cheapest plan found for it so far — a leaf (a base-table scan or a
// materialized intermediate) or a join of the split (left, subset &^ left).
// The search only compares costs; the chosen tree is built from the entries
// once it is over, so no plan node is built or cloned per split.
type dpEntry struct {
	card  float64      // estimated rows; exact for a materialized subset
	cost  float64      // of the plan, valid when planned
	leaf  *plan.Node   // the leaf plan, or nil for a join or no plan yet
	op    plan.PhysOp  // the join plan's operator
	left  query.BitSet // the join plan's left input; 0 for a leaf or no plan
	known bool         // card is set: a zero-row intermediate's card is 0
}

func (e *dpEntry) planned() bool { return e.leaf != nil || e.left != 0 }

// scanLeaf reports whether the plan is a base-table scan, the inner side an
// index nested loop can probe.
func (e *dpEntry) scanLeaf() bool { return e.leaf != nil && e.leaf.Op != plan.MatScan }

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

	// The search visits every subset mask up to full, so its state is one
	// slice indexed by mask. Each subset is estimated once: the paper keeps
	// sub-query estimates in a memory pool for the same reason.
	dp := make([]dpEntry, uint64(full)+1)
	// One estimation session per search lets the estimator share work
	// between the subsets (LPCE memoizes sub-plan encodings by mask).
	session := cardest.BeginQuery(o.Est, q)
	est := func(mask query.BitSet) float64 {
		e := &dp[mask]
		if e.known {
			return e.card
		}
		stats.EstimateCalls++
		v := session.EstimateSubset(q, mask)
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 1 {
			v = 1
		}
		o.CE.RecordEstimate(q.Fingerprint(), mask, v)
		e.card, e.known = v, true
		return v
	}
	// Materialized subsets have exact cardinalities; seed them so
	// refinement models and overlays agree with reality for executed parts.
	for mask, m := range mats {
		dp[mask].card, dp[mask].known = float64(m.Card()), true
	}

	// Level 1: base-table access paths.
	for i := 0; i < n; i++ {
		mask := query.NewBitSet().Set(i)
		leaf := o.bestScan(q, i, est(mask))
		dp[mask].leaf, dp[mask].cost = leaf, leaf.EstCost
	}
	// Materialized leaves compete with whatever covers the same subset.
	for mask, m := range mats {
		cost := matScanCost(float64(m.Card()))
		if e := &dp[mask]; !e.planned() || cost < e.cost {
			e.leaf = plan.NewMatLeaf(m)
			e.leaf.EstCost = cost
			e.cost = cost
		}
	}

	// Levels 2..n: connected subsets by increasing size, each size in
	// ascending mask order.
	for size := 2; size <= n; size++ {
		for m := uint64(1)<<uint(size) - 1; m <= uint64(full); m = nextSameCount(m) {
			mask := query.BitSet(m)
			if !q.Connected(mask) {
				continue
			}
			outCard := est(mask)
			cur := dp[mask] // a materialized leaf may already cover it
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				rest := mask &^ sub
				le, re := &dp[sub], &dp[rest]
				if !le.planned() || !re.planned() || q.Neighbors(sub)&rest == 0 {
					continue // no plan for a side, or a cross product
				}
				op, total := cheapestJoin(re.scanLeaf(), le.cost+re.cost, le.card, re.card, outCard)
				if !cur.planned() || total < cur.cost {
					cur.leaf, cur.op, cur.left, cur.cost = nil, op, sub, total
				}
			}
			if cur.planned() {
				dp[mask] = cur
				stats.PlannedMasks++
			}
		}
	}

	if !dp[full].planned() {
		return nil, stats, fmt.Errorf("optimizer: query join graph is disconnected")
	}
	return buildPlan(q, dp, full), stats, nil
}

// nextSameCount returns the smallest integer above m with as many set bits
// (Gosper's hack); m must be non-zero.
func nextSameCount(m uint64) uint64 {
	low := m & -m
	r := m + low
	return r | (r^m)>>(2+uint(bits.TrailingZeros64(low)))
}

// buildPlan constructs the tree the search chose for mask, top-down. Every
// subset appears once in it, so every node is fresh and none is shared.
func buildPlan(q *query.Query, dp []dpEntry, mask query.BitSet) *plan.Node {
	e := &dp[mask]
	if e.leaf != nil {
		return e.leaf
	}
	rest := mask &^ e.left
	node := plan.NewJoin(e.op, buildPlan(q, dp, e.left), buildPlan(q, dp, rest), q.JoinsBetween(e.left, rest))
	node.EstCard = e.card
	node.EstCost = e.cost
	return node
}

// cheapestJoin costs the physical join operators for one (left, right)
// split on top of the children's cost and returns the cheapest total. Totals
// are compared, not operator costs, and only a strictly cheaper one wins, so
// on a tie — including one the addition rounds into — the hash join beats
// the nested loop. scanRight says the right input is a base-table scan,
// which an index nested loop probes instead of rescanning.
func cheapestJoin(scanRight bool, childCost, cardL, cardR, out float64) (plan.PhysOp, float64) {
	nl := rescanNLJoinCost(cardL, cardR, out)
	if scanRight {
		nl = indexNLJoinCost(cardL, out)
	}
	op, best := plan.HashJoin, childCost+hashJoinCost(cardL, cardR, out)
	if total := childCost + nl; total < best {
		op, best = plan.NestLoopJoin, total
	}
	return op, best
}

// bestScan picks the cheaper of a sequential scan and an index scan for one
// base table; the leaf's EstCost is its cost.
func (o *Optimizer) bestScan(q *query.Query, idx int, estCard float64) *plan.Node {
	t := q.Tables[idx]
	preds := q.PredsOn(t)
	rows := float64(o.DB.Table(t).NumRows())

	seq := plan.NewLeaf(plan.SeqScan, t, idx, preds)
	seq.EstCard = estCard
	seqCost := seqScanCost(rows)
	seq.EstCost = seqCost
	best := seq

	// Index scan: any predicate except != can drive an index. Each candidate
	// is costed with its own selectivity from the catalog statistics, so the
	// scan drives through the most selective predicate rather than whichever
	// happens to come first in the query.
	for pi := range preds {
		if preds[pi].Op == query.OpNE {
			continue
		}
		matches := indexMatches(preds[pi], estCard, rows, len(preds))
		cost := indexScanCost(matches)
		if cost < best.EstCost {
			node := plan.NewLeaf(plan.IndexScan, t, idx, preds)
			node.IndexPred = &node.Preds[pi]
			node.EstCard = estCard
			node.EstCost = cost
			best = node
		}
	}
	return best
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
