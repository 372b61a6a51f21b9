package exec

import (
	"fmt"
	"sync"

	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// RunCollect executes the plan bottom-up, materializing every operator's
// output and stamping TrueCard on every node. This is the training-sample
// collector (the paper obtains per-node cardinalities via EXPLAIN ANALYZE);
// joins always run hashed since cardinalities do not depend on the physical
// operator. It returns the root cardinality.
func RunCollect(ctx *Ctx, root *plan.Node) (int, error) {
	rows, err := collect(ctx, root)
	if err != nil {
		return 0, err
	}
	return rows.N, nil
}

func collect(ctx *Ctx, n *plan.Node) (plan.Rows, error) {
	switch {
	case n.Op == plan.MatScan:
		n.TrueCard = float64(n.Mat.Card())
		return n.Mat.Rows, nil
	case n.IsLeaf():
		return collectScan(ctx, n)
	default:
		l, err := collect(ctx, n.Left)
		if err != nil {
			return plan.Rows{}, err
		}
		r, err := collect(ctx, n.Right)
		if err != nil {
			return plan.Rows{}, err
		}
		return collectJoin(ctx, n, l, r)
	}
}

func collectScan(ctx *Ctx, n *plan.Node) (plan.Rows, error) {
	t := ctx.DB.Table(n.Table)
	cols := leafCols(ctx, n)
	rows := plan.Rows{Width: len(cols)}
	nrows := t.NumRows()
	for r := 0; r < nrows; r++ {
		if err := ctx.charge(1); err != nil {
			return plan.Rows{}, err
		}
		if !rowMatches(t, r, n.Preds) {
			continue
		}
		for _, c := range cols {
			rows.Data = append(rows.Data, t.Cols[c][r])
		}
		rows.N++
	}
	n.TrueCard = float64(rows.N)
	return rows, nil
}

func collectJoin(ctx *Ctx, n *plan.Node, left, right plan.Rows) (plan.Rows, error) {
	// build on the smaller side for speed; the output layout depends only on
	// the union of the two subsets, so the sides swap freely
	probeN, buildN, probe, build := n.Left, n.Right, left, right
	if left.N < right.N {
		probeN, buildN, probe, build = n.Right, n.Left, right, left
	}
	conds, err := resolveConds(ctx, n.JoinConds, probeN.Tables, buildN.Tables)
	if err != nil {
		return plan.Rows{}, err
	}
	merge := newJoinMerge(ctx, probeN.Tables, buildN.Tables)
	if err := checkVecBuildSize(build.N); err != nil {
		return plan.Rows{}, err
	}
	if err := ctx.charge(int64(build.N)); err != nil {
		return plan.Rows{}, err
	}
	var table hashTable
	table.build(build, conds)
	defer table.release()
	exact := len(conds) <= 1 // equal hashes mean equal keys, see hashRowConds

	// a match costs 1 per candidate plus the width-weighted charge that
	// makes the budget bound buffered memory (logical width, see matCost)
	w := merge.width()
	widthCost := int64(ctx.Layout(n.Tables).FullWidth()) / 4
	var charges pendingCharger
	out := plan.Rows{Width: w}
	for i := 0; i < probe.N; i++ {
		row := probe.Row(i)
		charges.add(1)
		s := table.lookup(hashRowConds(row, conds, true))
		for _, r := range table.order[s.lo:s.hi] {
			charges.add(1)
			if err := charges.flushIfFull(ctx); err != nil {
				return plan.Rows{}, err
			}
			b := build.Row(int(r))
			if !exact && !condsEqual(conds, row, b) {
				continue // 64-bit hash collision
			}
			charges.add(widthCost)
			out.Data = append(out.Data, make([]int64, w)...)
			merge.mergeFlat(out.Data[len(out.Data)-w:], row, b)
			out.N++
		}
	}
	if err := charges.flush(ctx); err != nil {
		return plan.Rows{}, err
	}
	n.TrueCard = float64(out.N)
	return out, nil
}

// TrueCardOracle computes exact cardinalities for arbitrary table subsets
// of a query by *pipelined* execution of the canonical left-deep plan —
// only single-table hash builds are buffered, so memory stays bounded even
// for huge results; a work budget bounds time. It is the ground-truth
// estimator in accuracy experiments and tests. Results are memoized per
// (query, subset); the memo is mutex-guarded, so one oracle may be shared
// across concurrent workload workers.
type TrueCardOracle struct {
	DB *storage.Database
	// Budget bounds the work per exact count; zero means unlimited.
	// Experiment harnesses use TryEstimate with a budget to curate test
	// queries whose true cardinality is computable (the paper analogously
	// selects test queries by their PostgreSQL execution time).
	Budget int64

	mu    sync.RWMutex
	cache map[oracleKey]float64
}

type oracleKey struct {
	q    *query.Query
	mask query.BitSet
}

// NewTrueCardOracle returns an unbounded oracle over db.
func NewTrueCardOracle(db *storage.Database) *TrueCardOracle {
	return &TrueCardOracle{DB: db, cache: make(map[oracleKey]float64)}
}

// Name implements the estimator interface.
func (o *TrueCardOracle) Name() string { return "oracle" }

// TryEstimate returns the exact cardinality of joining the subset, or
// ErrBudget when the count is not computable within the oracle's budget.
func (o *TrueCardOracle) TryEstimate(q *query.Query, mask query.BitSet) (float64, error) {
	k := oracleKey{q, mask}
	o.mu.RLock()
	v, ok := o.cache[k]
	o.mu.RUnlock()
	if ok {
		return v, nil
	}
	// compute outside the lock: exact counts are deterministic, so racing
	// duplicates write the same value
	node := CanonicalPlan(q, mask)
	ctx := &Ctx{DB: o.DB, Q: q, Budget: o.Budget}
	count, err := Run(ctx, node)
	if err != nil {
		return 0, err
	}
	v = float64(count)
	o.mu.Lock()
	o.cache[k] = v
	o.mu.Unlock()
	return v, nil
}

// EstimateSubset returns the exact cardinality of joining the subset,
// panicking if the oracle's budget is exceeded (callers curate queries via
// TryEstimate first).
func (o *TrueCardOracle) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	v, err := o.TryEstimate(q, mask)
	if err != nil {
		panic(fmt.Sprintf("exec: oracle failed: %v", err))
	}
	return v
}

// CanonicalPlan builds the canonical left-deep logical plan for a table
// subset. Its units — each executed sub-plan lying wholly inside mask, kept
// as a leaf, and a scan of every other table — are joined in
// query.CanonicalOrder, each new unit attached with every join condition it
// shares with the prefix, so a connected subset's tree has no cross joins.
// The executed sub-plans must cover disjoint tables. The learned estimators
// featurize subsets in this same order, so one subset always maps to one
// feature sequence.
func CanonicalPlan(q *query.Query, mask query.BitSet, executed ...*plan.Node) *plan.Node {
	if mask == 0 {
		panic("exec: canonical plan of empty subset")
	}
	units := make([]query.BitSet, 0, mask.Count())
	rest := mask
	for _, n := range executed {
		if n.Tables&mask == n.Tables {
			units = append(units, n.Tables)
			rest &^= n.Tables
		}
	}
	for ; rest != 0; rest &= rest - 1 {
		units = append(units, rest&-rest)
	}
	var cur *plan.Node
	var covered query.BitSet
	for _, u := range q.CanonicalOrder(units) {
		leaf := unitLeaf(q, u, executed)
		if cur == nil {
			cur = leaf
		} else {
			cur = plan.NewJoin(plan.HashJoin, cur, leaf, q.JoinsBetween(covered, u))
		}
		covered |= u
	}
	return cur
}

// unitLeaf returns the executed sub-plan covering exactly u, or else a scan
// of u's one table.
func unitLeaf(q *query.Query, u query.BitSet, executed []*plan.Node) *plan.Node {
	for _, n := range executed {
		if n.Tables == u {
			return n
		}
	}
	i := u.First()
	t := q.Tables[i]
	return plan.NewLeaf(plan.SeqScan, t, i, q.PredsOn(t))
}
