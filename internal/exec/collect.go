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
	return len(rows), nil
}

func collect(ctx *Ctx, n *plan.Node) ([][]int64, error) {
	switch {
	case n.Op == plan.MatScan:
		n.TrueCard = float64(n.Mat.Card())
		return n.Mat.Rows, nil
	case n.IsLeaf():
		return collectScan(ctx, n)
	default:
		l, err := collect(ctx, n.Left)
		if err != nil {
			return nil, err
		}
		r, err := collect(ctx, n.Right)
		if err != nil {
			return nil, err
		}
		return collectJoin(ctx, n, l, r)
	}
}

func collectScan(ctx *Ctx, n *plan.Node) ([][]int64, error) {
	t := ctx.DB.Table(n.Table)
	cols := leafCols(ctx, n)
	var arena []int64
	count := 0
	nrows := t.NumRows()
	for r := 0; r < nrows; r++ {
		if err := ctx.charge(1); err != nil {
			return nil, err
		}
		if !rowMatches(t, r, n.Preds) {
			continue
		}
		for _, c := range cols {
			arena = append(arena, t.Cols[c][r])
		}
		count++
	}
	n.TrueCard = float64(count)
	return rowViews(arena, len(cols), count), nil
}

// rowViews slices a flat row-major arena of n tuples into stable row views.
func rowViews(arena []int64, width, n int) [][]int64 {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = arena[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

func collectJoin(ctx *Ctx, n *plan.Node, left, right [][]int64) ([][]int64, error) {
	// build on the smaller side for speed; the output layout depends only on
	// the union of the two subsets, so the sides swap freely
	probeN, buildN, probe, build := n.Left, n.Right, left, right
	if len(left) < len(right) {
		probeN, buildN, probe, build = n.Right, n.Left, right, left
	}
	conds, err := resolveConds(ctx, n.JoinConds, probeN.Tables, buildN.Tables)
	if err != nil {
		return nil, err
	}
	merge := newJoinMerge(ctx, probeN.Tables, buildN.Tables)
	if err := checkVecBuildSize(len(build)); err != nil {
		return nil, err
	}
	if err := ctx.charge(int64(len(build))); err != nil {
		return nil, err
	}
	table := buildVecTable(ctx, build, conds, 1)

	// a match costs 1 per candidate plus the width-weighted charge that
	// makes the budget bound buffered memory (logical width, see matCost)
	w := merge.width()
	widthCost := int64(ctx.Layout(n.Tables).FullWidth()) / 4
	var charges pendingCharger
	var arena []int64
	count := 0
	for _, row := range probe {
		charges.add(1)
		for r := table.lookup(hashRowConds(row, conds, true)); r != -1; r = table.next[r] {
			charges.add(1)
			if err := charges.flushIfFull(ctx); err != nil {
				return nil, err
			}
			if !condsEqual(conds, row, build[r]) {
				continue // hash collision
			}
			charges.add(widthCost)
			arena = append(arena, make([]int64, w)...)
			merge.mergeFlat(arena[len(arena)-w:], row, build[r])
			count++
		}
	}
	if err := charges.flush(ctx); err != nil {
		return nil, err
	}
	n.TrueCard = float64(count)
	return rowViews(arena, w, count), nil
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
// subset: relations joined in ascending local-index order, each new
// relation attached with every join condition it shares with the prefix.
// The learned estimators featurize subsets through this same canonical
// shape, so one subset always maps to one feature sequence.
func CanonicalPlan(q *query.Query, mask query.BitSet) *plan.Node {
	idxs := mask.Indices()
	if len(idxs) == 0 {
		panic("exec: canonical plan of empty subset")
	}
	mk := func(i int) *plan.Node {
		t := q.Tables[i]
		return plan.NewLeaf(plan.SeqScan, t, i, q.PredsOn(t))
	}
	cur := mk(idxs[0])
	covered := query.NewBitSet().Set(idxs[0])
	remaining := append([]int(nil), idxs[1:]...)
	for len(remaining) > 0 {
		// pick the lowest-index remaining table connected to the prefix, so
		// the canonical tree never contains cross products when the subset
		// is connected
		pick := -1
		reach := q.Neighbors(covered)
		for pi, i := range remaining {
			if reach.Has(i) {
				pick = pi
				break
			}
		}
		if pick == -1 {
			pick = 0 // disconnected subset: accept a cross join
		}
		i := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		single := query.NewBitSet().Set(i)
		conds := q.JoinsBetween(covered, single)
		cur = plan.NewJoin(plan.HashJoin, cur, mk(i), conds)
		covered = covered.Set(i)
	}
	return cur
}
