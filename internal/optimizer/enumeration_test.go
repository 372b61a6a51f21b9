package optimizer

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/joblike"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/sqlparse"
	"github.com/lpce-db/lpce/internal/testutil"
)

// referencePlan is the join enumeration as it was before operators were
// costed ahead of node construction: every split builds all three physical
// candidates, cloning both subtrees for each, and offers them to the
// incumbent in hash, merge, nested-loop order. It is the oracle the
// plan-string equality tests compare PlanWithMaterialized against.
func referencePlan(o *Optimizer, q *query.Query, mats map[query.BitSet]*plan.Materialized) (*plan.Node, error) {
	n := len(q.Tables)
	full := q.AllTablesMask()
	cards := make(map[query.BitSet]float64)
	est := func(mask query.BitSet) float64 {
		if v, ok := cards[mask]; ok {
			return v
		}
		v := o.Est.EstimateSubset(q, mask)
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 1 {
			v = 1
		}
		cards[mask] = v
		return v
	}
	for mask, m := range mats {
		cards[mask] = float64(m.Card())
	}
	best := make(map[query.BitSet]*dpEntry)
	for i := 0; i < n; i++ {
		mask := query.NewBitSet().Set(i)
		best[mask] = o.bestScan(q, i, est(mask))
	}
	for mask, m := range mats {
		cost := o.Cost.MatScanCost(float64(m.Card()))
		node := plan.NewMatLeaf(m)
		node.EstCost = cost
		if cur, ok := best[mask]; !ok || cost < cur.cost {
			best[mask] = &dpEntry{node: node, cost: cost}
		}
	}
	type joinCand struct {
		node *plan.Node
		cost float64
	}
	for size := 2; size <= n; size++ {
		for mask := query.BitSet(1); mask <= full; mask++ {
			if mask.Count() != size || !q.Connected(mask) {
				continue
			}
			outCard := est(mask)
			bestEntry := best[mask]
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				rest := mask &^ sub
				if o.Shape == ShapeLeftDeep && rest.Count() != 1 {
					continue
				}
				le, lok := best[sub]
				re, rok := best[rest]
				conds := q.JoinsBetween(sub, rest)
				if !lok || !rok || len(conds) == 0 {
					continue
				}
				cardL, cardR := est(sub), est(rest)
				l, r := le.node, re.node
				var cands []joinCand
				add := func(op plan.PhysOp, cost float64) {
					cands = append(cands, joinCand{node: plan.NewJoin(op, l.Clone(), r.Clone(), conds), cost: cost})
				}
				add(plan.HashJoin, o.Cost.HashJoinCost(cardL, cardR, outCard))
				add(plan.MergeJoin, o.Cost.MergeJoinCost(cardL, cardR, outCard))
				if r.IsLeaf() && r.Op != plan.MatScan {
					add(plan.NestLoopJoin, o.Cost.IndexNLJoinCost(cardL, outCard))
				} else {
					add(plan.NestLoopJoin, o.Cost.RescanNLJoinCost(cardL, cardR, outCard))
				}
				childCost := le.cost + re.cost
				for _, cand := range cands {
					total := childCost + cand.cost
					if bestEntry == nil || total < bestEntry.cost {
						cand.node.EstCard = outCard
						cand.node.EstCost = total
						bestEntry = &dpEntry{node: cand.node, cost: total}
					}
				}
			}
			if bestEntry != nil {
				best[mask] = bestEntry
			}
		}
	}
	root, ok := best[full]
	if !ok {
		return nil, fmt.Errorf("disconnected")
	}
	return root.node, nil
}

// deepPlanQueries parses the benchmark's deep_plan query file: statements
// end in ";" and "--" lines are comments.
func deepPlanQueries(t *testing.T, schema *catalog.Schema) map[string]*query.Query {
	t.Helper()
	raw, err := os.ReadFile("../../bench/queries/deep_plan.sql")
	if err != nil {
		t.Fatal(err)
	}
	var body strings.Builder
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "--") {
			body.WriteString(line + " ")
		}
	}
	out := make(map[string]*query.Query)
	for i, sql := range strings.Split(body.String(), ";") {
		if strings.TrimSpace(sql) == "" {
			continue
		}
		q, err := sqlparse.Parse(schema, sql)
		if err != nil {
			t.Fatalf("deep_plan statement %d: %v", i+1, err)
		}
		out[fmt.Sprintf("d%02d", i+1)] = q
	}
	if len(out) != 24 {
		t.Fatalf("parsed %d deep_plan queries, want 24", len(out))
	}
	return out
}

// scrambled is an estimator with no structure at all — cardinalities are a
// hash of the subset, drawn from the powers of two so that operators and
// splits often cost exactly the same — which drives the enumeration through
// orderings and ties no sane estimator produces.
func scrambled(salt uint64) cardest.Estimator {
	return cardest.FuncEstimator{Label: "scrambled", Fn: func(q *query.Query, mask query.BitSet) float64 {
		h := (uint64(mask) + salt) * 0x9e3779b97f4a7c15
		h ^= h >> 29
		return float64(uint64(1) << (h % 12))
	}}
}

// TestJoinEnumerationMatchesReference asserts that costing the operators
// before building nodes chose exactly the plans the build-all-candidates
// enumeration chose, over the joblike and deep_plan query sets, with and
// without a materialized intermediate, bushy and left-deep.
func TestJoinEnumerationMatchesReference(t *testing.T) {
	db := testutil.TinyDB()
	queries, err := joblike.Queries(db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range deepPlanQueries(t, db.Schema) {
		queries[name] = q
	}
	ests := []cardest.Estimator{histogram.NewEstimator(db), scrambled(1), scrambled(2)}
	for name, q := range queries {
		// a materialized two-table intermediate, as after a re-optimization
		var mats map[query.BitSet]*plan.Materialized
		for mask := query.BitSet(3); mask <= q.AllTablesMask(); mask++ {
			if mask.Count() == 2 && q.Connected(mask) {
				mats = map[query.BitSet]*plan.Materialized{mask: {Tables: mask, Rows: make([][]int64, 11)}}
				break
			}
		}
		for _, est := range ests {
			for _, shape := range []JoinShape{ShapeBushy, ShapeLeftDeep} {
				for _, m := range []map[query.BitSet]*plan.Materialized{nil, mats} {
					o := New(db, est)
					o.Shape = shape
					want, werr := referencePlan(o, q, m)
					got, _, gerr := o.PlanWithMaterialized(q, m)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("%s/%s: errors differ: %v vs %v", name, est.Name(), gerr, werr)
					}
					if werr == nil && got.String() != want.String() {
						t.Fatalf("%s/%s shape %d mats %v: plan differs\n got:\n%s\nwant:\n%s", name, est.Name(), shape, m != nil, got, want)
					}
				}
			}
		}
	}
}
