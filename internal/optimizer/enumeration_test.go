package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/joblike"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/sqlparse"
	"github.com/lpce-db/lpce/internal/testutil"
)

type refEntry struct {
	node *plan.Node
	cost float64
}

// referencePlan is the oracle join enumeration the equality tests compare
// PlanWithMaterialized against. It shares nothing with the search's
// bookkeeping: its state lives in maps keyed by mask, and every split builds
// both physical candidates, cloning both subtrees for each, and offers them
// to the incumbent in hash, nested-loop order. It calls o.Est
// directly, once per subset, in the order a level-by-level search asks.
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
	best := make(map[query.BitSet]*refEntry)
	for i := 0; i < n; i++ {
		mask := query.NewBitSet().Set(i)
		leaf := o.bestScan(q, i, est(mask))
		best[mask] = &refEntry{node: leaf, cost: leaf.EstCost}
	}
	for mask, m := range mats {
		cost := matScanCost(float64(m.Card()))
		node := plan.NewMatLeaf(m)
		node.EstCost = cost
		if cur, ok := best[mask]; !ok || cost < cur.cost {
			best[mask] = &refEntry{node: node, cost: cost}
		}
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
				le, lok := best[sub]
				re, rok := best[rest]
				conds := q.JoinsBetween(sub, rest)
				if !lok || !rok || len(conds) == 0 {
					continue
				}
				cardL, cardR := est(sub), est(rest)
				l, r := le.node, re.node
				var cands []refEntry
				add := func(op plan.PhysOp, cost float64) {
					cands = append(cands, refEntry{node: plan.NewJoin(op, l.Clone(), r.Clone(), conds), cost: cost})
				}
				add(plan.HashJoin, hashJoinCost(cardL, cardR, outCard))
				if r.IsLeaf() && r.Op != plan.MatScan {
					add(plan.NestLoopJoin, indexNLJoinCost(cardL, outCard))
				} else {
					add(plan.NestLoopJoin, rescanNLJoinCost(cardL, cardR, outCard))
				}
				childCost := le.cost + re.cost
				for _, cand := range cands {
					total := childCost + cand.cost
					if bestEntry == nil || total < bestEntry.cost {
						cand.node.EstCard = outCard
						cand.node.EstCost = total
						bestEntry = &refEntry{node: cand.node, cost: total}
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
func deepPlanQueries(t testing.TB, schema *catalog.Schema) map[string]*query.Query {
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

// estimateCall is one estimator call: the subset asked about and the value
// the optimizer keeps after clamping.
type estimateCall struct {
	mask query.BitSet
	card float64
}

// logged wraps est so that every call is appended to the log.
func logged(est cardest.Estimator, log *[]estimateCall) cardest.Estimator {
	return cardest.FuncEstimator{Label: est.Name(), Fn: func(q *query.Query, mask query.BitSet) float64 {
		v := est.EstimateSubset(q, mask)
		kept := v
		if math.IsNaN(kept) || math.IsInf(kept, 0) || kept < 1 {
			kept = 1
		}
		*log = append(*log, estimateCall{mask, kept})
		return v
	}}
}

// materializedCases returns the materialized intermediates the enumeration
// tests plan with, as after a re-optimization: none; a connected two-table
// intermediate of 11 rows beside a one-table one of 3 rows; and the same
// pair with zero rows, whose exact cardinality 0 must survive the search.
func materializedCases(q *query.Query) []map[query.BitSet]*plan.Materialized {
	cases := []map[query.BitSet]*plan.Materialized{nil}
	for mask := query.BitSet(3); mask <= q.AllTablesMask(); mask++ {
		if mask.Count() != 2 || !q.Connected(mask) {
			continue
		}
		full := map[query.BitSet]*plan.Materialized{mask: {Tables: mask, Rows: plan.Rows{N: 11}}}
		if single := q.AllTablesMask() &^ mask; single != 0 {
			single &= -single
			full[single] = &plan.Materialized{Tables: single, Rows: plan.Rows{N: 3}}
		}
		empty := map[query.BitSet]*plan.Materialized{mask: {Tables: mask}}
		return append(cases, full, empty)
	}
	return cases
}

// TestJoinEnumerationMatchesReference asserts that the mask-indexed search
// with deferred tree construction chose exactly the plans the map-based,
// build-all-candidates enumeration chose, over the joblike and deep_plan
// query sets, with and without materialized intermediates (one of them
// empty), under the histogram and two tie-heavy estimators: the same plan
// strings, the same estimator calls in the same
// order, the same CE records, bitwise-equal EstCard and EstCost at every
// node, and no node reachable twice from the root.
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
		for _, est := range ests {
			for mi, m := range materializedCases(q) {
				label := fmt.Sprintf("%s/%s mats %d", name, est.Name(), mi)
				var wantCalls, gotCalls []estimateCall
				ref := New(db, logged(est, &wantCalls))
				want, werr := referencePlan(ref, q, m)

				eval := obs.NewCEEval()
				o := New(db, logged(est, &gotCalls))
				o.CE = eval.Recorder("logged")
				got, stats, gerr := o.PlanWithMaterialized(q, m)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s: errors differ: %v vs %v", label, gerr, werr)
				}
				if !slices.Equal(gotCalls, wantCalls) {
					t.Fatalf("%s: estimator calls differ\n got: %v\nwant: %v", label, gotCalls, wantCalls)
				}
				if stats.EstimateCalls != len(wantCalls) {
					t.Fatalf("%s: Stats.EstimateCalls = %d, estimator saw %d", label, stats.EstimateCalls, len(wantCalls))
				}
				assertCERecords(t, label, eval, q, wantCalls)
				if werr != nil {
					continue
				}
				if got.String() != want.String() {
					t.Fatalf("%s: plan differs\n got:\n%s\nwant:\n%s", label, got, want)
				}
				assertSameAnnotations(t, label, got, want)
			}
		}
	}
}

// assertCERecords checks that the recorder holds exactly one record per
// estimator call, with the value the optimizer kept: joined against those
// values as true cardinalities, every record matches at q-error 1.
func assertCERecords(t *testing.T, label string, eval *obs.CEEval, q *query.Query, calls []estimateCall) {
	t.Helper()
	for _, c := range calls {
		eval.RecordTrue(q.Fingerprint(), c.mask, c.card)
	}
	reps := eval.Report()
	if len(reps) != 1 || reps[0].Matched != len(calls) || reps[0].Unmatched != 0 {
		t.Fatalf("%s: CE records %+v, want %d matched", label, reps, len(calls))
	}
	for _, row := range reps[0].Sizes {
		if row.Max != 1 {
			t.Fatalf("%s: CE record of size %d differs from the estimate (q-error %v)", label, row.Size, row.Max)
		}
	}
}

// assertSameAnnotations walks both trees in post-order and requires the same
// operator, subset and bitwise-equal estimates at every node, and that no
// node of got is reachable twice.
func assertSameAnnotations(t *testing.T, label string, got, want *plan.Node) {
	t.Helper()
	gn, wn := got.Nodes(), want.Nodes()
	if len(gn) != len(wn) {
		t.Fatalf("%s: %d nodes, want %d", label, len(gn), len(wn))
	}
	seen := make(map[*plan.Node]bool, len(gn))
	for i, g := range gn {
		if seen[g] {
			t.Fatalf("%s: node %s reachable twice", label, g.Op)
		}
		seen[g] = true
		w := wn[i]
		if g.Op != w.Op || g.Tables != w.Tables ||
			math.Float64bits(g.EstCard) != math.Float64bits(w.EstCard) ||
			math.Float64bits(g.EstCost) != math.Float64bits(w.EstCost) {
			t.Fatalf("%s: node %d is %s %b est=%v cost=%v, want %s %b est=%v cost=%v", label, i,
				g.Op, uint32(g.Tables), g.EstCard, g.EstCost, w.Op, uint32(w.Tables), w.EstCard, w.EstCost)
		}
	}
}

// TestNextSameCountEnumeratesBySize checks the search's subset order: from
// the lowest k-bit mask, nextSameCount visits every k-bit mask of an n-table
// query in ascending order and then steps past the full mask — also at
// query.MaxTables tables, where full is the largest BitSet and a mask
// counter compared against it never stops.
func TestNextSameCountEnumeratesBySize(t *testing.T) {
	binom := func(n, k int) int {
		c := 1
		for i := 0; i < k; i++ {
			c = c * (n - i) / (i + 1)
		}
		return c
	}
	check := func(n, k int) {
		full := uint64(1)<<uint(n) - 1
		count, prev := 0, uint64(0)
		for m := uint64(1)<<uint(k) - 1; m <= full; m = nextSameCount(m) {
			if m <= prev || bits.OnesCount64(m) != k {
				t.Fatalf("n=%d k=%d: %b after %b", n, k, m, prev)
			}
			prev = m
			count++
		}
		if count != binom(n, k) {
			t.Fatalf("n=%d k=%d: visited %d masks, want %d", n, k, count, binom(n, k))
		}
	}
	for n := 1; n <= 12; n++ {
		for k := 1; k <= n; k++ {
			check(n, k)
		}
	}
	for _, k := range []int{1, 2, 30, 31, 32} {
		check(query.MaxTables, k)
	}
}

// BenchmarkPlanSearch times one plan search over one of the 24 deep_plan
// queries on SmallDB, cycling through them, with a fixed-value estimator so
// that only the enumerator is measured.
func BenchmarkPlanSearch(b *testing.B) {
	db := testutil.SmallDB()
	byName := deepPlanQueries(b, db.Schema)
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	slices.Sort(names)
	o := New(db, cardest.Fixed{Value: 1000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := o.Plan(byName[names[i%len(names)]]); err != nil {
			b.Fatal(err)
		}
	}
}
