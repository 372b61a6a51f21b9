package exec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// Property: joinMerge places every column live above the join at the offset
// the output layout assigns, reading it from the child that holds it, for
// arbitrary left/right splits of a random subset of a query's tables.
func TestJoinMergeLayoutProperty(t *testing.T) {
	db := testutil.TinyDB()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := workload.NewGenerator(db, seed)
		q := g.Query(2 + rng.Intn(3))
		full := q.AllTablesMask()
		// random disjoint non-empty sides; tables in neither keep some of
		// the union's columns live
		var left, right query.BitSet
		for _, i := range full.Indices() {
			switch rng.Intn(3) {
			case 0:
				left = left.Set(i)
			case 1:
				right = right.Set(i)
			}
		}
		if left == 0 || right == 0 {
			return true // degenerate split, skip
		}

		leftLayout := plan.NewLayout(q, left)
		rightLayout := plan.NewLayout(q, right)
		outLayout := plan.NewLayout(q, left.Union(right))

		lt := make(Tuple, leftLayout.Width())
		rt := make(Tuple, rightLayout.Width())
		for i := range lt {
			lt[i] = rng.Int63n(1000)
		}
		for i := range rt {
			rt[i] = rng.Int63n(1000) + 10000
		}
		m := newJoinMerge(&Ctx{Q: q}, left, right)
		out := m.merge(nil, lt, rt)
		if len(out) != outLayout.Width() {
			return false
		}
		// every live column value must survive at its out-layout offset
		for _, col := range outLayout.Live() {
			var src Tuple
			var srcOff int
			if left.Has(q.TableIndex(col.Table)) {
				src, srcOff = lt, leftLayout.ColOffset(col)
			} else {
				src, srcOff = rt, rightLayout.ColOffset(col)
			}
			if out[outLayout.ColOffset(col)] != src[srcOff] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the canonical plan of any connected subset covers exactly that
// subset, has 2k−1 nodes, and every join condition it applies comes from
// the query.
func TestCanonicalPlanSubsetProperty(t *testing.T) {
	db := testutil.TinyDB()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := workload.NewGenerator(db, seed)
		q := g.Query(3 + rng.Intn(3))
		full := q.AllTablesMask()
		// random connected subset: grow from a random start
		idxs := full.Indices()
		mask := query.NewBitSet().Set(idxs[rng.Intn(len(idxs))])
		for grow := 0; grow < len(idxs); grow++ {
			var cands []int
			for _, i := range idxs {
				if mask.Has(i) {
					continue
				}
				if len(q.JoinsBetween(mask, query.NewBitSet().Set(i))) > 0 {
					cands = append(cands, i)
				}
			}
			if len(cands) == 0 || rng.Intn(3) == 0 {
				break
			}
			mask = mask.Set(cands[rng.Intn(len(cands))])
		}
		p := CanonicalPlan(q, mask)
		if p.Tables != mask {
			return false
		}
		if p.NumNodes() != 2*mask.Count()-1 {
			return false
		}
		valid := true
		known := map[string]bool{}
		for _, j := range q.Joins {
			known[j.String()] = true
		}
		p.Walk(func(n *plan.Node) {
			for _, j := range n.JoinConds {
				if !known[j.String()] {
					valid = false
				}
			}
		})
		return valid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: execution work is monotone in the work already performed —
// charging can only move the counter forward, and budget violations are
// detected exactly when exceeded.
func TestWorkBudgetMonotoneProperty(t *testing.T) {
	f := func(charges []uint8, budget uint16) bool {
		ctx := &Ctx{Budget: int64(budget)}
		var sum int64
		for _, c := range charges {
			err := ctx.charge(int64(c))
			sum += int64(c)
			if (err != nil) != (ctx.Budget > 0 && sum > ctx.Budget) {
				return false
			}
			if ctx.Work() != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
