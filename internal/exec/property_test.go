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
		if m.width() != outLayout.Width() {
			return false
		}
		out := make(Tuple, m.width())
		m.mergeFlat(out, lt, rt)
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

// growConnected grows a random connected subset of within from one of its
// tables, stopping at random.
func growConnected(rng *rand.Rand, q *query.Query, within query.BitSet) query.BitSet {
	idxs := within.Indices()
	mask := query.NewBitSet().Set(idxs[rng.Intn(len(idxs))])
	for grow := 0; grow < len(idxs); grow++ {
		var cands []int
		for _, i := range idxs {
			if !mask.Has(i) && q.Neighbors(mask).Has(i) {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 || rng.Intn(3) == 0 {
			break
		}
		mask = mask.Set(cands[rng.Intn(len(cands))])
	}
	return mask
}

// Property: the canonical plan of any connected subset, given executed
// sub-plans (disjoint connected subsets of the query, inside the subset or
// not), covers exactly that subset with 2k−1 nodes; it keeps exactly the
// executed sub-plans lying inside the subset, as leaves; its left spine
// joins the units in query.CanonicalOrder, each join with at least one
// condition; and every join condition it applies comes from the query.
func TestCanonicalPlanSubsetProperty(t *testing.T) {
	db := testutil.TinyDB()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := workload.NewGenerator(db, seed)
		q := g.Query(3 + rng.Intn(3))
		full := q.AllTablesMask()
		mask := growConnected(rng, q, full)
		var executed []*plan.Node
		var taken query.BitSet
		for e := rng.Intn(4); e > 0; e-- {
			pool := mask &^ taken
			if rng.Intn(3) == 0 {
				pool = full &^ taken
			}
			if pool == 0 {
				break
			}
			sub := growConnected(rng, q, pool)
			executed = append(executed, CanonicalPlan(q, sub))
			taken |= sub
		}
		p := CanonicalPlan(q, mask, executed...)
		if p.Tables != mask {
			return false
		}
		if p.NumNodes() != 2*mask.Count()-1 {
			return false
		}
		nodes := map[*plan.Node]bool{}
		p.Walk(func(n *plan.Node) { nodes[n] = true })
		var units []query.BitSet
		rest := mask
		for _, e := range executed {
			inside := e.Tables&mask == e.Tables
			if nodes[e] != inside {
				return false
			}
			if inside {
				units = append(units, e.Tables)
				rest &^= e.Tables
			}
		}
		for ; rest != 0; rest &= rest - 1 {
			units = append(units, rest&-rest)
		}
		order := q.CanonicalOrder(units)
		spine := p
		for i := len(order) - 1; i >= 1; i-- {
			if spine.Right.Tables != order[i] || len(spine.JoinConds) == 0 {
				return false
			}
			spine = spine.Left
		}
		if spine.Tables != order[0] {
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
