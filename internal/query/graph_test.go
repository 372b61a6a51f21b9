package query

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/lpce-db/lpce/internal/catalog"
)

// The naive join-graph helpers below recompute every answer from the join
// list through TableIndex. They are the reference the property test holds
// the precomputed bitmask versions to.

func naiveSides(q *Query, j Join) (li, ri int) {
	return q.TableIndex(j.Left.Table), q.TableIndex(j.Right.Table)
}

func naiveJoinsWithin(q *Query, mask BitSet) []Join {
	var out []Join
	for _, j := range q.Joins {
		li, ri := naiveSides(q, j)
		if mask.Has(li) && mask.Has(ri) {
			out = append(out, j)
		}
	}
	return out
}

func naiveJoinsBetween(q *Query, left, right BitSet) []Join {
	var out []Join
	for _, j := range q.Joins {
		li, ri := naiveSides(q, j)
		if (left.Has(li) && right.Has(ri)) || (left.Has(ri) && right.Has(li)) {
			out = append(out, j)
		}
	}
	return out
}

func naiveNeighbors(q *Query, mask BitSet) BitSet {
	var out BitSet
	for _, j := range q.Joins {
		li, ri := naiveSides(q, j)
		if li < 0 || ri < 0 || li == ri {
			continue
		}
		if mask.Has(li) {
			out = out.Set(ri)
		}
		if mask.Has(ri) {
			out = out.Set(li)
		}
	}
	return out
}

func naiveConnected(q *Query, mask BitSet) bool {
	if mask == 0 {
		return false
	}
	reached := NewBitSet().Set(mask.First())
	for {
		grown := reached
		for _, j := range q.Joins {
			li, ri := naiveSides(q, j)
			if !mask.Has(li) || !mask.Has(ri) {
				continue
			}
			if grown.Has(li) || grown.Has(ri) {
				grown = grown.Set(li).Set(ri)
			}
		}
		if grown == reached {
			return reached == mask
		}
		reached = grown
	}
}

// graphSchema builds a schema of n tables with three columns each. Built
// twice, the two schemas have tables with equal IDs but different identity.
func graphSchema(n int) *catalog.Schema {
	s := catalog.NewSchema()
	for i := 0; i < n; i++ {
		s.AddTable(fmt.Sprintf("t%d", i), catalog.PK("id"), catalog.Attr("a"), catalog.Attr("b"))
	}
	return s
}

// generatedGraph builds a query over n tables whose join graph has the given
// shape — "chain", "star", "cycle" or "tree" — listed in shuffled order. With
// doubled set, every edge gets a second condition on other columns, one table
// gets a condition on two of its own columns, and one edge gets a condition
// whose side belongs to foreign, a schema whose tables share IDs but not
// identity with s's.
func generatedGraph(r *rand.Rand, s, foreign *catalog.Schema, n int, shape string, doubled bool) *Query {
	perm := r.Perm(len(s.Tables))[:n]
	tables := make([]*catalog.Table, n)
	for i, p := range perm {
		tables[i] = s.Tables[p]
	}
	col := func(t *catalog.Table) *catalog.Column { return t.Columns[r.Intn(len(t.Columns))] }
	var joins []Join
	edge := func(a, b *catalog.Table) {
		if r.Intn(2) == 0 {
			a, b = b, a
		}
		joins = append(joins, Join{Left: col(a), Right: col(b)})
		if doubled {
			joins = append(joins, Join{Left: col(b), Right: col(a)})
		}
	}
	for i := 1; i < n; i++ {
		switch shape {
		case "chain", "cycle":
			edge(tables[i-1], tables[i])
		case "star":
			edge(tables[0], tables[i])
		case "tree":
			edge(tables[r.Intn(i)], tables[i])
		}
	}
	if shape == "cycle" && n >= 3 {
		edge(tables[n-1], tables[0])
	}
	if doubled {
		t := tables[r.Intn(n)]
		joins = append(joins, Join{Left: t.Column("a"), Right: t.Column("b")})
		if n >= 2 {
			alias := foreign.Table(tables[1].Name)
			joins = append(joins, Join{Left: col(tables[0]), Right: alias.Column("id")})
		}
	}
	r.Shuffle(len(joins), func(i, j int) { joins[i], joins[j] = joins[j], joins[i] })
	return New(tables, joins, nil)
}

func joinsString(js []Join) string {
	parts := make([]string, len(js))
	for i, j := range js {
		parts[i] = j.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// TestJoinGraphMatchesNaive holds Connected, Neighbors, JoinsWithin and
// JoinsBetween to the naive TableIndex-based reference — results and
// condition order — over generated 1-12-table chains, stars, cycles and
// trees, with and without doubled, same-table and foreign-table conditions,
// for every subset mask. JoinsBetween is checked against the complement and
// an overlapping mask for every subset, and for every split of every subset
// up to eight tables, where Neighbors must also agree with it on whether
// the two sides share a condition.
func TestJoinGraphMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s, foreign := graphSchema(16), graphSchema(16)
	for n := 1; n <= 12; n++ {
		for _, shape := range []string{"chain", "star", "cycle", "tree"} {
			for _, doubled := range []bool{false, true} {
				q := generatedGraph(r, s, foreign, n, shape, doubled)
				label := fmt.Sprintf("%d-table %s doubled=%v", n, shape, doubled)
				full := q.AllTablesMask()
				betweenOK := func(a, b BitSet) {
					got, want := q.JoinsBetween(a, b), naiveJoinsBetween(q, a, b)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: JoinsBetween(%b, %b) = %s, want %s", label, uint32(a), uint32(b), joinsString(got), joinsString(want))
					}
				}
				for m := BitSet(0); m <= full; m++ {
					if got, want := q.Connected(m), naiveConnected(q, m); got != want {
						t.Fatalf("%s: Connected(%b) = %v, want %v", label, uint32(m), got, want)
					}
					if got, want := q.Neighbors(m), naiveNeighbors(q, m); got != want {
						t.Fatalf("%s: Neighbors(%b) = %b, want %b", label, uint32(m), uint32(got), uint32(want))
					}
					if got, want := q.JoinsWithin(m), naiveJoinsWithin(q, m); !slices.Equal(got, want) {
						t.Fatalf("%s: JoinsWithin(%b) = %s, want %s", label, uint32(m), joinsString(got), joinsString(want))
					}
					betweenOK(m, full&^m)
					betweenOK(m, BitSet(uint32(m)*0x9e3779b1)&full)
					if n > 8 {
						continue
					}
					for sub := m; sub > 0; sub = (sub - 1) & m {
						rest := m &^ sub
						betweenOK(sub, rest)
						if shares := len(q.JoinsBetween(sub, rest)) > 0; shares != (q.Neighbors(sub)&rest != 0) {
							t.Fatalf("%s: split %b|%b shares a condition: %v, Neighbors says %v", label, uint32(sub), uint32(rest), shares, !shares)
						}
					}
				}
			}
		}
	}
}

// naiveCanonicalOrder states the canonical order's rule directly: take the
// smallest unit first, then, until none remain, the smallest unit that
// shares a join condition with the units taken, or the smallest remaining
// unit when none does.
func naiveCanonicalOrder(q *Query, units []BitSet) []BitSet {
	rest := slices.Clone(units)
	var out []BitSet
	var covered BitSet
	for len(rest) > 0 {
		pick := -1
		for i, u := range rest {
			adjacent := len(naiveJoinsBetween(q, covered, u)) > 0
			if (adjacent || len(out) == 0) && (pick < 0 || u < rest[pick]) {
				pick = i
			}
		}
		if pick < 0 {
			pick = slices.Index(rest, slices.Min(rest))
		}
		out = append(out, rest[pick])
		covered |= rest[pick]
		rest = slices.Delete(rest, pick, pick+1)
	}
	return out
}

// TestCanonicalOrderMatchesNaive holds CanonicalOrder to the rule stated
// directly, over generated 1-12-table graphs and random subsets of them
// (disconnected ones included) split into random disjoint units, each given
// in shuffled order. Every prefix of an order must be the order of the
// units it holds, and ordering must not allocate.
func TestCanonicalOrderMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s, foreign := graphSchema(16), graphSchema(16)
	disconnected := 0
	for n := 1; n <= 12; n++ {
		for _, shape := range []string{"chain", "star", "cycle", "tree"} {
			for _, doubled := range []bool{false, true} {
				q := generatedGraph(r, s, foreign, n, shape, doubled)
				for trial := 0; trial < 40; trial++ {
					mask := BitSet(r.Int63()) & q.AllTablesMask()
					if mask == 0 {
						continue
					}
					if !q.Connected(mask) {
						disconnected++
					}
					groups := make([]BitSet, 1+r.Intn(mask.Count()))
					for _, i := range mask.Indices() {
						g := r.Intn(len(groups))
						groups[g] = groups[g].Set(i)
					}
					var units []BitSet
					for _, g := range groups {
						if g != 0 {
							units = append(units, g)
						}
					}
					r.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
					want := naiveCanonicalOrder(q, units)
					got := q.CanonicalOrder(slices.Clone(units))
					if !slices.Equal(got, want) {
						t.Fatalf("%d-table %s doubled=%v: CanonicalOrder(%b) = %b, want %b", n, shape, doubled, units, got, want)
					}
					for j := 1; j < len(got); j++ {
						prefix := slices.Clone(got[:j])
						r.Shuffle(j, func(a, b int) { prefix[a], prefix[b] = prefix[b], prefix[a] })
						if p := q.CanonicalOrder(prefix); !slices.Equal(p, got[:j]) {
							t.Fatalf("%d-table %s: order %b, prefix %d reorders to %b", n, shape, got, j, p)
						}
					}
					if allocs := testing.AllocsPerRun(2, func() { q.CanonicalOrder(units) }); allocs != 0 {
						t.Fatalf("CanonicalOrder allocates %v times", allocs)
					}
				}
			}
		}
	}
	if disconnected < 100 {
		t.Fatalf("only %d disconnected subsets drawn", disconnected)
	}
}
