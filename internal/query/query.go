// Package query defines the select-project-equijoin-aggregate query
// representation used across the repository (paper §3): COUNT(*) queries
// over a set of relations connected by equi-join conditions, with filter
// predicates on individual columns.
package query

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"github.com/lpce-db/lpce/internal/catalog"
)

// Op is a filter-predicate comparison operator.
type Op int

// Supported predicate operators. OpIn models the paper's "complex
// predicates" (IN lists); string LIKE predicates are represented as range
// predicates over dictionary-encoded codes, as the paper does for MSCN and
// DeepDB.
const (
	OpEQ Op = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
	OpIn
	numOps
)

// NumOps is the size of the operator one-hot vocabulary in feature encoding.
const NumOps = int(numOps)

func (o Op) String() string {
	switch o {
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpIn:
		return "IN"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Predicate is one filter condition on a single column.
type Predicate struct {
	Col     *catalog.Column
	Op      Op
	Operand int64
	// InSet holds the operand list for OpIn; Operand is unused then.
	InSet []int64
}

// Eval reports whether value v satisfies the predicate.
func (p Predicate) Eval(v int64) bool {
	switch p.Op {
	case OpEQ:
		return v == p.Operand
	case OpNE:
		return v != p.Operand
	case OpLT:
		return v < p.Operand
	case OpLE:
		return v <= p.Operand
	case OpGT:
		return v > p.Operand
	case OpGE:
		return v >= p.Operand
	case OpIn:
		for _, x := range p.InSet {
			if v == x {
				return true
			}
		}
		return false
	default:
		panic(fmt.Sprintf("query: unknown op %d", int(p.Op)))
	}
}

func (p Predicate) String() string {
	if p.Op == OpIn {
		parts := make([]string, len(p.InSet))
		for i, x := range p.InSet {
			parts[i] = fmt.Sprint(x)
		}
		return fmt.Sprintf("%s IN (%s)", p.Col.QualifiedName(), strings.Join(parts, ","))
	}
	return fmt.Sprintf("%s %s %d", p.Col.QualifiedName(), p.Op, p.Operand)
}

// Join is one equi-join condition between two columns of different tables.
type Join struct {
	Left, Right *catalog.Column
}

func (j Join) String() string {
	return j.Left.QualifiedName() + " = " + j.Right.QualifiedName()
}

// MaxTables is the most relations one query may join: a BitSet has one bit
// per table. New panics past it and the SQL parser rejects it.
const MaxTables = 32

// Query is a COUNT(*) select-project-equijoin query. A Query is immutable
// after New and safe for concurrent use.
type Query struct {
	Tables []*catalog.Table
	Joins  []Join
	Preds  []Predicate

	tableIdx map[int]int // catalog table ID -> local index
	fp       uint64      // structural fingerprint, frozen at construction

	// The join graph in local table indices, so that subset questions are
	// mask arithmetic: sides[i] holds the one-table masks of Joins[i]'s two
	// tables, adj[t] the tables sharing a join condition with table t.
	sides []joinSides
	adj   []BitSet
}

// joinSides is one join condition's left and right table as one-table masks;
// a side whose table is not in the query (same ID, different schema) is 0
// and lies in no subset.
type joinSides struct{ l, r BitSet }

// New builds a query and freezes its table ordering (sorted by catalog ID so
// bitmask subsets are canonical). It panics when a join or predicate names a
// table outside the list, or when the list is longer than MaxTables.
func New(tables []*catalog.Table, joins []Join, preds []Predicate) *Query {
	if len(tables) > MaxTables {
		panic(fmt.Sprintf("query: %d tables, at most %d fit a BitSet", len(tables), MaxTables))
	}
	ts := append([]*catalog.Table(nil), tables...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].ID < ts[j].ID })
	q := &Query{
		Tables: ts, Joins: joins, Preds: preds, tableIdx: make(map[int]int),
		sides: make([]joinSides, len(joins)),
		adj:   make([]BitSet, len(ts)),
	}
	for i, t := range ts {
		q.tableIdx[t.ID] = i
	}
	for i, j := range joins {
		q.mustHave(j.Left.Table)
		q.mustHave(j.Right.Table)
		li, ri := q.TableIndex(j.Left.Table), q.TableIndex(j.Right.Table)
		s := joinSides{tableBit(li), tableBit(ri)}
		q.sides[i] = s
		if s.l != 0 && s.r != 0 && li != ri {
			q.adj[li] |= s.r
			q.adj[ri] |= s.l
		}
	}
	for _, p := range preds {
		q.mustHave(p.Col.Table)
	}
	q.fp = q.computeFingerprint()
	return q
}

// tableBit is the one-table mask of local index i, or 0 for -1.
func tableBit(i int) BitSet {
	if i < 0 {
		return 0
	}
	return NewBitSet().Set(i)
}

// Fingerprint returns a stable structural hash of the query (tables, join
// conditions, predicates with operands). Two queries over the same catalog
// with identical structure share a fingerprint across processes and runs,
// which is what keys the shared cardinality-estimate cache.
func (q *Query) Fingerprint() uint64 { return q.fp }

func (q *Query) computeFingerprint() uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	mix := func(v uint64) {
		v *= 0xbf58476d1ce4e5b9
		v ^= v >> 27
		h = (h ^ v) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	for _, t := range q.Tables {
		mix(uint64(t.ID))
	}
	mix(uint64(len(q.Joins)))
	for _, j := range q.Joins {
		mix(uint64(j.Left.GlobalID))
		mix(uint64(j.Right.GlobalID))
	}
	mix(uint64(len(q.Preds)))
	for _, p := range q.Preds {
		mix(uint64(p.Col.GlobalID))
		mix(uint64(p.Op))
		mix(uint64(p.Operand))
		mix(uint64(len(p.InSet)))
		for _, v := range p.InSet {
			mix(uint64(v))
		}
	}
	return h
}

func (q *Query) mustHave(t *catalog.Table) {
	if _, ok := q.tableIdx[t.ID]; !ok {
		panic(fmt.Sprintf("query: table %s referenced but not in FROM list", t.Name))
	}
}

// NumJoins returns the number of join conditions (the paper's query
// complexity measure; a "Join-eight" query has 8 joins over 9 relations).
func (q *Query) NumJoins() int { return len(q.Joins) }

// TableIndex returns the local index of t within the query, or -1. Identity
// is by pointer, so same-ID tables from a different schema do not alias.
func (q *Query) TableIndex(t *catalog.Table) int {
	if i, ok := q.tableIdx[t.ID]; ok && q.Tables[i] == t {
		return i
	}
	return -1
}

// PredsOn returns the predicates filtering table t.
func (q *Query) PredsOn(t *catalog.Table) []Predicate {
	var out []Predicate
	for _, p := range q.Preds {
		if p.Col.Table == t {
			out = append(out, p)
		}
	}
	return out
}

// JoinSides returns the one-table masks of join condition i's left and
// right tables; a side whose table is not in the query is 0.
func (q *Query) JoinSides(i int) (left, right BitSet) {
	s := q.sides[i]
	return s.l, s.r
}

// JoinsWithin returns the join conditions whose both sides fall inside the
// table subset mask.
func (q *Query) JoinsWithin(mask BitSet) []Join {
	var out []Join
	for i, s := range q.sides {
		if mask&s.l != 0 && mask&s.r != 0 {
			out = append(out, q.Joins[i])
		}
	}
	return out
}

// JoinsBetween returns the join conditions with one side in left and the
// other in right.
func (q *Query) JoinsBetween(left, right BitSet) []Join {
	return q.AppendJoinsBetween(nil, left, right)
}

// AppendJoinsBetween appends JoinsBetween(left, right) to dst, in condition
// order, and returns the extended slice.
func (q *Query) AppendJoinsBetween(dst []Join, left, right BitSet) []Join {
	for i, s := range q.sides {
		if (left&s.l != 0 && right&s.r != 0) || (left&s.r != 0 && right&s.l != 0) {
			dst = append(dst, q.Joins[i])
		}
	}
	return dst
}

// Neighbors returns the tables sharing a join condition with some table of
// mask. The result may include tables of mask itself; for disjoint a and b,
// Neighbors(a)&b == 0 exactly when JoinsBetween(a, b) is empty. Bits of mask
// beyond the query's tables are ignored.
func (q *Query) Neighbors(mask BitSet) BitSet {
	var r BitSet
	for m := mask & q.AllTablesMask(); m != 0; m &= m - 1 {
		r |= q.adj[bits.TrailingZeros32(uint32(m))]
	}
	return r
}

// Connected reports whether the tables in mask form a connected subgraph
// under the query's join conditions.
func (q *Query) Connected(mask BitSet) bool {
	if mask&(mask-1) == 0 {
		return mask != 0
	}
	// flood-fill from the lowest table, expanding each table once
	seen := mask & -mask
	for frontier := seen; frontier != 0; {
		frontier = q.Neighbors(frontier) & mask &^ seen
		seen |= frontier
	}
	return seen == mask
}

// CanonicalOrder arranges disjoint, non-empty unit masks in the order every
// estimator joins a subset's units in: the unit with the smallest mask
// first, then repeatedly the smallest-mask unit sharing a join condition
// with the units placed so far, or the smallest remaining unit when none
// does (a cross join, only in a disconnected subset). Each choice depends
// only on the covered set, so the first j units of an order are the
// canonical order of the subset they cover. It sorts units in place,
// allocates nothing and returns units.
func (q *Query) CanonicalOrder(units []BitSet) []BitSet {
	for i := 1; i < len(units); i++ { // insertion sort, ascending by mask
		for k := i; k > 0 && units[k] < units[k-1]; k-- {
			units[k], units[k-1] = units[k-1], units[k]
		}
	}
	if len(units) == 0 {
		return units
	}
	reach := q.Neighbors(units[0])
	for j := 1; j < len(units); j++ {
		pick := j
		for k := j; k < len(units); k++ {
			if units[k]&reach != 0 {
				pick = k
				break
			}
		}
		u := units[pick]
		copy(units[j+1:pick+1], units[j:pick]) // keep the skipped units sorted
		units[j] = u
		reach |= q.Neighbors(u)
	}
	return units
}

// AllTablesMask returns the mask covering every table of the query.
func (q *Query) AllTablesMask() BitSet {
	return BitSet(uint64(1)<<uint(len(q.Tables)) - 1)
}

// SQL renders the query as a SQL string for logs and examples.
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT COUNT(*) FROM ")
	names := make([]string, len(q.Tables))
	for i, t := range q.Tables {
		names[i] = t.Name
	}
	b.WriteString(strings.Join(names, ", "))
	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, j.String())
	}
	for _, p := range q.Preds {
		conds = append(conds, p.String())
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	return b.String()
}

// BitSet is a subset of a query's tables by local index, bit i for table i.
// It holds indices 0 to MaxTables-1 (32 relations, far beyond the paper's
// 9-relation maximum); Set, Clear and Has must not be called with an index
// outside that range, where the shift loses the bit.
type BitSet uint32

// NewBitSet returns the empty set.
func NewBitSet() BitSet { return 0 }

// Set returns the set with bit i added.
func (b BitSet) Set(i int) BitSet { return b | 1<<uint(i) }

// Clear returns the set with bit i removed.
func (b BitSet) Clear(i int) BitSet { return b &^ (1 << uint(i)) }

// Has reports whether bit i is present.
func (b BitSet) Has(i int) bool { return b&(1<<uint(i)) != 0 }

// Union returns b ∪ o.
func (b BitSet) Union(o BitSet) BitSet { return b | o }

// Intersects reports whether b and o share any bit.
func (b BitSet) Intersects(o BitSet) bool { return b&o != 0 }

// Count returns the number of set bits.
func (b BitSet) Count() int { return bits.OnesCount32(uint32(b)) }

// First returns the lowest set bit index, or -1 for the empty set.
func (b BitSet) First() int {
	if b == 0 {
		return -1
	}
	return bits.TrailingZeros32(uint32(b))
}

// Indices returns the set bits in ascending order.
func (b BitSet) Indices() []int {
	var out []int
	for x := b; x != 0; x &= x - 1 {
		out = append(out, bits.TrailingZeros32(uint32(x)))
	}
	return out
}
