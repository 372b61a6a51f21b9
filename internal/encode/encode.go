// Package encode implements the feature encoding of paper §4.1 (Figure 5):
// every plan node becomes a dense vector that concatenates
//
//   - the logical function as a one-hot over |P| (scan or join — the paper
//     encodes logical rather than physical operators because estimation
//     happens before physical operators are chosen);
//   - the join condition as a two-hot over the |C| global columns;
//   - the filter predicates in [column, operator, operand] form. The paper
//     pools one operand scalar per node; we vectorize the same information
//     per column — a presence flag plus the normalized [lo, hi] interval
//     the predicates admit on that column — so that multi-predicate nodes
//     do not collapse different columns' operands into one slot. The
//     operator one-hots are sum-pooled as in MSCN.
//
// The encoder also provides the cardinality-augmented variant used by
// LPCE-R's cardinality module (§5.2): the node feature concatenated with
// the normalized real cardinalities of its two children.
package encode

import (
	"hash/fnv"
	"math"
	"strconv"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/tensor"
)

// Logical functions (the paper's operator set P).
const (
	FuncScan = iota
	FuncJoin
	NumFuncs
)

// Encoder maps plan nodes to feature vectors for one schema.
type Encoder struct {
	Schema *catalog.Schema
	nCols  int
}

// NewEncoder builds an encoder for the schema.
func NewEncoder(s *catalog.Schema) *Encoder {
	return &Encoder{Schema: s, nCols: s.NumColumns()}
}

// Dim returns the feature dimension:
// |P| + |C| (join) + 3·|C| (predicate presence/lo/hi) + |ops|.
func (e *Encoder) Dim() int {
	return NumFuncs + 4*e.nCols + query.NumOps
}

// DimWithCards returns the dimension of the cardinality-augmented features
// (two extra slots for the children's normalized log cardinalities).
func (e *Encoder) DimWithCards() int { return e.Dim() + 2 }

// Fingerprint digests everything the encoding depends on — the feature
// dimensions plus each column's identity and the min/max statistics behind
// operand normalization — into a 64-bit FNV-1a hash. Model artifacts store
// it so that loading a model against a different schema (or the same schema
// with different statistics, which silently shifts every operand feature)
// is rejected instead of producing garbage estimates.
func (e *Encoder) Fingerprint() uint64 {
	h := fnv.New64a()
	put := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	put(strconv.Itoa(e.Dim()), strconv.Itoa(e.DimWithCards()))
	for _, t := range e.Schema.Tables {
		put("t", t.Name)
	}
	for _, c := range e.Schema.Columns {
		put("c", c.Name, strconv.Itoa(c.GlobalID),
			strconv.FormatInt(c.Min, 10), strconv.FormatInt(c.Max, 10))
	}
	return h.Sum64()
}

// offsets within the feature vector
func (e *Encoder) joinOff() int     { return NumFuncs }
func (e *Encoder) presenceOff() int { return NumFuncs + e.nCols }
func (e *Encoder) loOff() int       { return NumFuncs + 2*e.nCols }
func (e *Encoder) hiOff() int       { return NumFuncs + 3*e.nCols }
func (e *Encoder) predOpOff() int   { return NumFuncs + 4*e.nCols }

// EncodeNode encodes one plan node (ignoring children). Materialized-scan
// leaves encode as plain scans (their contents are summarized separately by
// LPCE-R's executed-sub-plan embeddings).
func (e *Encoder) EncodeNode(n *plan.Node) tensor.Vec {
	v := tensor.NewVec(e.Dim())
	e.EncodeNodeInto(v, n)
	return v
}

// EncodeNodeInto writes EncodeNode's features over dst[:Dim()], allocating
// nothing.
func (e *Encoder) EncodeNodeInto(dst tensor.Vec, n *plan.Node) {
	if n.Op.IsJoin() {
		e.EncodeJoinInto(dst, n.JoinConds)
		return
	}
	e.EncodeScanInto(dst, n.Preds)
}

// EncodeScan encodes a base-table scan with its predicates.
func (e *Encoder) EncodeScan(preds []query.Predicate) tensor.Vec {
	v := tensor.NewVec(e.Dim())
	e.EncodeScanInto(v, preds)
	return v
}

// EncodeScanInto writes EncodeScan's features over dst[:Dim()], allocating
// nothing; inference sessions encode into scratch through it.
func (e *Encoder) EncodeScanInto(dst tensor.Vec, preds []query.Predicate) {
	v := dst[:e.Dim()]
	v.Zero()
	v[FuncScan] = 1
	// accumulate per-column admitted intervals in the output slots
	// themselves; the presence flag marks a column already seen
	for _, p := range preds {
		lo, hi := e.interval(p)
		id := p.Col.GlobalID
		if v[e.presenceOff()+id] == 1 {
			// multiple predicates on one column: intersect
			if cur := v[e.loOff()+id]; lo < cur {
				lo = cur
			}
			if cur := v[e.hiOff()+id]; hi > cur {
				hi = cur
			}
		}
		v[e.presenceOff()+id] = 1
		v[e.loOff()+id] = lo
		v[e.hiOff()+id] = hi
		v[e.predOpOff()+int(p.Op)] += 1
	}
}

// EncodeJoin encodes a join node with its equi-join conditions as the
// two-hot column vector of Figure 5.
func (e *Encoder) EncodeJoin(conds []query.Join) tensor.Vec {
	v := tensor.NewVec(e.Dim())
	e.EncodeJoinInto(v, conds)
	return v
}

// EncodeJoinInto writes EncodeJoin's features over dst[:Dim()], allocating
// nothing.
func (e *Encoder) EncodeJoinInto(dst tensor.Vec, conds []query.Join) {
	v := dst[:e.Dim()]
	v.Zero()
	v[FuncJoin] = 1
	for _, j := range conds {
		v[e.joinOff()+j.Left.GlobalID] += 1
		v[e.joinOff()+j.Right.GlobalID] += 1
	}
}

// interval maps a predicate to the normalized value interval it admits on
// its column ([0,1] relative to the column's min/max statistics).
func (e *Encoder) interval(p query.Predicate) (lo, hi float64) {
	switch p.Op {
	case query.OpLT, query.OpLE:
		return 0, e.normalize(p.Col, p.Operand)
	case query.OpGT, query.OpGE:
		return e.normalize(p.Col, p.Operand), 1
	case query.OpEQ:
		x := e.normalize(p.Col, p.Operand)
		return x, x
	case query.OpIn:
		if len(p.InSet) == 0 {
			return 0, 1
		}
		mn, mx := p.InSet[0], p.InSet[0]
		for _, v := range p.InSet {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return e.normalize(p.Col, mn), e.normalize(p.Col, mx)
	default: // OpNE admits almost everything
		return 0, 1
	}
}

// normalize maps a column value into [0,1] using min/max statistics (the
// paper records operands "as float after normalization").
func (e *Encoder) normalize(c *catalog.Column, v int64) float64 {
	span := float64(c.Max - c.Min)
	if span <= 0 {
		return 0.5
	}
	x := (float64(v) - float64(c.Min)) / span
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// WithCards appends the normalized log cardinalities of a node's two
// children to its feature vector (leaves use the base-relation row count,
// matching §5.2: "for the leaf nodes, their real cardinalities are the
// number of tuples in the considered attributes").
func (e *Encoder) WithCards(feat tensor.Vec, leftCard, rightCard, logMax float64) tensor.Vec {
	out := make(tensor.Vec, len(feat)+2)
	copy(out, feat)
	out[len(feat)] = normLog(leftCard, logMax)
	out[len(feat)+1] = normLog(rightCard, logMax)
	return out
}

// EncodeCardsInto writes the two slots WithCards appends to a Dim()-wide
// feature vector into dst[Dim()] and dst[Dim()+1], allocating nothing;
// dst[:Dim()] is left as it is.
func (e *Encoder) EncodeCardsInto(dst tensor.Vec, leftCard, rightCard, logMax float64) {
	dst[e.Dim()] = normLog(leftCard, logMax)
	dst[e.Dim()+1] = normLog(rightCard, logMax)
}

func normLog(card, logMax float64) float64 {
	if card < 1 {
		card = 1
	}
	if logMax <= 0 {
		return 0
	}
	v := math.Log(card) / logMax
	if v > 1 {
		v = 1
	}
	return v
}
