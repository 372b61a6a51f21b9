// Package histogram implements the PostgreSQL-style statistics-based
// cardinality estimator that serves as the engine's built-in baseline (the
// paper's "PostgreSQL" rows): per-column most-common-value lists and
// equi-depth histograms combined under the attribute-independence
// assumption, with the textbook 1/max(ndv) equi-join selectivity. On the
// skewed, correlated IMDB-like data these assumptions fail in exactly the
// ways the paper exploits, producing order-of-magnitude errors on deep
// joins.
package histogram

import (
	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// Stats holds statistics for every column of a database, i.e. the result of
// the paper's ANALYZE warm-up step. The per-column statistics are built by
// the storage layer (storage.ColStats) when a table is sealed.
type Stats struct {
	cols map[int]*storage.ColStats // keyed by catalog.Column.GlobalID
}

// Analyze gathers the statistics of every column: the seal-time ones of
// sealed tables, fresh ones for tables not sealed since their last append.
func Analyze(db *storage.Database) *Stats {
	s := &Stats{cols: make(map[int]*storage.ColStats)}
	for _, t := range db.Tables {
		if t == nil {
			continue
		}
		for pos, meta := range t.Meta.Columns {
			s.cols[meta.GlobalID] = t.ColStats(pos)
		}
	}
	return s
}

// Col returns the statistics for a column, or nil.
func (s *Stats) Col(c *catalog.Column) *storage.ColStats { return s.cols[c.GlobalID] }

// eqSel estimates the selectivity of col = v.
func eqSel(cs *storage.ColStats, v int64) float64 {
	for i, mv := range cs.MCVVals {
		if mv == v {
			return cs.MCVFreqs[i]
		}
	}
	restNDV := cs.NDV - len(cs.MCVVals)
	if restNDV <= 0 {
		return 0
	}
	return (1 - cs.MCVFrac) / float64(restNDV)
}

// ltSel estimates the selectivity of col < v (strict).
func ltSel(cs *storage.ColStats, v int64) float64 {
	var sel float64
	for i, mv := range cs.MCVVals {
		if mv < v {
			sel += cs.MCVFreqs[i]
		}
	}
	sel += float64((1 - cs.MCVFrac) * histFracBelow(cs.Bounds, v)) // no fused multiply-add: same bits on every CPU
	return clamp01(sel)
}

// histFracBelow returns the fraction of histogram-covered values strictly
// below v, with linear interpolation inside the containing bucket b.
func histFracBelow(b []int64, v int64) float64 {
	if len(b) < 2 {
		return 0.5
	}
	if v <= b[0] {
		return 0
	}
	if v > b[len(b)-1] {
		return 1
	}
	nb := len(b) - 1
	for i := 0; i < nb; i++ {
		lo, hi := b[i], b[i+1]
		if v > hi {
			continue
		}
		frac := float64(i) / float64(nb)
		if hi > lo {
			frac += (float64(v-lo) / float64(hi-lo)) / float64(nb)
		}
		return clamp01(frac)
	}
	return 1
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Selectivity estimates the fraction of rows satisfying the predicate.
func (s *Stats) Selectivity(p query.Predicate) float64 {
	cs := s.Col(p.Col)
	if cs == nil || cs.RowCount == 0 {
		return 1
	}
	switch p.Op {
	case query.OpEQ:
		return eqSel(cs, p.Operand)
	case query.OpNE:
		return clamp01(1 - eqSel(cs, p.Operand))
	case query.OpLT:
		return ltSel(cs, p.Operand)
	case query.OpLE:
		return clamp01(ltSel(cs, p.Operand) + eqSel(cs, p.Operand))
	case query.OpGT:
		return clamp01(1 - ltSel(cs, p.Operand) - eqSel(cs, p.Operand))
	case query.OpGE:
		return clamp01(1 - ltSel(cs, p.Operand))
	case query.OpIn:
		var sel float64
		for _, v := range p.InSet {
			sel += eqSel(cs, v)
		}
		return clamp01(sel)
	default:
		return 1
	}
}

// Estimator is the histogram-based cardinality estimator.
type Estimator struct {
	DB    *storage.Database
	Stats *Stats
}

// NewEstimator analyzes db and returns the estimator.
func NewEstimator(db *storage.Database) *Estimator {
	return &Estimator{DB: db, Stats: Analyze(db)}
}

// Name implements cardest.Estimator.
func (e *Estimator) Name() string { return "postgres" }

// EstimateSubset multiplies filtered base-table cardinalities by the
// independence-assumption join selectivities of every join condition inside
// the subset.
func (e *Estimator) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	card := 1.0
	for _, i := range mask.Indices() {
		t := q.Tables[i]
		rows := float64(e.DB.Table(t).NumRows())
		sel := 1.0
		for _, p := range q.PredsOn(t) {
			sel *= e.Stats.Selectivity(p)
		}
		card *= rows * sel
	}
	for _, j := range q.JoinsWithin(mask) {
		ls, rs := e.Stats.Col(j.Left), e.Stats.Col(j.Right)
		ndv := 1
		if ls != nil && ls.NDV > ndv {
			ndv = ls.NDV
		}
		if rs != nil && rs.NDV > ndv {
			ndv = rs.NDV
		}
		card /= float64(ndv)
	}
	if card < 1 {
		card = 1
	}
	return card
}
