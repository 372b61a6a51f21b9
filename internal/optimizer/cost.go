// Package optimizer implements the dynamic-programming plan enumerator and
// the cost model, mirroring PostgreSQL's approach (paper §6.1): enumeration
// proceeds level by level over connected relation subsets, each subset's
// cardinality is estimated once by the pluggable estimator, and physical
// join operators are costed from the estimated input/output cardinalities.
package optimizer

import "math"

// CostModel holds per-tuple cost constants calibrated against the execution
// engine's work charges (exec.Ctx.charge), so that estimated cost tracks
// actual execution effort when cardinalities are accurate.
type CostModel struct {
	SeqTuple    float64 // per tuple scanned sequentially
	IdxDescend  float64 // per index descent
	IdxTuple    float64 // per tuple fetched from an index
	HashBuild   float64 // per tuple inserted into a hash table
	HashProbe   float64 // per probe
	SortFactor  float64 // multiplier on n*log2(n) for sorts
	NLProbe     float64 // per outer tuple index probe in a nested loop
	NLPair      float64 // per (outer, inner) pair in a rescan nested loop
	OutputTuple float64 // per output tuple of any operator
	MatTuple    float64 // per tuple replayed from a materialized buffer
}

// DefaultCost returns the calibrated default cost model.
func DefaultCost() CostModel {
	return CostModel{
		SeqTuple:    1.0,
		IdxDescend:  16,
		IdxTuple:    1.0,
		HashBuild:   1.0,
		HashProbe:   1.0,
		SortFactor:  1.0,
		NLProbe:     2.0,
		NLPair:      1.0,
		OutputTuple: 1.0,
		MatTuple:    1.0,
	}
}

// SeqScanCost is the cost of a full scan of n rows.
func (c CostModel) SeqScanCost(n float64) float64 { return c.SeqTuple * n }

// IndexScanCost is the cost of fetching matches rows through an index.
func (c CostModel) IndexScanCost(matches float64) float64 {
	return c.IdxDescend + float64(c.IdxTuple*matches)
}

// MatScanCost is the cost of replaying a materialized intermediate.
func (c CostModel) MatScanCost(n float64) float64 { return c.MatTuple * n }

// HashJoinCost costs a hash join with build side cardR, probe side cardL.
func (c CostModel) HashJoinCost(cardL, cardR, out float64) float64 {
	return float64(c.HashBuild*cardR) + float64(c.HashProbe*cardL) + float64(c.OutputTuple*out)
}

// MergeJoinCost costs a sort-merge join over two unsorted inputs.
func (c CostModel) MergeJoinCost(cardL, cardR, out float64) float64 {
	return float64(c.SortFactor*(nLogN(cardL)+nLogN(cardR))) +
		float64(c.SeqTuple*(cardL+cardR)) + float64(c.OutputTuple*out)
}

// IndexNLJoinCost costs a nested loop whose inner side is probed through a
// base-table index: the inner table is never scanned in full.
func (c CostModel) IndexNLJoinCost(cardOuter, out float64) float64 {
	return float64(c.NLProbe*cardOuter) + float64(c.OutputTuple*out*1.5)
}

// RescanNLJoinCost costs the quadratic nested loop over materialized
// buffers.
func (c CostModel) RescanNLJoinCost(cardL, cardR, out float64) float64 {
	return float64(c.NLPair*cardL*cardR) + float64(c.OutputTuple*out)
}

func nLogN(n float64) float64 {
	if n < 2 {
		return 1
	}
	return n * math.Log2(n)
}
