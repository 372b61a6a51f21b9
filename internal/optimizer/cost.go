// Package optimizer implements the dynamic-programming plan enumerator and
// the cost model, mirroring PostgreSQL's approach (paper §6.1): enumeration
// proceeds level by level over connected relation subsets, each subset's
// cardinality is estimated once by the pluggable estimator, and physical
// join operators are costed from the estimated input/output cardinalities.
package optimizer

// Per-tuple cost constants, calibrated against the execution engine's work
// charges (exec.Ctx.charge), so that estimated cost tracks actual execution
// effort when cardinalities are accurate.
const (
	seqTuple    = 1.0 // per tuple scanned sequentially
	idxDescend  = 16  // per index descent
	idxTuple    = 1.0 // per tuple fetched from an index
	hashBuild   = 1.0 // per tuple inserted into a hash table
	hashProbe   = 1.0 // per probe
	nlProbe     = 2.0 // per outer tuple index probe in a nested loop
	nlPair      = 1.0 // per (outer, inner) pair in a rescan nested loop
	outputTuple = 1.0 // per output tuple of any operator
	matTuple    = 1.0 // per tuple replayed from a materialized buffer
)

// Every product that feeds a sum below is written float64(a*b), which keeps
// the compiler from fusing it with the add into one rounding: arm64 would
// otherwise cost plans differently from amd64.

// seqScanCost is the cost of a full scan of n rows.
func seqScanCost(n float64) float64 { return seqTuple * n }

// indexScanCost is the cost of fetching matches rows through an index.
func indexScanCost(matches float64) float64 {
	return idxDescend + float64(idxTuple*matches)
}

// matScanCost is the cost of replaying a materialized intermediate.
func matScanCost(n float64) float64 { return matTuple * n }

// hashJoinCost costs a hash join with build side cardR, probe side cardL.
func hashJoinCost(cardL, cardR, out float64) float64 {
	return float64(hashBuild*cardR) + float64(hashProbe*cardL) + float64(outputTuple*out)
}

// indexNLJoinCost costs a nested loop whose inner side is probed through a
// base-table index: the inner table is never scanned in full.
func indexNLJoinCost(cardOuter, out float64) float64 {
	return float64(nlProbe*cardOuter) + float64(outputTuple*out*1.5)
}

// rescanNLJoinCost costs the quadratic nested loop over materialized
// buffers.
func rescanNLJoinCost(cardL, cardR, out float64) float64 {
	return float64(nlPair*cardL*cardR) + float64(outputTuple*out)
}
