package exec

import (
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// Zone-map scanning: when a table is sealed, its columns carry per-segment
// min/max zone maps (storage/segment.go). A reader with predicates on the
// table precomputes, per segment, whether any predicate is disproven by the
// zone map; the rows of pruned segments are never read, and the survivors
// are filtered and gathered from the table's columns like any other rows.
// Three readers prune: sequential scans skip whole segment runs, index
// scans drop the rids that land in pruned segments, and index nested loops
// reject the inner table's key matches that do.
//
// The contract with the equivalence suites: pruning changes which values
// are *read*, never which rows qualify or how much work is *charged* — a
// scan's per-chunk ctx.charge(hi-lo) counts every physical row in range,
// and an index nested loop charges each key match before testing it, so
// Work(), checkpoints, and budget errors are byte-identical to an unsealed
// table. Wall time, not work units, is where skipping pays.

// segPrune reports whether predicate p is disproven for every value in
// [mn, mx] — the zone-map test. It must only ever return a false negative
// (scanning a segment that contains no match is correct, skipping one that
// does is not).
func segPrune(p query.Predicate, mn, mx int64) bool {
	switch p.Op {
	case query.OpEQ:
		return p.Operand < mn || p.Operand > mx
	case query.OpNE:
		return mn == mx && mn == p.Operand
	case query.OpLT:
		return mn >= p.Operand
	case query.OpLE:
		return mn > p.Operand
	case query.OpGT:
		return mx <= p.Operand
	case query.OpGE:
		return mx < p.Operand
	case query.OpIn:
		for _, v := range p.InSet {
			if v >= mn && v <= mx {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// segScanState is the zone-map view one reader prunes through, built once
// in the reader's Open. A nil state prunes nothing.
type segScanState struct {
	segRows int
	prune   []bool // per segment: some predicate disproven
}

// newSegScanState returns the zone-map view for a scan with the given
// conjunctive predicates, or nil when nothing can be pruned: the table is
// unsealed (DML since the last stats refresh), there are no predicates
// (zone maps have nothing to act on), or the zone maps prune no segment
// at all (unselective predicates on this data).
//
// recordSkips controls the storage.segments_total / segments_skipped
// counters: sequential scans record them (a pruned segment is genuinely
// never visited); index scans and index nested loops do not, since they
// only touch indexed rids and use the zone maps per rid.
func newSegScanState(ctx *Ctx, t *storage.Table, preds []query.Predicate, recordSkips bool) *segScanState {
	if len(preds) == 0 || !t.Sealed() || t.SegRows() <= 0 || len(t.Cols) == 0 {
		return nil
	}
	zs := &segScanState{segRows: t.SegRows(), prune: make([]bool, len(t.Segments(0)))}
	skipped := 0
	for _, p := range preds {
		for g, sg := range t.Segments(p.Col.Pos) {
			if !zs.prune[g] && segPrune(p, sg.Min, sg.Max) {
				zs.prune[g] = true
				skipped++
			}
		}
	}
	if recordSkips {
		ctx.Metrics.Counter("storage.segments_total").Add(int64(len(zs.prune)))
		ctx.Metrics.Counter("storage.segments_skipped").Add(int64(skipped))
	}
	if skipped == 0 {
		return nil
	}
	return zs
}

// run returns the end of the segment run that starts at row lo, capped at
// hi, and whether that segment survives pruning. A nil state is one
// surviving run to hi.
func (zs *segScanState) run(lo, hi int) (end int, live bool) {
	if zs == nil {
		return hi, true
	}
	g := lo / zs.segRows
	return min(hi, (g+1)*zs.segRows), !zs.prune[g]
}

// pruned reports whether row r lies in a pruned segment. A nil state
// prunes nothing.
func (zs *segScanState) pruned(r int) bool {
	return zs != nil && zs.prune[r/zs.segRows]
}

// pruneSel drops the row ids that fall in pruned segments — the index
// scan's use of the zone maps: a rid inside a segment where some residual
// predicate is disproven is rejected without reading any column. A nil
// state keeps every id.
func (zs *segScanState) pruneSel(sel []int32) []int32 {
	if zs == nil {
		return sel
	}
	out := sel[:0]
	for _, r := range sel {
		if !zs.prune[int(r)/zs.segRows] {
			out = append(out, r)
		}
	}
	return out
}
