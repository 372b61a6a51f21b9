package exec

import (
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// Zone-map scanning: when a table is sealed, its columns carry encoded
// segments with min/max zone maps (storage/segment.go). A predicated batch
// scan precomputes, per segment, whether any predicate is disproven by the
// zone map; pruned segments are skipped without decoding a single value,
// and surviving segments are filtered on their encoded form and gathered
// into the arena by selection vector (late materialization).
//
// The contract with the equivalence suites: pruning changes which values
// are *read*, never which rows qualify or how much work is *charged* — the
// per-chunk ctx.charge(hi-lo) counts every physical row in range, so
// Work(), checkpoints, and budget errors are byte-identical to the raw path.
// Wall time, not work units, is where skipping pays.

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

// segScanState is the segment view one batch scan operates through, built
// once in the scan's Open. Decode scratch lives on the operators, not here.
type segScanState struct {
	table   *storage.Table
	segRows int
	cols    [][]*storage.Segment // by column position
	prune   []bool               // per segment: some predicate disproven
	decoded *obs.Counter         // storage.bytes_decoded (nil-safe, atomic)
}

// newSegScanState returns the segment view for a scan with the given
// conjunctive predicates, or nil when the scan should use the raw columns:
// the table is unsealed (DML since the last
// stats refresh), there are no predicates (a full gather gains nothing
// over the raw alias — zone maps have nothing to act on), or the zone
// maps prune no segment at all (unselective predicates on this data; the
// encoded path would pay decode cost with nothing skipped to fund it).
//
// recordSkips controls the storage.segments_total / segments_skipped
// counters: sequential scans record them (a pruned segment is genuinely
// never visited); index scans do not, since they only touch indexed rids
// and use the zone maps per-rid.
func newSegScanState(ctx *Ctx, t *storage.Table, preds []query.Predicate, recordSkips bool) *segScanState {
	if len(preds) == 0 || !t.Sealed() || t.SegRows() <= 0 || len(t.Cols) == 0 {
		return nil
	}
	zs := &segScanState{
		table:   t,
		segRows: t.SegRows(),
		cols:    make([][]*storage.Segment, len(t.Cols)),
	}
	for c := range zs.cols {
		zs.cols[c] = t.Segments(c)
	}
	zs.prune = make([]bool, len(zs.cols[0]))
	skipped := 0
	for _, p := range preds {
		for g, sg := range zs.cols[p.Col.Pos] {
			if !zs.prune[g] && segPrune(p, sg.Min, sg.Max) {
				zs.prune[g] = true
				skipped++
			}
		}
	}
	reg := ctx.Metrics
	zs.decoded = reg.Counter("storage.bytes_decoded")
	if recordSkips {
		reg.Counter("storage.segments_total").Add(int64(len(zs.prune)))
		reg.Counter("storage.segments_skipped").Add(int64(skipped))
	}
	// When the zone maps disprove nothing, the segment path is pure decode
	// overhead over reading the raw columns — fall back. Results are
	// byte-identical either way (that is the whole contract); only wall
	// time differs, and it favors raw exactly when nothing prunes.
	if skipped == 0 {
		return nil
	}
	return zs
}

// selectRange is the segment-path counterpart of selectRange: it appends
// the row ids in [lo, hi) satisfying every predicate, skipping pruned
// segments outright and evaluating the first predicate on each surviving
// segment's encoded form (raw segments alias the column, so they filter in
// place; encoded ones decode the sub-range into buf first). The returned
// buf is the possibly-grown scratch for the caller to reuse.
func (zs *segScanState) selectRange(sel []int32, buf []int64, lo, hi int, preds []query.Predicate) ([]int32, []int64) {
	p0 := preds[0]
	segs0 := zs.cols[p0.Col.Pos]
	col0 := zs.table.Cols[p0.Col.Pos]
	var dec int64
	for g := lo / zs.segRows; g*zs.segRows < hi; g++ {
		if zs.prune[g] {
			continue
		}
		base := g * zs.segRows
		subLo := max(lo, base)
		subHi := min(hi, base+zs.segRows)
		if seg := segs0[g]; seg.Encoding() == storage.EncRaw {
			sel = filterRange(sel, col0, subLo, subHi, p0)
		} else {
			vals := seg.DecodeRange(buf, subLo-base, subHi-base)
			if cap(vals) > cap(buf) {
				buf = vals[:0]
			}
			dec += int64(8 * len(vals))
			sel = filterVals(sel, vals, subLo, p0)
		}
	}
	for _, p := range preds[1:] {
		sel = zs.filterSel(sel, p)
	}
	zs.decoded.Add(dec)
	return sel, buf
}

// pruneSel drops the row ids that fall in pruned segments — the index
// scan's use of the zone maps: a rid inside a segment where some residual
// predicate is disproven is rejected without reading any column.
func (zs *segScanState) pruneSel(sel []int32) []int32 {
	out := sel[:0]
	for _, r := range sel {
		if !zs.prune[int(r)/zs.segRows] {
			out = append(out, r)
		}
	}
	return out
}

// filterSel compacts sel in place, keeping the ids whose value — read
// through the segment layer — satisfies p. Mirrors filterSel's
// operator-outside-the-loop structure; Segment.Get is O(1) for every
// encoding, so scattered residual filtering stays cheap.
func (zs *segScanState) filterSel(sel []int32, p query.Predicate) []int32 {
	segs := zs.cols[p.Col.Pos]
	segRows := zs.segRows
	get := func(r int32) int64 {
		g := int(r) / segRows
		return segs[g].Get(int(r) - g*segRows)
	}
	out := sel[:0]
	switch p.Op {
	case query.OpEQ:
		for _, r := range sel {
			if get(r) == p.Operand {
				out = append(out, r)
			}
		}
	case query.OpNE:
		for _, r := range sel {
			if get(r) != p.Operand {
				out = append(out, r)
			}
		}
	case query.OpLT:
		for _, r := range sel {
			if get(r) < p.Operand {
				out = append(out, r)
			}
		}
	case query.OpLE:
		for _, r := range sel {
			if get(r) <= p.Operand {
				out = append(out, r)
			}
		}
	case query.OpGT:
		for _, r := range sel {
			if get(r) > p.Operand {
				out = append(out, r)
			}
		}
	case query.OpGE:
		for _, r := range sel {
			if get(r) >= p.Operand {
				out = append(out, r)
			}
		}
	default:
		for _, r := range sel {
			if p.Eval(get(r)) {
				out = append(out, r)
			}
		}
	}
	return out
}

// gather is the late-materialization counterpart of gatherRows: the given
// columns of the selected rows are decoded straight into the batch arena
// column by column, one Segment.Gather call per (column, segment run) so
// each run is a tight copy or unpack loop. Dead columns are never decoded.
func (zs *segScanState) gather(b *Batch, cols []int, sel []int32) {
	w := b.width
	segRows := zs.segRows
	var dec int64
	for k, c := range cols {
		segs := zs.cols[c]
		d := b.data[k:]
		// sel need not be sorted (index scans emit rids in index order), so
		// runs are maximal stretches of ids that happen to share a segment.
		for i := 0; i < len(sel); {
			g := int(sel[i]) / segRows
			j := i + 1
			for j < len(sel) && int(sel[j])/segRows == g {
				j++
			}
			seg := segs[g]
			seg.Gather(d[i*w:], w, sel[i:j], g*segRows)
			if seg.Encoding() != storage.EncRaw {
				dec += int64(8 * (j - i))
			}
			i = j
		}
	}
	b.n = len(sel)
	zs.decoded.Add(dec)
}

// filterVals appends base+i for every decoded value vals[i] satisfying p —
// filterRange over a decoded segment sub-range instead of a raw column.
func filterVals(sel []int32, vals []int64, base int, p query.Predicate) []int32 {
	switch p.Op {
	case query.OpEQ:
		for i, v := range vals {
			if v == p.Operand {
				sel = append(sel, int32(base+i))
			}
		}
	case query.OpNE:
		for i, v := range vals {
			if v != p.Operand {
				sel = append(sel, int32(base+i))
			}
		}
	case query.OpLT:
		for i, v := range vals {
			if v < p.Operand {
				sel = append(sel, int32(base+i))
			}
		}
	case query.OpLE:
		for i, v := range vals {
			if v <= p.Operand {
				sel = append(sel, int32(base+i))
			}
		}
	case query.OpGT:
		for i, v := range vals {
			if v > p.Operand {
				sel = append(sel, int32(base+i))
			}
		}
	case query.OpGE:
		for i, v := range vals {
			if v >= p.Operand {
				sel = append(sel, int32(base+i))
			}
		}
	default:
		for i, v := range vals {
			if p.Eval(v) {
				sel = append(sel, int32(base+i))
			}
		}
	}
	return sel
}
