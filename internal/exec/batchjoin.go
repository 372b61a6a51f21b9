package exec

import (
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/storage"
)

// pendingCharger accumulates per-tuple work charges and flushes them as one
// lump, amortizing the charge call (and its budget/cancellation checks)
// over a batch. flushAt bounds how much work can accrue between flushes so
// cancellation latency stays close to one poll interval. The general hash
// join caps each candidate step at what is left below flushAt; the unique
// build's probe flushes after every probe batch, which adds at most
// BatchSize lookups and BatchSize matches, so at most 2 × BatchSize units
// accrue between a hash join's flushes (see BatchSize).
type pendingCharger struct {
	pending int64
}

const flushAt = BatchSize

func (p *pendingCharger) add(n int64) { p.pending += n }

func (p *pendingCharger) flush(ctx *Ctx) error {
	if p.pending == 0 {
		return nil
	}
	n := p.pending
	p.pending = 0
	return ctx.charge(n)
}

// flushIfFull flushes once the accumulated work exceeds flushAt.
func (p *pendingCharger) flushIfFull(ctx *Ctx) error {
	if p.pending < flushAt {
		return nil
	}
	return p.flush(ctx)
}

// batchHashJoin is the vectorized hash join: the build side is drained into
// a flat arena and indexed by a hashTable during Open (one pipeline breaker
// with a checkpoint), then probe batches stream from the left child. Each
// probe batch is hashed and looked up whole before any candidate is
// visited; a probe row's candidates are then one contiguous range of the
// table, and matches are emitted straight into the output arena. A
// single-condition join on a unique build (a dimension table's primary
// key) has at most one candidate per probe row, so it looks up and emits
// each probe batch in one loop instead (probeUnique), and a probe-only one
// whose every probe row matches returns the probe batch re-labelled.
//
// The join's left offsets (conds, merge) are in the probe side's logical
// layout; resolve maps them through each probe batch's column map into
// lconds and lmerge, which the probe loops read.
type batchHashJoin struct {
	node  *plan.Node
	left  BatchOperator
	right BatchOperator

	conds []condOffsets
	merge joinMerge
	// exact is set for at most one condition: equal hashes then mean equal
	// keys (see hashRowConds), so candidates need no condsEqual check
	exact bool
	// probeOnly is set when exact and every output column is read from the
	// probe row: each candidate then emits the same row, and the build rows
	// are never read
	probeOnly bool

	// conds and merge resolved against the current probe batch: the same
	// slices on a dense batch, else copies in lcondsBuf and lmergeBuf
	lconds    []condOffsets
	lmerge    joinMerge
	lcondsBuf []condOffsets
	lmergeBuf joinMerge

	rows  plan.Rows // build rows, in drain order
	table hashTable

	// probe state, persisted across NextBatch calls so one probe batch's
	// matches can span output batches
	probe    *Batch
	spans    []span  // candidate range of each probe row of the current batch
	spansBox *[]span // pooled backing of spans, BatchSize long
	pi       int     // probe rows whose range was taken
	cand     span    // unvisited candidates of probe row pi-1

	charges pendingCharger
	out     Batch
	view    Batch // a probe batch re-labelled (probeUnique's pass-through)
	count   int
}

func newBatchHashJoin(ctx *Ctx, n *plan.Node) (*batchHashJoin, error) {
	l, err := Build(ctx, n.Left)
	if err != nil {
		return nil, err
	}
	r, err := Build(ctx, n.Right)
	if err != nil {
		return nil, err
	}
	conds, err := resolveConds(ctx, n.JoinConds, n.Left.Tables, n.Right.Tables)
	if err != nil {
		return nil, err
	}
	merge := newJoinMerge(ctx, n.Left.Tables, n.Right.Tables)
	probeOnly := len(conds) <= 1
	for i, c := range merge.cols {
		// a single-condition join makes the build key equal to the probe
		// key, so an output column that is the build key is read from the
		// probe row instead
		if !c.fromLeft && len(conds) == 1 && c.off == conds[0].rightOff {
			merge.cols[i] = mergeCol{true, conds[0].leftOff}
		}
		probeOnly = probeOnly && merge.cols[i].fromLeft
	}
	return &batchHashJoin{
		node: n, left: l, right: r,
		conds: conds, merge: merge,
		exact: len(conds) <= 1, probeOnly: probeOnly,
	}, nil
}

func (h *batchHashJoin) Open(ctx *Ctx) (err error) {
	// A failed Open must leave the join releasable: drop the build arena and
	// table so Close after the failure frees memory instead of retaining a
	// half-initialized hash table.
	defer func() {
		if err != nil {
			h.release()
		}
	}()
	rows, err := drainBatch(ctx, h.node.Right, h.right)
	if err != nil {
		return err
	}
	// hashTable lists rows by int32 id; a build side at or beyond 2^31 rows
	// would silently wrap into corruption, so refuse it with a typed
	// resource error before building.
	if err = checkVecBuildSize(rows.N); err != nil {
		return err
	}
	if err = ctx.charge(int64(rows.N)); err != nil {
		return err
	}
	h.rows = rows
	h.table.build(rows, h.conds)
	// CHECK: the inner sub-plan is fully materialized; report its exact
	// cardinality (paper Figure 10a).
	if err = checkpoint(ctx, h.node.Right, rows); err != nil {
		return err
	}
	if err = h.left.Open(ctx); err != nil {
		return err
	}
	h.probe, h.pi, h.cand = nil, 0, span{}
	h.charges = pendingCharger{}
	h.count = 0
	return nil
}

// resolve maps the join's left condition and merge offsets through probe
// batch b's column map; on a dense batch they are used as they are.
func (h *batchHashJoin) resolve(b *Batch) {
	if b.cols == nil {
		h.lconds, h.lmerge = h.conds, h.merge
		return
	}
	if h.lmergeBuf.cols == nil {
		h.lcondsBuf = make([]condOffsets, len(h.conds))
		h.lmergeBuf.cols = make([]mergeCol, len(h.merge.cols))
	}
	for i, c := range h.conds {
		h.lcondsBuf[i] = condOffsets{b.cols[c.leftOff], c.rightOff}
	}
	for i, c := range h.merge.cols {
		if c.fromLeft {
			c.off = b.cols[c.off]
		}
		h.lmergeBuf.cols[i] = c
	}
	h.lconds, h.lmerge = h.lcondsBuf, h.lmergeBuf
}

// rowCap is the most rows an output batch takes: BatchSize, or
// zeroWidthRows when it only counts.
func (h *batchHashJoin) rowCap() int {
	if h.out.width == 0 {
		return zeroWidthRows
	}
	return BatchSize
}

func (h *batchHashJoin) NextBatch(ctx *Ctx) (*Batch, error) {
	h.out.reset(h.merge.width())
	if h.oneCandidate() {
		return h.nextUnique(ctx)
	}
	for {
		if h.probe != nil {
			h.emit()
			if h.out.n >= h.rowCap() {
				if err := h.charges.flush(ctx); err != nil {
					return nil, err
				}
				return &h.out, nil
			}
			if err := h.charges.flushIfFull(ctx); err != nil {
				return nil, err
			}
			if h.cand.lo < h.cand.hi || h.pi < h.probe.n {
				continue
			}
		}
		// pull the next probe batch; settle our charges first so work
		// stays monotone against the child's own lumps
		if err := h.charges.flush(ctx); err != nil {
			return nil, err
		}
		b, err := h.left.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			h.node.TrueCard = float64(h.count)
			if h.out.n > 0 {
				return &h.out, nil
			}
			return nil, nil
		}
		if h.spansBox == nil {
			h.spansBox = spanPool.get(BatchSize)
		}
		h.probe, h.pi, h.cand = b, 0, span{}
		h.spans = (*h.spansBox)[:b.n]
		h.resolve(b)
		h.table.lookupBatch(b, h.lconds, h.spans)
		h.charges.add(int64(b.n)) // 1 per probe row
	}
}

// oneCandidate reports whether the join takes the unique-build probe: with
// one condition equal hashes mean equal keys (see hashRowConds), so a
// unique build gives every probe row at most one candidate, a true match.
func (h *batchHashJoin) oneCandidate() bool {
	return len(h.conds) == 1 && h.table.unique
}

// nextUnique is NextBatch on a unique build: each probe batch is looked up
// and emitted whole by probeUnique and its charges flushed, before the
// output is returned or the next probe batch is pulled. A probe batch
// makes at most BatchSize output rows, so no cursor outlives the call.
func (h *batchHashJoin) nextUnique(ctx *Ctx) (*Batch, error) {
	for {
		b, err := h.left.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			h.node.TrueCard = float64(h.count)
			return nil, nil
		}
		h.resolve(b)
		out := h.probeUnique(b)
		if err := h.charges.flush(ctx); err != nil {
			return nil, err
		}
		if out.n > 0 {
			return out, nil
		}
	}
}

// probeUnique looks up every row of probe batch b and returns its matches:
// the projected probe rows for a probe-only join, else their merges with
// the one build row each; a zero-width output only counts. A key equal to
// the previous row's reuses its span, as in lookupBatch. Like emit it
// charges 1 per probe row and 1 per match.
//
// A probe-only join with output columns first looks rows up until one
// misses. If none does, the output is the probe batch itself, re-labelled:
// the view shares b's arena and stride, and its column map is the resolved
// merge's offsets, so no row is copied. A view is valid exactly as long as
// b, until this join's next NextBatch or Close. On the first miss, the
// rows matched so far are copied and the copy loop carries on. The three
// loops (count-only, pass-through, copy) are kept apart on purpose: one
// loop with a mode flag measured slower on every probe shape.
func (h *batchHashJoin) probeUnique(b *Batch) *Batch {
	t, out := &h.table, &h.out
	off, stride := h.lconds[0].leftOff, b.stride
	if out.width == 0 {
		var prev int64
		var sp span
		n := 0
		for i := range b.n {
			if k := b.data[i*stride+off]; i == 0 || k != prev {
				sp, prev = t.lookup(fnvStep(fnvOffsetBasis, k)), k
			}
			if sp.lo != sp.hi {
				n++
			}
		}
		return h.matched(b, out, n)
	}
	from, n := 0, 0
	if h.probeOnly {
		var prev int64
		var sp span
		i := 0
		for ; i < b.n; i++ {
			if k := b.data[i*stride+off]; i == 0 || k != prev {
				sp, prev = t.lookup(fnvStep(fnvOffsetBasis, k)), k
			}
			if sp.lo == sp.hi {
				break
			}
		}
		if i == b.n {
			return h.matched(b, h.passThrough(b), b.n)
		}
		ow := out.width
		for r := range i {
			h.lmerge.mergeFlat(out.data[r*ow:(r+1)*ow], b.row(r), nil)
		}
		from, n = i+1, i // row i missed
	}
	return h.matched(b, out, h.copyUnique(b, from, n))
}

// passThrough re-labels probe batch b as the join's output, a view of b's
// arena through the resolved merge's offsets.
func (h *batchHashJoin) passThrough(b *Batch) *Batch {
	v := &h.view
	if v.cols == nil {
		v.cols = make([]int, len(h.merge.cols))
	}
	for i, c := range h.lmerge.cols {
		v.cols[i] = c.off
	}
	v.width, v.stride, v.data = len(v.cols), b.stride, b.data
	return v
}

// copyUnique writes the matches of probe rows from..b.n-1 to the output
// batch from row n on, and returns the output's row count.
func (h *batchHashJoin) copyUnique(b *Batch, from, n int) int {
	t, out := &h.table, &h.out
	off, stride, ow := h.lconds[0].leftOff, b.stride, out.width
	var prev int64
	var sp span
	for i := from; i < b.n; i++ {
		if k := b.data[i*stride+off]; i == from || k != prev {
			sp, prev = t.lookup(fnvStep(fnvOffsetBasis, k)), k
		}
		if sp.lo == sp.hi {
			continue
		}
		dst := out.data[n*ow : (n+1)*ow]
		if h.probeOnly {
			h.lmerge.mergeFlat(dst, b.row(i), nil)
		} else {
			h.lmerge.mergeFlat(dst, b.row(i), h.rows.Row(int(t.order[sp.lo])))
		}
		n++
	}
	return n
}

// matched sets the output batch's row count to the n matches of probe
// batch b and charges 1 per probe row and 1 per match.
func (h *batchHashJoin) matched(b, out *Batch, n int) *Batch {
	out.n = n
	h.count += n
	h.charges.add(int64(b.n + n))
	return out
}

// emit visits the probe batch's candidates, charging 1 per candidate, until
// the output batch is full, the pending charges are due, or the probe batch
// is used up. A range is taken at most an output batch's worth, and at
// most what is left below flushAt, at a time. A zero-width output holds up
// to zeroWidthRows rows, so a count-only fan-out root returns few batches.
// The loop works on local copies of the cursors, which the compiler keeps
// in registers; they are stored back once at the end.
func (h *batchHashJoin) emit() {
	out := &h.out
	pi, cand := h.pi, h.cand
	spans, order, rows, exact := h.spans, h.table.order, h.rows, h.exact
	rowCap := h.rowCap()
	n0, visited, limit := out.n, 0, flushAt-int(h.charges.pending)
	for out.n < rowCap && visited < limit {
		if cand.lo == cand.hi {
			if pi == len(spans) {
				break
			}
			cand = spans[pi]
			pi++
			continue
		}
		n := min(int(cand.hi-cand.lo), rowCap-out.n, limit-visited)
		lo := cand.lo
		cand.lo += int32(n)
		visited += n
		probeRow := h.probe.row(pi - 1)
		if h.probeOnly {
			// every candidate matches and emits the same row: project it
			// once and replicate it (a COUNT(*) root only counts)
			h.lmerge.fillFlat(out.data[out.n*out.width:(out.n+n)*out.width], probeRow)
			out.n += n
			continue
		}
		for _, r := range order[lo : int(lo)+n] {
			row := rows.Row(int(r))
			if !exact && !condsEqual(h.lconds, probeRow, row) {
				continue // 64-bit hash collision
			}
			// a zero-width pushRow only counts: nothing is written
			h.lmerge.mergeFlat(out.pushRow(), probeRow, row)
		}
	}
	h.pi, h.cand = pi, cand
	h.charges.add(int64(visited))
	h.count += out.n - n0
}

func (h *batchHashJoin) Close() {
	h.left.Close()
	h.right.Close()
	h.release()
	h.out.release()
	h.view.release()
	spanPool.put(h.spansBox)
	h.spans, h.spansBox = nil, nil
}

func (h *batchHashJoin) release() {
	h.table.release()
	h.rows, h.probe = plan.Rows{}, nil
}

// batchNLJoin is the vectorized nested loop join. Following the paper's
// Figure 10(c), the outer (left) side is always materialized with a
// checkpoint — the one materialization the paper *adds* to PostgreSQL,
// acceptable because NL join is only chosen for small outer sides. Two inner
// strategies:
//   - index path: when the inner child is a base-table scan and a join
//     condition touches one of its columns, each outer row looks its key up
//     in the table's ordered index on that column (PostgreSQL's index
//     nested loop). A key match in a segment whose zone map disproves one
//     of the leaf's predicates is rejected without reading a column; it is
//     charged like any other;
//   - rescan path: otherwise the inner is materialized once and scanned per
//     outer row (PostgreSQL's Materialize node under a nest loop).
type batchNLJoin struct {
	node  *plan.Node
	left  BatchOperator
	right BatchOperator // nil on the index path

	conds []condOffsets
	merge joinMerge

	outer plan.Rows
	oi    int

	// index path
	idxTable   *storage.Table
	idxCol     int
	idxCondOff int
	idx        *storage.OrderedIndex // taken on the first probe of an Open
	zs         *segScanState         // the leaf's zone-map view; nil = nothing pruned
	idxMatches []int32
	mi         int
	innerCols  []int // live column positions of the inner table
	innerBuf   Tuple

	// rescan path
	inner plan.Rows
	ii    int

	charges pendingCharger
	out     Batch
	count   int
}

func newBatchNLJoin(ctx *Ctx, n *plan.Node) (*batchNLJoin, error) {
	l, err := Build(ctx, n.Left)
	if err != nil {
		return nil, err
	}
	conds, err := resolveConds(ctx, n.JoinConds, n.Left.Tables, n.Right.Tables)
	if err != nil {
		return nil, err
	}
	j := &batchNLJoin{
		node: n, left: l,
		conds: conds,
		merge: newJoinMerge(ctx, n.Left.Tables, n.Right.Tables),
	}
	// Index path: the inner is a base-table leaf and some equi-join
	// condition lands on one of its columns. The inner row is fetched in
	// the leaf's own layout, so rightOff indexes innerCols to recover the
	// probe column's table position.
	if n.Right.IsLeaf() && n.Right.Op != plan.MatScan && len(conds) > 0 {
		j.idxTable = ctx.DB.Table(n.Right.Table)
		j.innerCols = leafCols(ctx, n.Right)
		j.idxCol = j.innerCols[conds[0].rightOff]
		j.idxCondOff = conds[0].leftOff
		j.innerBuf = make(Tuple, len(j.innerCols))
		return j, nil
	}
	r, err := Build(ctx, n.Right)
	if err != nil {
		return nil, err
	}
	j.right = r
	return j, nil
}

func (j *batchNLJoin) Open(ctx *Ctx) (err error) {
	// Release both materialized sides if any Open step fails, mirroring
	// batchHashJoin.
	defer func() {
		if err != nil {
			j.outer, j.inner = plan.Rows{}, plan.Rows{}
		}
	}()
	// Materialize the outer side and CHECK it (paper Figure 10c).
	rows, err := drainBatch(ctx, j.node.Left, j.left)
	if err != nil {
		return err
	}
	j.outer = rows
	if err = checkpoint(ctx, j.node.Left, rows); err != nil {
		return err
	}
	if j.idxTable != nil {
		j.idx = nil
		j.zs = newSegScanState(ctx, j.idxTable, j.node.Right.Preds, false)
	} else {
		j.inner, err = drainBatch(ctx, j.node.Right, j.right)
		if err != nil {
			return err
		}
		if err = checkpoint(ctx, j.node.Right, j.inner); err != nil {
			return err
		}
	}
	j.oi, j.ii, j.mi = 0, 0, 0
	j.idxMatches = nil
	j.charges = pendingCharger{}
	j.count = 0
	return nil
}

func (j *batchNLJoin) NextBatch(ctx *Ctx) (*Batch, error) {
	j.out.reset(j.merge.width())
	if j.idxTable != nil {
		return j.nextIndexBatch(ctx)
	}
	return j.nextRescanBatch(ctx)
}

func (j *batchNLJoin) nextIndexBatch(ctx *Ctx) (*Batch, error) {
	for {
		for j.mi < len(j.idxMatches) {
			r := int(j.idxMatches[j.mi])
			j.mi++
			j.charges.add(1)
			if err := j.charges.flushIfFull(ctx); err != nil {
				return nil, err
			}
			if j.zs.pruned(r) || !rowMatches(j.idxTable, r, j.node.Right.Preds) {
				continue
			}
			fetchRow(j.innerBuf, j.idxTable, j.innerCols, r)
			cur := j.outer.Row(j.oi - 1)
			// the index probe only guarantees the first condition; the
			// inner tuple is the row in the leaf's own layout, so
			// condsEqual applies directly
			if !condsEqual(j.conds, cur, j.innerBuf) {
				continue
			}
			j.merge.mergeFlat(j.out.pushRow(), cur, j.innerBuf)
			j.count++
			if j.out.full() {
				if err := j.charges.flush(ctx); err != nil {
					return nil, err
				}
				return &j.out, nil
			}
		}
		if j.oi >= j.outer.N {
			if err := j.charges.flush(ctx); err != nil {
				return nil, err
			}
			j.node.TrueCard = float64(j.count)
			if j.out.n > 0 {
				return &j.out, nil
			}
			return nil, nil
		}
		cur := j.outer.Row(j.oi)
		j.oi++
		j.charges.add(2) // index probe
		// a run of outer rows without an index match must still reach the
		// budget and cancellation checks
		if err := j.charges.flushIfFull(ctx); err != nil {
			return nil, err
		}
		if j.idx == nil {
			j.idx = j.idxTable.OrderedIndex(j.idxCol)
		}
		k := cur[j.idxCondOff]
		j.idxMatches = j.idx.Range(k, k)
		j.mi = 0
	}
}

func (j *batchNLJoin) nextRescanBatch(ctx *Ctx) (*Batch, error) {
	for {
		if j.oi >= j.outer.N {
			if err := j.charges.flush(ctx); err != nil {
				return nil, err
			}
			j.node.TrueCard = float64(j.count)
			if j.out.n > 0 {
				return &j.out, nil
			}
			return nil, nil
		}
		cur := j.outer.Row(j.oi)
		for j.ii < j.inner.N {
			row := j.inner.Row(j.ii)
			j.ii++
			j.charges.add(1)
			if err := j.charges.flushIfFull(ctx); err != nil {
				return nil, err
			}
			if !condsEqual(j.conds, cur, row) {
				continue
			}
			j.merge.mergeFlat(j.out.pushRow(), cur, row)
			j.count++
			if j.out.full() {
				if err := j.charges.flush(ctx); err != nil {
					return nil, err
				}
				return &j.out, nil
			}
		}
		j.ii = 0
		j.oi++
	}
}

func (j *batchNLJoin) Close() {
	j.left.Close()
	if j.right != nil {
		j.right.Close()
	}
	j.outer, j.inner = plan.Rows{}, plan.Rows{}
	j.out.release()
}
