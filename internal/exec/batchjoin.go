package exec

import (
	"sort"

	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/storage"
)

// pendingCharger accumulates per-tuple work charges and flushes them as one
// lump, amortizing the charge call (and its budget/cancellation checks)
// over a batch. flushAt bounds how much work can accrue between flushes so
// cancellation latency stays close to one poll interval.
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
// a flat arena and indexed by a vecTable during Open (one pipeline breaker
// with a checkpoint), then probe batches
// stream from the left child and matches are emitted straight into the
// output arena.
type batchHashJoin struct {
	node  *plan.Node
	left  BatchOperator
	right BatchOperator

	conds []condOffsets
	merge joinMerge

	rows  [][]int64 // build rows, views into one flat arena
	table *vecTable

	// probe state, persisted across NextBatch calls so a long match chain
	// can span output batches
	probe *Batch
	pi    int   // rows of probe consumed
	chain int32 // current candidate chain cursor, -1 when none

	charges pendingCharger
	out     Batch
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
	return &batchHashJoin{
		node: n, left: l, right: r,
		conds: conds,
		merge: newJoinMerge(ctx, n.Left.Tables, n.Right.Tables),
	}, nil
}

func (h *batchHashJoin) Open(ctx *Ctx) (err error) {
	// A failed Open must leave the join releasable: drop the build arena and
	// table so Close after the failure frees memory instead of retaining a
	// half-initialized hash table.
	defer func() {
		if err != nil {
			h.rows, h.table = nil, nil
		}
	}()
	rows, err := drainBatch(ctx, h.node.Right, h.right)
	if err != nil {
		return err
	}
	// vecTable chains rows with int32 links; a build side at or beyond 2^31
	// rows would silently wrap into corruption, so refuse it with a typed
	// resource error before building.
	if err = checkVecBuildSize(len(rows)); err != nil {
		return err
	}
	if err = ctx.charge(int64(len(rows))); err != nil {
		return err
	}
	h.rows = rows
	h.table = buildVecTable(ctx, rows, h.conds)
	// CHECK: the inner sub-plan is fully materialized; report its exact
	// cardinality (paper Figure 10a).
	if err = checkpoint(ctx, h.node.Right, rows); err != nil {
		return err
	}
	if err = h.left.Open(ctx); err != nil {
		return err
	}
	h.probe, h.pi, h.chain = nil, 0, -1
	h.charges = pendingCharger{}
	h.count = 0
	return nil
}

func (h *batchHashJoin) NextBatch(ctx *Ctx) (*Batch, error) {
	h.out.reset(h.merge.width())
	for {
		// walk the current probe row's candidate chain
		if h.chain != -1 {
			probeRow := h.probe.Row(h.pi - 1)
			for h.chain != -1 {
				r := h.chain
				h.chain = h.table.next[r]
				h.charges.add(1)
				if err := h.charges.flushIfFull(ctx); err != nil {
					return nil, err
				}
				row := h.rows[r]
				if !condsEqual(h.conds, probeRow, row) {
					continue // hash collision
				}
				h.merge.mergeFlat(h.out.pushRow(), probeRow, row)
				h.count++
				if h.out.full() {
					if err := h.charges.flush(ctx); err != nil {
						return nil, err
					}
					return &h.out, nil
				}
			}
		}
		// advance within the current probe batch
		if h.probe != nil && h.pi < h.probe.n {
			row := h.probe.Row(h.pi)
			h.pi++
			h.charges.add(1)
			h.chain = h.table.lookup(hashRowConds(row, h.conds, true))
			continue
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
		h.probe, h.pi = b, 0
	}
}

func (h *batchHashJoin) Close() {
	h.left.Close()
	h.right.Close()
	h.rows, h.table = nil, nil
}

// batchMergeJoin sorts both drained inputs during Open (two pipeline
// breakers, each with a checkpoint) and emits the cross product of matching
// key groups batch-at-a-time.
type batchMergeJoin struct {
	node  *plan.Node
	left  BatchOperator
	right BatchOperator

	conds []condOffsets
	merge joinMerge

	lrows, rrows [][]int64
	li, ri       int

	groupL, groupR [][]int64
	gi, gj         int

	charges pendingCharger
	out     Batch
	count   int
}

func newBatchMergeJoin(ctx *Ctx, n *plan.Node) (*batchMergeJoin, error) {
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
	return &batchMergeJoin{
		node: n, left: l, right: r,
		conds: conds,
		merge: newJoinMerge(ctx, n.Left.Tables, n.Right.Tables),
	}, nil
}

func (m *batchMergeJoin) Open(ctx *Ctx) (err error) {
	// Release both sorted buffers if any Open step fails, mirroring
	// batchHashJoin: Close after a failed Open must not retain arenas.
	defer func() {
		if err != nil {
			m.lrows, m.rrows = nil, nil
		}
	}()
	m.lrows, err = drainBatch(ctx, m.node.Left, m.left)
	if err != nil {
		return err
	}
	if err := ctx.charge(sortCost(len(m.lrows))); err != nil {
		return err
	}
	sort.Slice(m.lrows, func(i, j int) bool { return condsLess(m.conds, m.lrows[i], m.lrows[j], true) })
	// CHECK after the outer sort completes (paper Figure 10b).
	if err := checkpoint(ctx, m.node.Left, m.lrows); err != nil {
		return err
	}

	m.rrows, err = drainBatch(ctx, m.node.Right, m.right)
	if err != nil {
		return err
	}
	if err := ctx.charge(sortCost(len(m.rrows))); err != nil {
		return err
	}
	sort.Slice(m.rrows, func(i, j int) bool { return condsLess(m.conds, m.rrows[i], m.rrows[j], false) })
	// CHECK after the inner sort completes.
	if err := checkpoint(ctx, m.node.Right, m.rrows); err != nil {
		return err
	}

	m.li, m.ri = 0, 0
	m.groupL, m.groupR = nil, nil
	m.gi, m.gj = 0, 0
	m.charges = pendingCharger{}
	m.count = 0
	return nil
}

func (m *batchMergeJoin) NextBatch(ctx *Ctx) (*Batch, error) {
	m.out.reset(m.merge.width())
	for {
		// emit the cross product of the current key group
		if m.gi < len(m.groupL) {
			l := m.groupL[m.gi]
			r := m.groupR[m.gj]
			m.gj++
			if m.gj >= len(m.groupR) {
				m.gj = 0
				m.gi++
			}
			m.charges.add(1)
			m.merge.mergeFlat(m.out.pushRow(), l, r)
			m.count++
			if m.out.full() {
				if err := m.charges.flush(ctx); err != nil {
					return nil, err
				}
				return &m.out, nil
			}
			continue
		}
		// advance to the next matching key group
		if m.li >= len(m.lrows) || m.ri >= len(m.rrows) {
			if err := m.charges.flush(ctx); err != nil {
				return nil, err
			}
			m.node.TrueCard = float64(m.count)
			if m.out.n > 0 {
				return &m.out, nil
			}
			return nil, nil
		}
		m.charges.add(1)
		if err := m.charges.flushIfFull(ctx); err != nil {
			return nil, err
		}
		switch condsCompare(m.conds, m.lrows[m.li], m.rrows[m.ri]) {
		case -1:
			m.li++
		case 1:
			m.ri++
		default:
			l0, r0 := m.li, m.ri
			for m.li < len(m.lrows) && condsSameKey(m.conds, m.lrows[l0], m.lrows[m.li], true) {
				m.li++
			}
			for m.ri < len(m.rrows) && condsSameKey(m.conds, m.rrows[r0], m.rrows[m.ri], false) {
				m.ri++
			}
			m.groupL = m.lrows[l0:m.li]
			m.groupR = m.rrows[r0:m.ri]
			m.gi, m.gj = 0, 0
		}
	}
}

func (m *batchMergeJoin) Close() {
	m.left.Close()
	m.right.Close()
	m.lrows, m.rrows = nil, nil
}

// batchNLJoin is the vectorized nested loop join. Following the paper's
// Figure 10(c), the outer (left) side is always materialized with a
// checkpoint — the one materialization the paper *adds* to PostgreSQL,
// acceptable because NL join is only chosen for small outer sides. Two inner
// strategies:
//   - index path: when the inner child is a base-table scan and a join
//     condition touches one of its columns, each outer row probes the
//     table's hash index (PostgreSQL's index nested loop);
//   - rescan path: otherwise the inner is materialized once and scanned per
//     outer row (PostgreSQL's Materialize node under a nest loop).
type batchNLJoin struct {
	node  *plan.Node
	left  BatchOperator
	right BatchOperator // nil on the index path

	conds []condOffsets
	merge joinMerge

	outer [][]int64
	oi    int

	// index path
	idxTable   *storage.Table
	idxCol     int
	idxCondOff int
	idxMatches []int32
	mi         int
	innerCols  []int // live column positions of the inner table
	innerBuf   Tuple

	// rescan path
	inner [][]int64
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
			j.outer, j.inner = nil, nil
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
	if j.idxTable == nil {
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
			if !rowMatches(j.idxTable, r, j.node.Right.Preds) {
				continue
			}
			fetchRow(j.innerBuf, j.idxTable, j.innerCols, r)
			cur := j.outer[j.oi-1]
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
		if j.oi >= len(j.outer) {
			if err := j.charges.flush(ctx); err != nil {
				return nil, err
			}
			j.node.TrueCard = float64(j.count)
			if j.out.n > 0 {
				return &j.out, nil
			}
			return nil, nil
		}
		cur := j.outer[j.oi]
		j.oi++
		j.charges.add(2) // index probe
		j.idxMatches = j.idxTable.HashIndex(j.idxCol).Lookup(cur[j.idxCondOff])
		j.mi = 0
	}
}

func (j *batchNLJoin) nextRescanBatch(ctx *Ctx) (*Batch, error) {
	for {
		if j.oi >= len(j.outer) {
			if err := j.charges.flush(ctx); err != nil {
				return nil, err
			}
			j.node.TrueCard = float64(j.count)
			if j.out.n > 0 {
				return &j.out, nil
			}
			return nil, nil
		}
		cur := j.outer[j.oi]
		for j.ii < len(j.inner) {
			row := j.inner[j.ii]
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
	j.outer, j.inner = nil, nil
}

// sortCost is the work charged for sorting n buffered rows: n·⌊log2 n⌋,
// at least 1.
func sortCost(n int) int64 {
	if n <= 1 {
		return 1
	}
	c := int64(n)
	bits := int64(0)
	for x := n; x > 1; x >>= 1 {
		bits++
	}
	return c * bits
}
