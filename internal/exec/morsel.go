package exec

import (
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/storage"
)

// morselSize is the number of source units (physical rows, index rids, or
// materialized/outer rows) per morsel. It is a multiple of BatchSize so a
// replica scan's per-chunk work charges lump exactly like the serial scan's,
// and it is independent of the worker count so the recorded charge sequence
// — and therefore every observable — is identical for any Workers value.
// Tests shrink it to exercise multi-morsel runs on small tables.
var morselSize = 4 * BatchSize

// SetMorselSize overrides the morsel granularity and returns a function
// restoring the previous value. It exists for cross-package tests that need
// multi-morsel scheduling on tiny fixtures; production code never calls it,
// and it must not be called while executions are in flight.
func SetMorselSize(n int) (restore func()) {
	old := morselSize
	morselSize = n
	return func() { morselSize = old }
}

// SetExchangeWorkerCap overrides the GOMAXPROCS clamp on exchange workers
// and returns a function restoring the previous value. It exists for tests
// that must exercise genuinely concurrent replica pipelines regardless of
// the host's core count (results are identical either way — that is the
// property under test); production code never calls it. The cap also bounds
// buildVecTable's workers and forwards to storage.SetSealWorkerCap, so one
// hook governs every parallel path whose output must match serial.
func SetExchangeWorkerCap(n int) (restore func()) {
	old := exchangeWorkerCap
	exchangeWorkerCap = n
	restoreSeal := storage.SetSealWorkerCap(n)
	return func() {
		exchangeWorkerCap = old
		restoreSeal()
	}
}

// morselSource is a batch operator whose output can be split into morsels:
// contiguous ranges of source units, each surfaced as an independent
// BatchOperator stream. morselUnits and morselReplica are only called after
// the source's Open has succeeded; replicas are born open — their Open and
// Close are never called — and concatenating the replica streams for
// [0,k), [k,m), ... [n,units) in range order reproduces the serial stream
// byte for byte, including the per-chunk work charges.
type morselSource interface {
	BatchOperator
	// morselUnits reports the total number of splittable source units.
	morselUnits() int
	// morselReplica returns an operator streaming units [lo, hi). The
	// replica must not share mutable state with the source or any other
	// replica; plan-node stamps go to a private shadow node and are
	// discarded (the exchange stamps the real nodes from aggregated counts).
	morselReplica(lo, hi int) BatchOperator
}

func (s *batchSeqScan) morselUnits() int { return s.table.NumRows() }

// morselReplica shares the segment view (zone-map pruning decisions) built
// by the source's serial Open; decode scratch and selection vectors are
// replica-private.
func (s *batchSeqScan) morselReplica(lo, hi int) BatchOperator {
	shadow := *s.node
	return &batchSeqScan{node: &shadow, table: s.table, cols: s.cols, zs: s.zs, row: lo, end: hi}
}

func (s *batchIndexScan) morselUnits() int { return len(s.rids) }

// morselReplica shares the resolved rids and residual predicates read-only;
// the 16-unit index-descent charge stays with the source's serial Open.
func (s *batchIndexScan) morselReplica(lo, hi int) BatchOperator {
	shadow := *s.node
	return &batchIndexScan{node: &shadow, table: s.table, cols: s.cols, zs: s.zs, rids: s.rids, rest: s.rest, pos: lo, end: hi}
}

func (s *batchMatScan) morselUnits() int { return len(s.node.Mat.Rows) }

func (s *batchMatScan) morselReplica(lo, hi int) BatchOperator {
	shadow := *s.node
	return &batchMatScan{node: &shadow, width: s.width, pos: lo, end: hi}
}

// batchNLJoin is a morsel source over its materialized outer side: both
// pipeline breakers (outer drain, and inner drain or index) complete during
// the serial Open, so the remaining probe work partitions cleanly by outer
// row.
func (j *batchNLJoin) morselUnits() int { return len(j.outer) }

func (j *batchNLJoin) morselReplica(lo, hi int) BatchOperator {
	shadow := *j.node
	r := &batchNLJoin{
		node:  &shadow,
		conds: j.conds, merge: j.merge,
		outer:      j.outer[lo:hi],
		inner:      j.inner,
		idxTable:   j.idxTable,
		idxCol:     j.idxCol,
		idxCondOff: j.idxCondOff,
		innerCols:  j.innerCols,
	}
	if j.idxTable != nil {
		r.innerBuf = make(Tuple, len(j.innerBuf))
	}
	return r
}

// probeReplica clones a hash join's probe stage over a replica left child:
// the build arena, vecTable, conditions, and merge plan are shared read-only
// while all probe-side state (probe cursor, chain cursor, pending charges,
// output arena) is private. The replica is born open; its right child is nil
// and never touched because builds happen only in Open.
func (h *batchHashJoin) probeReplica(left BatchOperator) *batchHashJoin {
	shadow := *h.node
	return &batchHashJoin{
		node: &shadow, left: left,
		conds: h.conds, merge: h.merge,
		rows: h.rows, table: h.table,
		chain: -1,
	}
}

// pipeNode is one stage of an extracted streaming pipeline, bottom (source)
// first. op is the unwrapped operator; shim is the tracing wrapper that
// surrounded it, if any, so the exchange can stamp aggregated stats into the
// trace at exhaustion.
type pipeNode struct {
	op   BatchOperator
	shim *tracedOp
	plan *plan.Node
}

// extractPipeline walks a built (and opened) batch operator tree down its
// streaming edge — hash joins stream their left child; every other operator
// either is a source or materializes its children in Open — and returns the
// pipeline stages bottom-up plus the morsel source at the bottom. It returns
// ok=false when any stage is not morsel-aware (operators replaced by a
// WrapFunc, merge joins), in which case the caller keeps the serial path.
func extractPipeline(op BatchOperator) ([]pipeNode, morselSource, bool) {
	var rev []pipeNode
	cur := op
	for {
		var shim *tracedOp
		if t, ok := cur.(*tracedOp); ok {
			shim = t
			cur = t.inner
		}
		switch v := cur.(type) {
		case *batchHashJoin:
			rev = append(rev, pipeNode{op: v, shim: shim, plan: v.node})
			cur = v.left
		case *batchSeqScan:
			return pipelineOrder(rev, pipeNode{op: v, shim: shim, plan: v.node}), v, true
		case *batchIndexScan:
			return pipelineOrder(rev, pipeNode{op: v, shim: shim, plan: v.node}), v, true
		case *batchMatScan:
			return pipelineOrder(rev, pipeNode{op: v, shim: shim, plan: v.node}), v, true
		case *batchNLJoin:
			return pipelineOrder(rev, pipeNode{op: v, shim: shim, plan: v.node}), v, true
		default:
			return nil, nil, false
		}
	}
}

// pipelineOrder reverses the top-down stage list collected by
// extractPipeline into bottom-up order, with the source prepended.
func pipelineOrder(rev []pipeNode, src pipeNode) []pipeNode {
	out := make([]pipeNode, 0, len(rev)+1)
	out = append(out, src)
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// buildReplicaChain assembles one morsel's replica pipeline: a source
// replica for units [lo, hi), each upper hash-join stage cloned via
// probeReplica, and a counting shim per stage so the worker can report
// per-node row/batch counts for the coordinator to aggregate.
func buildReplicaChain(pipe []pipeNode, src morselSource, lo, hi int) (BatchOperator, []*replicaShim) {
	shims := make([]*replicaShim, len(pipe))
	cur := BatchOperator(src.morselReplica(lo, hi))
	shims[0] = &replicaShim{inner: cur}
	cur = shims[0]
	for i := 1; i < len(pipe); i++ {
		j := pipe[i].op.(*batchHashJoin)
		shims[i] = &replicaShim{inner: j.probeReplica(cur)}
		cur = shims[i]
	}
	return cur, shims
}

// replicaShim counts rows and batches flowing out of one replica pipeline
// stage. It is worker-local; the exchange coordinator sums the counts across
// morsels to stamp TrueCard and trace stats exactly as the serial operators
// would have.
type replicaShim struct {
	inner   BatchOperator
	rows    int64
	batches int64
}

func (s *replicaShim) Open(ctx *Ctx) error { return s.inner.Open(ctx) }

func (s *replicaShim) NextBatch(ctx *Ctx) (*Batch, error) {
	b, err := s.inner.NextBatch(ctx)
	if b != nil {
		s.rows += int64(b.n)
		s.batches++
	}
	return b, err
}

func (s *replicaShim) Close() { s.inner.Close() }
