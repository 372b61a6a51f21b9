package exec

import (
	"math/bits"
	"sync"
)

// The executor's per-query buffers — batch arenas, hash-table slots and row
// order, the hash build's per-row slot scratch, selection vectors and probe
// spans — are recycled across executions through size-classed sync.Pools,
// so a short query does not pay for fresh memory, and the collector for
// freeing it, on every run. An operator takes a buffer when it first needs
// it (Open, or its first batch) and returns it exactly once in Close (or
// release), setting the field to nil so a second Close puts nothing. A
// pooled buffer comes back with another query's contents: hash slots are
// cleared on get, and every other buffer is fully written before it is read.
//
// This is what makes "a batch is valid until the next NextBatch or Close
// on its producer" load-bearing: once the producer closes, its arena may
// already belong to another query. drainBatch arenas (plan.Rows) are never
// pooled, because checkpoints hand them to the controller, which may keep
// them (the re-optimization controller's MatScan, the sample collector).
//
// sync.Pool drops idle buffers across garbage collections, so the pools
// need no size limit or knob.

var (
	int64Pool  bufPool[int64]    // Batch.data
	slotPool   bufPool[hashSlot] // hashTable.slots
	int32Pool  bufPool[int32]    // hashTable.order, scan selection vectors
	uint32Pool bufPool[uint32]   // hashTable.build's per-row slot scratch
	spanPool   bufPool[span]     // batchHashJoin.spans
)

// bufPool recycles []T buffers in power-of-two capacity classes: class c
// holds buffers of capacity exactly 1<<c. It stores *[]T boxes: the owner
// of a buffer keeps the box it got beside the slice it uses (data and box,
// sel and selBox, ...) and puts that same box back, so a put never
// allocates.
type bufPool[T any] struct {
	classes [bits.UintSize]sync.Pool
}

// get returns a box holding a buffer of length n with arbitrary contents.
func (p *bufPool[T]) get(n int) *[]T {
	c := bits.Len(uint(max(n, 1) - 1))
	if v := p.classes[c].Get(); v != nil {
		box := v.(*[]T)
		*box = (*box)[:n]
		return box
	}
	s := make([]T, n, 1<<c)
	return &s
}

// put returns a box obtained from get; nil is ignored.
func (p *bufPool[T]) put(box *[]T) {
	if box == nil {
		return
	}
	p.classes[bits.Len(uint(cap(*box)))-1].Put(box)
}
