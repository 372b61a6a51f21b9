package exec

import (
	"math"

	"github.com/lpce-db/lpce/internal/plan"
)

// hashTable is the hash join's build table, grouped by key hash: an
// open-addressing array of slots, probed linearly on the full 64-bit key
// hash, and order, the build row ids listed group by group. A group is the
// set of build rows sharing one full hash (equal keys, or rare 64-bit
// collisions); its rows are order[lo:hi] of its slot, in build insertion
// order. A probe therefore reads one slot and then one contiguous range of
// candidates — independent loads, not a pointer chase — and visits exactly
// the candidates sharing its hash, in build order, which keeps output row
// order and per-candidate work charges independent of the layout.
//
// Only order is permuted: the build rows themselves stay in drain order, so
// the intermediate handed to the checkpoint is unchanged. The slot array is
// sized to at most half full, so every probe walk ends at an empty slot.
//
// unique is set when every group holds one row — no two build rows share a
// hash, so none share a key, as on a primary key. A probe row then has at
// most one candidate, and the single-condition hash join emits straight
// from the lookup (batchHashJoin.probeUnique), or, probe-only and with
// every probe row matched, passes the probe batch through re-labelled.
//
// Both arrays are pooled (see pool.go); release returns them.
type hashTable struct {
	mask   uint64
	slots  []hashSlot
	order  []int32
	unique bool

	slotsBox *[]hashSlot
	orderBox *[]int32
}

// hashSlot maps one full key hash to its group's range of order. Every
// group holds at least one row, so hi == 0 marks an empty slot. Hash and
// range share one 16-byte struct so a lookup reads one cache line.
type hashSlot struct {
	hash uint64
	span
}

// span is a group's candidate range, order[lo:hi]; an absent hash yields
// the empty span.
type span struct{ lo, hi int32 }

// maxVecBuildRows is the largest build side a hashTable can index: row ids
// and group offsets are int32, so one more row than MaxInt32 would wrap them
// into silent corruption.
const maxVecBuildRows = math.MaxInt32

// checkVecBuildSize guards the int32 row ids of hashTable: a build side
// beyond maxVecBuildRows fails with a typed *ResourceError (consistent with
// the budget errors) instead of corrupting the table.
func checkVecBuildSize(n int) error {
	if int64(n) > maxVecBuildRows {
		return &ResourceError{Resource: "hash-build-rows", Limit: maxVecBuildRows, Used: int64(n)}
	}
	return nil
}

// build indexes rows on the right-side join keys of conds, taking the slot
// array, order and the per-row slot scratch from the pools; the scratch goes
// back before build returns. A table must be released before it is rebuilt.
//
// Three passes: place each row's hash in a slot, counting rows per slot;
// lay the groups out back to back in slot order, counting them; then a
// stable counting sort writes each row id at its group's cursor, in build
// order. As many groups as rows makes the table unique.
func (t *hashTable) build(rows plan.Rows, conds []condOffsets) {
	n := rows.N
	size := 2
	for size < 2*n {
		size <<= 1
	}
	mask := uint64(size - 1)
	t.slotsBox = slotPool.get(size)
	slots := *t.slotsBox
	clear(slots)
	t.orderBox = int32Pool.get(n)
	order := *t.orderBox
	scratch := uint32Pool.get(n)
	defer uint32Pool.put(scratch)
	rowSlot := *scratch
	for r := range rowSlot {
		h := hashRowConds(rows.Row(r), conds, false)
		i := h & mask
		for slots[i].hi != 0 && slots[i].hash != h {
			i = (i + 1) & mask
		}
		slots[i].hash = h
		slots[i].hi++ // row count until the layout pass
		rowSlot[r] = uint32(i)
	}
	var off, groups int32
	for i := range slots {
		s := &slots[i]
		if c := s.hi; c != 0 {
			s.lo, s.hi = off, off // hi is the group's fill cursor
			off += c
			groups++
		}
	}
	for r, i := range rowSlot {
		s := &slots[i]
		order[s.hi] = int32(r)
		s.hi++
	}
	t.mask, t.slots, t.order, t.unique = mask, slots, order, int(groups) == n
}

// release returns the table's arrays to the pools and empties it.
func (t *hashTable) release() {
	slotPool.put(t.slotsBox)
	int32Pool.put(t.orderBox)
	*t = hashTable{}
}

// lookup returns the candidate range of the build rows whose hash equals h.
func (t *hashTable) lookup(h uint64) span {
	slots, mask := t.slots, t.mask
	for i := h & mask; ; i = (i + 1) & mask {
		s := &slots[i]
		if s.hi == 0 {
			return span{}
		}
		if s.hash == h {
			return s.span
		}
	}
}

// lookupBatch hashes every row of a probe batch on the left-side join keys
// of conds and looks it up, before any candidate is visited: the lookups
// are independent, so their cache misses overlap. conds must be resolved
// through the batch's column map (batchHashJoin.resolve). One key column,
// the common case, is read straight from the batch arena, and a key equal
// to the previous row's reuses its span: a probe fed by a fan-out join
// arrives in runs of equal keys.
func (t *hashTable) lookupBatch(b *Batch, conds []condOffsets, spans []span) {
	if len(conds) != 1 {
		for i := range spans[:b.n] {
			spans[i] = t.lookup(hashRowConds(b.row(i), conds, true))
		}
		return
	}
	off, stride := conds[0].leftOff, b.stride
	var prev int64
	var sp span
	for i := range spans[:b.n] {
		if k := b.data[i*stride+off]; i == 0 || k != prev {
			sp, prev = t.lookup(fnvStep(fnvOffsetBasis, k)), k
		}
		spans[i] = sp
	}
}
