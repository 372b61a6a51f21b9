package exec

// vecTable is the batch hash join's open-addressing build table: a
// power-of-two array of (hash, chain-head) slots probed linearly on the
// full 64-bit key hash, with per-row chain links into the flat build arena.
// Compared with a map[uint64][][]int64 it has no per-bucket slice headers
// and no map overhead, and probes touch at most two contiguous arrays.
//
// Rows with equal full hashes (equal keys or rare 64-bit collisions) share
// one slot and are chained in build insertion order, so a probe visits
// exactly the candidates sharing its hash, in build order — keeping output
// row order and per-candidate work charges independent of the layout.
//
// Probing is partition-bounded: the slot array is split into fixed runs of
// vecPartSlots slots, and a probe wraps within the home partition of its
// hash instead of walking the whole array. The partition geometry is a pure
// function of the table size — never of the worker count — which is what
// lets buildVecTable hand disjoint partition ranges to parallel workers
// while keeping slot placement bitwise identical to the serial build (see
// parbuild.go). A partition holds at most vecPartSlots hashes; in the rare
// case one fills up (the table is globally at most half full, so this takes
// a badly skewed hash prefix), the build re-places every row with plain
// linear probing over the whole array by setting partMask = mask. That
// fallback decision depends only on the data, so serial and parallel builds
// take it identically.
type vecTable struct {
	mask     uint64
	partMask uint64   // partition size - 1; == mask once fallen back to global probing
	hashes   []uint64 // slot hash, valid where heads[i] != -1
	heads    []int32  // first build row per occupied slot, -1 when empty
	next     []int32  // per build row: next row with the same hash, -1 at end
}

// vecPartSlots is the probe-partition granularity: a power of two, small
// enough that many partitions exist for parallel builds of interesting size,
// large enough that a partition overflow (the serial-rebuild fallback) is
// vanishingly rare at ≤50% table load.
const vecPartSlots = 512

// newVecTable sizes the table for nrows build rows at ≤50% load. Tables at
// or below vecPartSlots slots are a single partition, where partition-bounded
// probing degenerates to plain linear probing.
func newVecTable(nrows int) *vecTable {
	n := 2
	for n < 2*nrows {
		n <<= 1
	}
	pm := uint64(n - 1)
	if n > vecPartSlots {
		pm = vecPartSlots - 1
	}
	v := &vecTable{
		mask:     uint64(n - 1),
		partMask: pm,
		hashes:   make([]uint64, n),
		heads:    make([]int32, n),
		next:     make([]int32, nrows),
	}
	for i := range v.heads {
		v.heads[i] = -1
	}
	return v
}

// partitions reports how many probe partitions the slot array holds.
func (v *vecTable) partitions() int {
	return int((v.mask + 1) / (v.partMask + 1))
}

// insert links build row r under hash h, probing within h's home partition.
// tails is caller-provided scratch (len == len(heads)) tracking each slot's
// chain tail so insertion order is preserved without walking the chain; a
// slot's tail is only read after its head was written in the same build, so
// tails never needs clearing. It returns false when the home partition is
// completely full — the caller must then rebuild in global-probing mode.
func (v *vecTable) insert(r int32, h uint64, tails []int32) bool {
	i := h & v.mask
	base := i &^ v.partMask
	for n := uint64(0); n <= v.partMask; n++ {
		if v.heads[i] == -1 {
			v.heads[i] = r
			v.hashes[i] = h
			tails[i] = r
			v.next[r] = -1
			return true
		}
		if v.hashes[i] == h {
			v.next[tails[i]] = r
			v.next[r] = -1
			tails[i] = r
			return true
		}
		i = base | ((i + 1) & v.partMask)
	}
	return false
}

// lookup returns the first build row whose hash equals h, or -1; the caller
// follows next[] for the rest of the chain. The probe mirrors insert: it
// wraps within the home partition, and because a non-overflowing partition
// can end exactly full, the walk is bounded by the partition size rather
// than relying on an empty slot to terminate.
func (v *vecTable) lookup(h uint64) int32 {
	i := h & v.mask
	base := i &^ v.partMask
	for n := uint64(0); n <= v.partMask; n++ {
		r := v.heads[i]
		if r == -1 {
			return -1
		}
		if v.hashes[i] == h {
			return r
		}
		i = base | ((i + 1) & v.partMask)
	}
	return -1
}
