package exec

import "math"

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
// The table is sized to at most half full, so every probe walk ends at an
// empty slot.
type vecTable struct {
	mask   uint64
	hashes []uint64 // slot hash, valid where heads[i] != -1
	heads  []int32  // first build row per occupied slot, -1 when empty
	next   []int32  // per build row: next row with the same hash, -1 at end
}

// maxVecBuildRows is the largest build side a vecTable can index: rows are
// linked with int32, so one more row than MaxInt32 would wrap the chain
// links into silent corruption.
const maxVecBuildRows = math.MaxInt32

// checkVecBuildSize guards the int32 row links of vecTable: a build side
// beyond maxVecBuildRows fails with a typed *ResourceError (consistent with
// the budget errors) instead of corrupting the table.
func checkVecBuildSize(n int) error {
	if int64(n) > maxVecBuildRows {
		return &ResourceError{Resource: "hash-build-rows", Limit: maxVecBuildRows, Used: int64(n)}
	}
	return nil
}

// newVecTable sizes the table for nrows build rows at ≤50% load.
func newVecTable(nrows int) *vecTable {
	n := 2
	for n < 2*nrows {
		n <<= 1
	}
	v := &vecTable{
		mask:   uint64(n - 1),
		hashes: make([]uint64, n),
		heads:  make([]int32, n),
		next:   make([]int32, nrows),
	}
	for i := range v.heads {
		v.heads[i] = -1
	}
	return v
}

// buildVecTable indexes the build rows in row order. The chain-tail scratch
// is kept on ctx for the next build, since one execution can build several
// hash tables.
func buildVecTable(ctx *Ctx, rows [][]int64, conds []condOffsets) *vecTable {
	t := newVecTable(len(rows))
	if cap(ctx.buildTails) < len(t.heads) {
		ctx.buildTails = make([]int32, len(t.heads))
	}
	tails := ctx.buildTails[:len(t.heads)]
	for i, row := range rows {
		t.insert(int32(i), hashRowConds(row, conds, false), tails)
	}
	return t
}

// insert links build row r under hash h. tails is caller-provided scratch
// (len == len(heads)) tracking each slot's chain tail so insertion order is
// preserved without walking the chain; a slot's tail is only read after its
// head was written in the same build, so tails never needs clearing.
func (v *vecTable) insert(r int32, h uint64, tails []int32) {
	i := h & v.mask
	for {
		if v.heads[i] == -1 {
			v.heads[i] = r
			v.hashes[i] = h
			tails[i] = r
			v.next[r] = -1
			return
		}
		if v.hashes[i] == h {
			v.next[tails[i]] = r
			v.next[r] = -1
			tails[i] = r
			return
		}
		i = (i + 1) & v.mask
	}
}

// lookup returns the first build row whose hash equals h, or -1; the caller
// follows next[] for the rest of the chain.
func (v *vecTable) lookup(h uint64) int32 {
	i := h & v.mask
	for {
		r := v.heads[i]
		if r == -1 || v.hashes[i] == h {
			return r
		}
		i = (i + 1) & v.mask
	}
}
