package exec

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The parallel build side must be bitwise identical to the serial build for
// every worker count: same slot placement, same occupied-slot hashes, same
// equal-hash chain order. These tests sweep workers ∈ {1, 2, 4, 8} (the same
// grid as the exchange equivalence suite) over varied sizes and key skews,
// with morselSize shrunk so modest inputs clear the parallel cutoff, plus a
// crafted partition-overflow input that forces the global-probing fallback
// on serial and parallel builds alike.

// buildConds is the single-key join condition every build test hashes on.
var buildConds = []condOffsets{{0, 0}}

// hashBuildRows fabricates n single-column build rows with keys drawn from
// [0, keySpace) by a fixed-seed LCG — deterministic across runs and hosts.
func hashBuildRows(n, keySpace int) [][]int64 {
	rows := make([][]int64, n)
	vals := make([]int64, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range rows {
		state = state*6364136223846793005 + 1442695040888963407
		vals[i] = int64(state>>33) % int64(keySpace)
		rows[i] = vals[i : i+1 : i+1]
	}
	return rows
}

// vecTablesEqual reports bitwise layout equality: geometry, slot heads, the
// hash of every occupied slot, and the full chain-link array (which pins
// equal-hash chain order down to the last row).
func vecTablesEqual(a, b *vecTable) bool {
	if a.mask != b.mask || a.partMask != b.partMask || len(a.next) != len(b.next) {
		return false
	}
	for i := range a.heads {
		if a.heads[i] != b.heads[i] {
			return false
		}
		if a.heads[i] != -1 && a.hashes[i] != b.hashes[i] {
			return false
		}
	}
	for i := range a.next {
		if a.next[i] != b.next[i] {
			return false
		}
	}
	return true
}

// TestBuildEquivalenceWorkerCounts sweeps buildVecTable over sizes and key
// distributions — heavy duplicate chains through mostly-distinct keys — and
// requires each parallel worker count to reproduce the serial layout bit for
// bit.
func TestBuildEquivalenceWorkerCounts(t *testing.T) {
	shrinkMorsels(t)
	sizes := []int{300, 1000, 4096, 20000}
	keySpaces := []int{4, 64, 1 << 12, 1 << 30}
	for _, n := range sizes {
		for _, ks := range keySpaces {
			rows := hashBuildRows(n, ks)
			serial := buildVecTable(&Ctx{}, rows, buildConds, 1)
			for _, w := range parallelWorkerCounts {
				got := buildVecTable(&Ctx{}, rows, buildConds, w)
				if !vecTablesEqual(serial, got) {
					t.Fatalf("n=%d keySpace=%d w=%d: layout differs from serial", n, ks, w)
				}
			}
		}
	}
}

// TestBuildEquivalenceChainOrder cross-checks the layout equality with the
// semantic ground truth: for every distinct hash, the chain reached through
// lookup lists exactly the rows carrying that hash, in build row order.
func TestBuildEquivalenceChainOrder(t *testing.T) {
	shrinkMorsels(t)
	rows := hashBuildRows(5000, 32)
	want := map[uint64][]int32{}
	for i, row := range rows {
		h := hashRowConds(row, buildConds, false)
		want[h] = append(want[h], int32(i))
	}
	for _, w := range parallelWorkerCounts {
		tbl := buildVecTable(&Ctx{}, rows, buildConds, w)
		for h, exp := range want {
			var got []int32
			for r := tbl.lookup(h); r != -1; r = tbl.next[r] {
				got = append(got, r)
			}
			if len(got) != len(exp) {
				t.Fatalf("w=%d hash %x: chain len %d, want %d", w, h, len(got), len(exp))
			}
			for i := range exp {
				if got[i] != exp[i] {
					t.Fatalf("w=%d hash %x: chain[%d]=%d, want %d", w, h, i, got[i], exp[i])
				}
			}
		}
	}
}

// overflowRows fabricates n rows with distinct hashes that all home in the
// first probe partition of the table buildVecTable would size for them — so
// any n above vecPartSlots overflows that partition and forces the
// global-probing rebuild, on the serial path and on every parallel worker
// count identically.
func overflowRows(t *testing.T, n int) [][]int64 {
	t.Helper()
	tbl := newVecTable(n)
	if tbl.partitions() < 2 {
		t.Fatalf("overflow fixture needs a partitioned table, got %d slots", tbl.mask+1)
	}
	rows := make([][]int64, 0, n)
	seen := map[uint64]bool{}
	for v := int64(0); len(rows) < n; v++ {
		row := []int64{v}
		h := hashRowConds(row, buildConds, false)
		if h&tbl.mask > tbl.partMask || seen[h] {
			continue
		}
		seen[h] = true
		rows = append(rows, row)
	}
	return rows
}

// TestBuildEquivalenceOverflowFallback drives a partition past vecPartSlots
// distinct hashes and checks that the fallback fires (partMask widens to the
// whole array), that every worker count lands on the identical fallback
// layout, and that chains still resolve correctly afterwards.
func TestBuildEquivalenceOverflowFallback(t *testing.T) {
	shrinkMorsels(t)
	rows := overflowRows(t, vecPartSlots+88)
	serial := buildVecTable(&Ctx{}, rows, buildConds, 1)
	if serial.partMask != serial.mask {
		t.Fatalf("expected global-probing fallback, partMask=%d mask=%d", serial.partMask, serial.mask)
	}
	for _, w := range parallelWorkerCounts {
		got := buildVecTable(&Ctx{}, rows, buildConds, w)
		if got.partMask != got.mask {
			t.Fatalf("w=%d: fallback did not fire, partMask=%d mask=%d", w, got.partMask, got.mask)
		}
		if !vecTablesEqual(serial, got) {
			t.Fatalf("w=%d: fallback layout differs from serial", w)
		}
		for i, row := range rows {
			h := hashRowConds(row, buildConds, false)
			if r := got.lookup(h); r != int32(i) {
				t.Fatalf("w=%d: lookup(row %d) = %d after fallback", w, i, r)
			}
		}
	}
}

// TestBuildEquivalenceWorkerCapClamps asserts SetExchangeWorkerCap governs
// the build side too: with the cap at 1, a workers=8 build must take the
// serial path (observable only through the layout staying equal — and, more
// directly, through not panicking under the race detector with a cap of 1
// on a contended input).
func TestBuildEquivalenceWorkerCapClamps(t *testing.T) {
	old := morselSize
	morselSize = 64
	t.Cleanup(func() { morselSize = old })
	t.Cleanup(SetExchangeWorkerCap(1))
	rows := hashBuildRows(5000, 16)
	serial := buildVecTable(&Ctx{}, rows, buildConds, 1)
	got := buildVecTable(&Ctx{}, rows, buildConds, 8)
	if !vecTablesEqual(serial, got) {
		t.Fatal("capped build differs from serial")
	}
}

// TestBuildEquivalenceNoGoroutineLeaks runs parallel builds (including an
// overflow fallback) and requires the goroutine count to return to its
// pre-build level: build workers must all exit before buildVecTable returns.
func TestBuildEquivalenceNoGoroutineLeaks(t *testing.T) {
	shrinkMorsels(t)
	before := runtime.NumGoroutine()
	rows := hashBuildRows(20000, 1<<10)
	ofRows := overflowRows(t, vecPartSlots+88)
	ctx := &Ctx{}
	for i := 0; i < 5; i++ {
		buildVecTable(ctx, rows, buildConds, 8)
		buildVecTable(ctx, ofRows, buildConds, 8)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func BenchmarkBuildVecTable(b *testing.B) {
	rows := hashBuildRows(1<<16, 1<<12)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			ctx := &Ctx{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildVecTable(ctx, rows, buildConds, w)
			}
		})
	}
}
