package exec

import "testing"

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

// TestBuildEquivalenceChainOrder checks the property output order and
// per-candidate charges rest on: for every distinct hash, the chain reached
// through lookup lists exactly the rows carrying that hash, in build row
// order.
func TestBuildEquivalenceChainOrder(t *testing.T) {
	rows := hashBuildRows(5000, 32)
	want := map[uint64][]int32{}
	for i, row := range rows {
		h := hashRowConds(row, buildConds, false)
		want[h] = append(want[h], int32(i))
	}
	tbl := buildVecTable(&Ctx{}, rows, buildConds)
	for h, exp := range want {
		var got []int32
		for r := tbl.lookup(h); r != -1; r = tbl.next[r] {
			got = append(got, r)
		}
		if len(got) != len(exp) {
			t.Fatalf("hash %x: chain len %d, want %d", h, len(got), len(exp))
		}
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("hash %x: chain[%d]=%d, want %d", h, i, got[i], exp[i])
			}
		}
	}
	if r := tbl.lookup(^uint64(0)); r != -1 {
		t.Fatalf("lookup of an absent hash = %d, want -1", r)
	}
}

// skewedRows fabricates n rows with distinct hashes that all home in the
// first span slots of the table buildVecTable sizes for them, so their
// probe walks run long and cross the span's end.
func skewedRows(t *testing.T, n int, span uint64) [][]int64 {
	t.Helper()
	tbl := newVecTable(n)
	if tbl.mask+1 <= span {
		t.Fatalf("skew fixture needs a table wider than %d slots, got %d", span, tbl.mask+1)
	}
	rows := make([][]int64, 0, n)
	seen := map[uint64]bool{}
	for v := int64(0); len(rows) < n; v++ {
		row := []int64{v}
		h := hashRowConds(row, buildConds, false)
		if h&tbl.mask >= span || seen[h] {
			continue
		}
		seen[h] = true
		rows = append(rows, row)
	}
	return rows
}

// TestBuildEquivalenceOverflowFallback drives more than 512 distinct hashes
// into one 512-slot range of the table, so probe walks run past the range,
// and checks that every row is still placed and found again, alone in its
// chain.
func TestBuildEquivalenceOverflowFallback(t *testing.T) {
	const span = 512
	rows := skewedRows(t, span+88, span)
	tbl := buildVecTable(&Ctx{}, rows, buildConds)
	for i, row := range rows {
		h := hashRowConds(row, buildConds, false)
		r := tbl.lookup(h)
		if r != int32(i) {
			t.Fatalf("lookup(row %d) = %d", i, r)
		}
		if tbl.next[r] != -1 {
			t.Fatalf("row %d: distinct hash chained to row %d", i, tbl.next[r])
		}
	}
}

func BenchmarkBuildVecTable(b *testing.B) {
	rows := hashBuildRows(1<<16, 1<<12)
	ctx := &Ctx{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildVecTable(ctx, rows, buildConds)
	}
}
