package storage

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestFinishLoadCleanIsNoop: resealing a table with no append since its
// seal keeps its segment lists and every segment and statistics object by
// pointer; a new segment granularity re-encodes the segments but keeps the
// statistics, which do not depend on it; an append replaces the statistics.
func TestFinishLoadCleanIsNoop(t *testing.T) {
	defer SetSegmentRows(64)()
	tbl := sealFixture(300)
	tbl.FinishLoad()
	snap := func() (segs [][]*Segment, stats []*ColStats) {
		for pos := range tbl.Cols {
			segs = append(segs, slices.Clone(tbl.Segments(pos)))
			stats = append(stats, tbl.ColStats(pos))
		}
		return segs, stats
	}
	segs, stats := snap()

	lists := make([]**Segment, len(tbl.Cols)) // identifies each segment list
	for pos := range tbl.Cols {
		lists[pos] = &tbl.Segments(pos)[0]
	}
	tbl.FinishLoad()
	segs2, stats2 := snap()
	for pos := range tbl.Cols {
		if &tbl.Segments(pos)[0] != lists[pos] {
			t.Fatalf("col %d: clean reseal replaced the segment list", pos)
		}
		if stats2[pos] != stats[pos] {
			t.Fatalf("col %d: clean reseal replaced the statistics", pos)
		}
		if len(segs2[pos]) != len(segs[pos]) {
			t.Fatalf("col %d: clean reseal resegmented", pos)
		}
		for g := range segs[pos] {
			if segs2[pos][g] != segs[pos][g] {
				t.Fatalf("col %d: clean reseal rebuilt segment %d", pos, g)
			}
		}
	}

	restore := SetSegmentRows(32)
	tbl.FinishLoad()
	restore()
	if tbl.SegRows() != 32 || len(tbl.Segments(0)) != (300+31)/32 {
		t.Fatalf("granularity change not resealed: segRows %d, %d segments", tbl.SegRows(), len(tbl.Segments(0)))
	}
	for pos := range tbl.Cols {
		if tbl.ColStats(pos) != stats[pos] {
			t.Fatalf("col %d: granularity change replaced the statistics", pos)
		}
		if tbl.Segments(pos)[0] == segs[pos][0] {
			t.Fatalf("col %d: granularity change kept a segment of the old size", pos)
		}
	}

	tbl.AppendRows([][]int64{{300, 1 << 40, 42, 5}})
	tbl.FinishLoad()
	for pos := range tbl.Cols {
		if tbl.ColStats(pos) == stats[pos] || tbl.ColStats(pos).RowCount != 301 {
			t.Fatalf("col %d: append did not re-analyze", pos)
		}
		if stats[pos].RowCount != 300 {
			t.Fatalf("col %d: earlier statistics mutated by the reseal", pos)
		}
	}
}

// benchIndexTable returns an unsealed table over cols (aliased, not
// copied) with sealFixture's schema.
func benchIndexTable(cols [][]int64) *Table {
	tbl := sealFixture(0)
	copy(tbl.Cols, cols)
	return tbl
}

const benchIndexRows = 32 * DefaultSegmentRows

// BenchmarkOrderedIndexBuild builds the ordered index over 131,072 wide
// random values from scratch.
func BenchmarkOrderedIndexBuild(b *testing.B) {
	cols := sealFixture(benchIndexRows).Cols
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchIndexTable(cols).OrderedIndex(3)
	}
}

// BenchmarkOrderedIndexLookup looks up the 131,072 wide random values of
// BenchmarkOrderedIndexBuild's column in its built ordered index, one
// point lookup per op, probing in key order and in shuffled order.
func BenchmarkOrderedIndexLookup(b *testing.B) {
	tbl := sealFixture(benchIndexRows)
	ix := tbl.OrderedIndex(3)
	sorted := slices.Clone(tbl.Cols[3])
	slices.Sort(sorted)
	shuffled := slices.Clone(tbl.Cols[3])
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, probes := range []struct {
		name string
		vals []int64
	}{{"ordered", sorted}, {"shuffled", shuffled}} {
		b.Run(probes.name, func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				v := probes.vals[i%len(probes.vals)]
				n += len(ix.Range(v, v))
			}
			if n != b.N {
				b.Fatalf("%d lookups found %d rows, want one each", b.N, n)
			}
		})
	}
}

// BenchmarkOrderedIndexExtend appends 4096 rows to a table whose ordered
// index over 131,072 wide random values is built, and fetches the index
// again (untimed: copying the columns and the first build).
func BenchmarkOrderedIndexExtend(b *testing.B) {
	cols := sealFixture(benchIndexRows).Cols
	rng := rand.New(rand.NewSource(5))
	rows := make([][]int64, 4096)
	for i := range rows {
		rows[i] = []int64{int64(benchIndexRows + i), rng.Int63n(7) << 40, 42, rng.Int63() - rng.Int63()}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		own := make([][]int64, len(cols))
		for c, col := range cols {
			own[c] = slices.Clone(col)
		}
		tbl := benchIndexTable(own)
		tbl.OrderedIndex(3)
		b.StartTimer()
		tbl.AppendRows(rows)
		tbl.OrderedIndex(3)
	}
}

// TestEmptyAppendKeepsSeal: an empty AppendRows changes nothing. The
// table stays sealed with its ragged tail segment, its statistics and
// segments are kept by pointer through the next FinishLoad, and it starts
// keeping no value runs.
func TestEmptyAppendKeepsSeal(t *testing.T) {
	defer SetSegmentRows(64)()
	tbl := sealFixture(300) // 4 full segments and a ragged one
	tbl.FinishLoad()
	var segs [][]*Segment
	var stats []*ColStats
	for pos := range tbl.Cols {
		segs = append(segs, slices.Clone(tbl.Segments(pos)))
		stats = append(stats, tbl.ColStats(pos))
	}
	for _, batch := range [][][]int64{nil, {}} {
		tbl.AppendRows(batch)
		if !tbl.Sealed() {
			t.Fatal("empty append unsealed the table")
		}
		tbl.FinishLoad()
		for pos := range tbl.Cols {
			if tbl.ColStats(pos) != stats[pos] {
				t.Fatalf("col %d: empty append replaced the statistics", pos)
			}
			if !slices.Equal(tbl.Segments(pos), segs[pos]) {
				t.Fatalf("col %d: empty append rebuilt segments", pos)
			}
		}
	}
	if tbl.runs != nil {
		t.Fatal("empty append made the table keep value runs")
	}
}

// clusteredRows returns n rows of sealFixture's schema whose seq values
// continue from first, so an append of them sorts after every indexed seq.
func clusteredRows(first, n int) [][]int64 {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(first + i), 0, 42, int64(i)}
	}
	return rows
}

// TestClusteredAppendKeepsRangeResults: a clustered append extends the
// ordered index in place, so what a reader took before it must not move. A
// Range result and the previous index keep their pairs, and a slice a
// caller grew from a Range result is not written by the next append. Point
// reads — a Range(v, v) result and the index an index nested loop holds
// for its whole Open — taken before a clustered or a non-clustered append
// read the same rows after it.
func TestClusteredAppendKeepsRangeResults(t *testing.T) {
	tbl := sealFixture(1000)
	type pointRead struct {
		v          int64
		held       *OrderedIndex
		rids, want []int32
	}
	var points []pointRead
	takePoint := func(v int64) {
		held := tbl.OrderedIndex(0)
		rids := held.Range(v, v)
		points = append(points, pointRead{v, held, rids, slices.Clone(rids)})
	}
	prev := tbl.OrderedIndex(0)
	mid := prev.Range(100, 400)
	midWant := slices.Clone(mid)
	takePoint(500)
	tbl.AppendRows(clusteredRows(1000, 300))
	ix := tbl.OrderedIndex(0)
	if ix == prev || cap(ix.Rids) == len(ix.Rids) {
		t.Fatalf("fixture: the append must replace the index and leave spare capacity (len %d, cap %d)", len(ix.Rids), cap(ix.Rids))
	}
	tail := ix.Range(1200, 1299)
	grown := append(tail, -7)
	takePoint(1299)
	tbl.AppendRows(clusteredRows(1300, 5))
	if !slices.Equal(mid, midWant) || len(prev.Vals) != 1000 || !slices.Equal(prev.Range(100, 400), midWant) {
		t.Fatalf("a clustered append moved the pairs of an earlier Range result or index")
	}
	if grown[len(grown)-1] != -7 {
		t.Fatalf("a clustered append wrote into a slice grown from a Range result")
	}
	takePoint(500)
	takePoint(1299)
	tbl.AppendRows([][]int64{{500, 0, 42, 0}, {1299, 0, 42, 0}}) // not clustered
	for v, want := range map[int64][]int32{500: {500, 1305}, 1299: {1299, 1306}} {
		if got := tbl.OrderedIndex(0).Range(v, v); !slices.Equal(got, want) {
			t.Fatalf("Range(%d, %d) after the appends = %v, want %v", v, v, got, want)
		}
	}
	for i, p := range points {
		if !slices.Equal(p.rids, p.want) || !slices.Equal(p.held.Range(p.v, p.v), p.want) {
			t.Fatalf("point read %d of %d moved: result %v, held index %v, want %v", i, p.v, p.rids, p.held.Range(p.v, p.v), p.want)
		}
	}
	want := sealFixture(0)
	want.Cols[0] = slices.Clone(tbl.Cols[0])
	got, ref := tbl.OrderedIndex(0), want.OrderedIndex(0)
	if !slices.Equal(got.Vals, ref.Vals) || !slices.Equal(got.Rids, ref.Rids) {
		t.Fatal("ordered index after the appends differs from a rebuild")
	}
}

// TestClusteredAppendAllocatesLittle: once the first clustered append has
// grown the ordered index, further small clustered appends write into its
// spare capacity and allocate far less than one copy of the index.
func TestClusteredAppendAllocatesLittle(t *testing.T) {
	const n = benchIndexRows
	tbl := benchIndexTable(sealFixture(n).Cols)
	tbl.OrderedIndex(0)
	tbl.AppendRows(clusteredRows(n, 64))
	const appends = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= appends; i++ {
		tbl.AppendRows(clusteredRows(n+64*i, 64))
	}
	runtime.ReadMemStats(&after)
	perAppend := (after.TotalAlloc - before.TotalAlloc) / appends
	indexCopy := uint64(n * (8 + 4))
	if perAppend*16 > indexCopy {
		t.Fatalf("a clustered append allocates %d bytes, want far below one index copy (%d)", perAppend, indexCopy)
	}
}
