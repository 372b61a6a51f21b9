package storage

import (
	"math/rand"
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

	tbl.MaintenanceAppend([][]int64{{300, 1 << 40, 42, 5}})
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
		tbl.MaintenanceAppend(rows)
		tbl.OrderedIndex(3)
	}
}
