package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/lpce-db/lpce/internal/catalog"
)

// Parallel sealing must be byte-equal to serial sealing for every worker
// count: same catalog and column statistics, same segment geometry, same
// per-segment encoding choice, dictionary, packed words, and zone maps.
// These tests compare whole sealed tables field by field — including the
// unexported packed/dict arrays — against a serially sealed copy of the
// same data, across the same worker grid as the executor's equivalence
// suite, plus the unseal/reseal transition after MaintenanceAppend.

var parallelSealWorkers = []int{1, 2, 4, 8}

// parSealTable builds (without sealing) a fixture whose columns steer
// buildSegment into each encoding: a dense sequence (frame-of-reference
// pack), a low-NDV categorical (dict), a constant (dict, width 0), and wide
// random values (raw).
func parSealTable(nRows int) *Table {
	meta := &catalog.Table{Name: "par_seal_t", Columns: []*catalog.Column{
		{Name: "seq", Pos: 0}, {Name: "cat", Pos: 1},
		{Name: "konst", Pos: 2}, {Name: "wide", Pos: 3},
	}}
	for _, c := range meta.Columns {
		c.Table = meta
	}
	tbl := NewTable(meta, nRows)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < nRows; i++ {
		tbl.Cols[0][i] = int64(i)
		tbl.Cols[1][i] = rng.Int63n(7) << 40 // wide spread, 7 distinct: dict wins
		tbl.Cols[2][i] = 42
		tbl.Cols[3][i] = rng.Int63() - rng.Int63()
	}
	return tbl
}

// segBitwiseEqual compares every field of two segments, including the
// unexported encoding internals. Raw segments alias different column slices
// across tables, so raw is compared by value.
func segBitwiseEqual(x, y *Segment) bool {
	if x.rows != y.rows || x.enc != y.enc || x.width != y.width ||
		x.Min != y.Min || x.Max != y.Max {
		return false
	}
	if len(x.dict) != len(y.dict) || len(x.packed) != len(y.packed) || len(x.raw) != len(y.raw) {
		return false
	}
	for i := range x.dict {
		if x.dict[i] != y.dict[i] {
			return false
		}
	}
	for i := range x.packed {
		if x.packed[i] != y.packed[i] {
			return false
		}
	}
	for i := range x.raw {
		if x.raw[i] != y.raw[i] {
			return false
		}
	}
	return true
}

// requireSealedIdentical fails unless two independently sealed tables have
// identical catalog statistics and bitwise-identical segments.
func requireSealedIdentical(t *testing.T, label string, a, b *Table) {
	t.Helper()
	if !a.Sealed() || !b.Sealed() || a.SegRows() != b.SegRows() {
		t.Fatalf("%s: seal state mismatch", label)
	}
	for c := range a.Cols {
		am, bm := a.Meta.Columns[c], b.Meta.Columns[c]
		if am.Min != bm.Min || am.Max != bm.Max || am.NDV != bm.NDV {
			t.Fatalf("%s col %d: stats (%d,%d,%d), serial (%d,%d,%d)",
				label, c, bm.Min, bm.Max, bm.NDV, am.Min, am.Max, am.NDV)
		}
		if !reflect.DeepEqual(a.ColStats(c), b.ColStats(c)) {
			t.Fatalf("%s col %d: column statistics differ from serial", label, c)
		}
		as, bs := a.Segments(c), b.Segments(c)
		if len(as) != len(bs) {
			t.Fatalf("%s col %d: %d segments, serial %d", label, c, len(bs), len(as))
		}
		for g := range as {
			if !segBitwiseEqual(as[g], bs[g]) {
				t.Fatalf("%s col %d seg %d: layout differs from serial (%v vs %v)",
					label, c, g, bs[g].Encoding(), as[g].Encoding())
			}
		}
	}
}

// TestParallelSealEquivalence seals identical tables serially and at each
// worker count and requires bitwise-equal results. The seal worker cap is
// lifted so every count runs genuinely concurrently even on one core.
func TestParallelSealEquivalence(t *testing.T) {
	defer SetSegmentRows(64)()
	defer SetSealWorkerCap(64)()
	for _, nRows := range []int{1, 63, 300, 4100} {
		serial := parSealTable(nRows)
		func() {
			defer SetBuildWorkers(1)()
			serial.FinishLoad()
		}()
		for _, w := range parallelSealWorkers {
			tbl := parSealTable(nRows)
			func() {
				defer SetBuildWorkers(w)()
				tbl.FinishLoad()
			}()
			requireSealedIdentical(t, fmt.Sprintf("rows=%d workers=%d", nRows, w), serial, tbl)
		}
	}
}

// TestParallelSealResealAfterAppend covers the unseal/reseal transition:
// MaintenanceAppend unseals and drops the dirty segment tail, and the next
// parallel FinishLoad must both match a serial reseal bitwise and reuse the
// untouched prefix segment objects (identity, not just equality).
func TestParallelSealResealAfterAppend(t *testing.T) {
	defer SetSegmentRows(64)()
	defer SetSealWorkerCap(64)()
	appendRow := []int64{9999, 3 << 40, 42, -17}

	serial := parSealTable(300)
	func() {
		defer SetBuildWorkers(1)()
		serial.FinishLoad()
		serial.MaintenanceAppend([][]int64{appendRow, appendRow})
		serial.FinishLoad()
	}()

	for _, w := range parallelSealWorkers {
		tbl := parSealTable(300)
		func() {
			defer SetBuildWorkers(w)()
			tbl.FinishLoad()
		}()
		// 300 rows at 64/segment: 4 full segments survive the append.
		keep := append([]*Segment(nil), tbl.Segments(0)[:4]...)
		tbl.MaintenanceAppend([][]int64{appendRow, appendRow})
		if tbl.Sealed() {
			t.Fatalf("workers=%d: maintenance append should unseal", w)
		}
		func() {
			defer SetBuildWorkers(w)()
			tbl.FinishLoad()
		}()
		requireSealedIdentical(t, fmt.Sprintf("reseal workers=%d", w), serial, tbl)
		for g, s := range tbl.Segments(0)[:4] {
			if s != keep[g] {
				t.Fatalf("workers=%d: clean prefix segment %d rebuilt instead of reused", w, g)
			}
		}
	}
}

// TestParallelSealNoGoroutineLeaks requires every seal worker to exit
// before FinishLoad returns.
func TestParallelSealNoGoroutineLeaks(t *testing.T) {
	defer SetSegmentRows(64)()
	defer SetSealWorkerCap(64)()
	defer SetBuildWorkers(8)()
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		parSealTable(4100).FinishLoad()
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

func BenchmarkFinishLoad(b *testing.B) {
	const nRows = 32 * DefaultSegmentRows
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			defer SetBuildWorkers(w)()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tbl := parSealTable(nRows)
				b.StartTimer()
				tbl.FinishLoad()
			}
		})
	}
}
