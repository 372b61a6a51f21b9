package storage

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/lpce-db/lpce/internal/catalog"
)

// These tests compare whole sealed tables field by field — catalog and
// column statistics, segment geometry and zone maps — to check that a
// reseal after AppendRows is indistinguishable from sealing the same
// rows once.

// sealFixture builds (without sealing) a fixture of four column shapes: a
// dense sequence, a low-NDV categorical spread wide, a constant, and wide
// random values.
func sealFixture(nRows int) *Table {
	meta := &catalog.Table{Name: "seal_t", Columns: []*catalog.Column{
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
		tbl.Cols[1][i] = rng.Int63n(7) << 40
		tbl.Cols[2][i] = 42
		tbl.Cols[3][i] = rng.Int63() - rng.Int63()
	}
	return tbl
}

// requireSealedIdentical fails unless two independently sealed tables have
// identical catalog and column statistics and identical segments (row
// count, Min and Max); a is the expected table.
func requireSealedIdentical(t *testing.T, label string, a, b *Table) {
	t.Helper()
	if !a.Sealed() || !b.Sealed() || a.SegRows() != b.SegRows() {
		t.Fatalf("%s: seal state mismatch", label)
	}
	for c := range a.Cols {
		am, bm := a.Meta.Columns[c], b.Meta.Columns[c]
		if am.Min != bm.Min || am.Max != bm.Max || am.NDV != bm.NDV {
			t.Fatalf("%s col %d: stats (%d,%d,%d), want (%d,%d,%d)",
				label, c, bm.Min, bm.Max, bm.NDV, am.Min, am.Max, am.NDV)
		}
		if !reflect.DeepEqual(a.ColStats(c), b.ColStats(c)) {
			t.Fatalf("%s col %d: column statistics differ", label, c)
		}
		as, bs := a.Segments(c), b.Segments(c)
		if len(as) != len(bs) {
			t.Fatalf("%s col %d: %d segments, want %d", label, c, len(bs), len(as))
		}
		for g := range as {
			if *as[g] != *bs[g] {
				t.Fatalf("%s col %d seg %d: segment %+v, want %+v", label, c, g, *bs[g], *as[g])
			}
		}
	}
}

// TestResealAfterAppend covers the unseal/reseal transition:
// AppendRows unseals and drops the dirty segment tail, and the next
// FinishLoad must both equal a fresh seal of the same rows and reuse
// the untouched prefix segment objects (identity, not just equality).
func TestResealAfterAppend(t *testing.T) {
	defer SetSegmentRows(64)()
	appendRow := []int64{9999, 3 << 40, 42, -17}

	fresh := sealFixture(300)
	fresh.AppendRows([][]int64{appendRow, appendRow})
	fresh.FinishLoad()

	tbl := sealFixture(300)
	tbl.FinishLoad()
	// 300 rows at 64/segment: 4 full segments survive the append.
	keep := append([]*Segment(nil), tbl.Segments(0)[:4]...)
	tbl.AppendRows([][]int64{appendRow, appendRow})
	if tbl.Sealed() {
		t.Fatal("maintenance append should unseal")
	}
	tbl.FinishLoad()
	requireSealedIdentical(t, "reseal", fresh, tbl)
	for g, s := range tbl.Segments(0)[:4] {
		if s != keep[g] {
			t.Fatalf("clean prefix segment %d rebuilt instead of reused", g)
		}
	}
}

func BenchmarkFinishLoad(b *testing.B) {
	const nRows = 32 * DefaultSegmentRows
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tbl := sealFixture(nRows)
		b.StartTimer()
		tbl.FinishLoad()
	}
}
