package storage

import (
	"math"
	"math/rand"
	"testing"

	"github.com/lpce-db/lpce/internal/catalog"
)

// segTestData generates value distributions with different zone-map
// shapes: constants, low-NDV categoricals spread wide, dense ranges that
// may sit below zero, random values over most of the int64 range, and
// columns that mix in the int64 limits themselves.
func segTestData(rng *rand.Rand, kind string, n int) []int64 {
	vals := make([]int64, n)
	switch kind {
	case "constant":
		c := rng.Int63n(1000) - 500
		for i := range vals {
			vals[i] = c
		}
	case "low-ndv":
		ndv := 2 + rng.Intn(254)
		dict := make([]int64, ndv)
		for i := range dict {
			dict[i] = rng.Int63n(1 << 40)
		}
		for i := range vals {
			vals[i] = dict[rng.Intn(ndv)]
		}
	case "dense-range":
		base := rng.Int63n(1<<50) - (1 << 49)
		spread := int64(1) << (10 + uint(rng.Intn(20)))
		for i := range vals {
			vals[i] = base + rng.Int63n(spread)
		}
	case "wide":
		for i := range vals {
			vals[i] = rng.Int63() - rng.Int63()
		}
	case "limits":
		for i := range vals {
			switch rng.Intn(3) {
			case 0:
				vals[i] = math.MinInt64
			case 1:
				vals[i] = math.MaxInt64
			default:
				vals[i] = rng.Int63() - rng.Int63()
			}
		}
	}
	return vals
}

var segKinds = []string{"constant", "low-ndv", "dense-range", "wide", "limits"}

// minMax returns the true minimum and maximum of a non-empty slice.
func minMax(vals []int64) (mn, mx int64) {
	mn, mx = vals[0], vals[0]
	for _, v := range vals {
		mn, mx = min(mn, v), max(mx, v)
	}
	return mn, mx
}

// TestSegmentRoundTrip is the zone-map property suite: for every generated
// distribution and a spread of lengths, a segment's row count and zone map
// must be the true count, min and max of its values — both for one
// segment built directly and for every segment of a sealed table, ragged
// last segment included when the length is not a multiple of the segment
// size.
func TestSegmentRoundTrip(t *testing.T) {
	defer SetSegmentRows(64)()
	rng := rand.New(rand.NewSource(7))
	lengths := []int{1, 2, 63, 64, 65, 1000, 4096, 5000}
	for _, kind := range segKinds {
		for _, n := range lengths {
			for trial := 0; trial < 3; trial++ {
				vals := segTestData(rng, kind, n)
				seg := buildSegment(vals)
				mn, mx := minMax(vals)
				if seg.Rows() != n || seg.Min != mn || seg.Max != mx {
					t.Fatalf("%s/%d: segment rows %d zone map [%d,%d], want %d [%d,%d]",
						kind, n, seg.Rows(), seg.Min, seg.Max, n, mn, mx)
				}

				meta := &catalog.Table{Name: "zm_t", Columns: []*catalog.Column{{Name: "v", Pos: 0}}}
				meta.Columns[0].Table = meta
				tbl := NewTable(meta, 0)
				tbl.Cols[0] = vals
				tbl.FinishLoad()
				segs := tbl.Segments(0)
				if len(segs) != (n+63)/64 {
					t.Fatalf("%s/%d: %d segments, want %d", kind, n, len(segs), (n+63)/64)
				}
				for g, sg := range segs {
					part := vals[g*64 : min((g+1)*64, n)]
					mn, mx := minMax(part)
					if sg.Rows() != len(part) || sg.Min != mn || sg.Max != mx {
						t.Fatalf("%s/%d seg %d: rows %d zone map [%d,%d], want %d [%d,%d]",
							kind, n, g, sg.Rows(), sg.Min, sg.Max, len(part), mn, mx)
					}
				}
			}
		}
	}
}

func segTestTable(t *testing.T, nRows int) *Table {
	t.Helper()
	meta := &catalog.Table{Name: "seg_t", Columns: []*catalog.Column{
		{Name: "a", Pos: 0}, {Name: "b", Pos: 1},
	}}
	for _, c := range meta.Columns {
		c.Table = meta
	}
	tbl := NewTable(meta, nRows)
	for i := 0; i < nRows; i++ {
		tbl.Cols[0][i] = int64(i)
		tbl.Cols[1][i] = int64(i % 7)
	}
	return tbl
}

// TestTableSealLifecycle covers the seal state machine: FinishLoad seals
// and builds segments covering every row; AppendRows unseals, keeps only
// the clean segment prefix, and the next FinishLoad rebuilds just the
// dirtied tail (reusing untouched segment objects).
func TestTableSealLifecycle(t *testing.T) {
	defer SetSegmentRows(64)()
	tbl := segTestTable(t, 300)

	if tbl.Sealed() {
		t.Fatal("fresh table should not be sealed")
	}
	if tbl.Segments(0) != nil {
		t.Fatal("unsealed table should expose no segments")
	}
	tbl.AppendRows([][]int64{{300, 300 % 7}})

	tbl.FinishLoad()
	if !tbl.Sealed() || tbl.SegRows() != 64 {
		t.Fatalf("sealed=%v segRows=%d", tbl.Sealed(), tbl.SegRows())
	}
	segs := tbl.Segments(0)
	wantSegs := (301 + 63) / 64
	if len(segs) != wantSegs {
		t.Fatalf("segments = %d, want %d", len(segs), wantSegs)
	}
	total := 0
	for _, s := range segs {
		total += s.Rows()
	}
	if total != 301 {
		t.Fatalf("segment rows sum to %d, want 301", total)
	}

	// Dirty the tail: 301 rows at 64/segment = 4 full + 1 ragged segment;
	// appending must keep the 4 full ones and drop the ragged one.
	keep := append([]*Segment(nil), segs[:4]...)
	tbl.AppendRows([][]int64{{301, 301 % 7}, {302, 302 % 7}})
	if tbl.Sealed() {
		t.Fatal("maintenance append should unseal")
	}
	tbl.FinishLoad()
	segs2 := tbl.Segments(0)
	if len(segs2) != (303+63)/64 {
		t.Fatalf("segments after reseal = %d", len(segs2))
	}
	for g, s := range keep {
		if segs2[g] != s {
			t.Fatalf("full segment %d was rebuilt instead of reused", g)
		}
	}
	// Column 0 holds the row number, so segment g covers [64g, 64g+rows).
	for g, s := range segs2 {
		rows := min(64, 303-64*g)
		if s.Rows() != rows || s.Min != int64(64*g) || s.Max != int64(64*g+rows-1) {
			t.Fatalf("segment %d after reseal: rows %d zone map [%d,%d]", g, s.Rows(), s.Min, s.Max)
		}
	}

	// Changing the granularity invalidates the reuse prefix wholesale.
	restore := SetSegmentRows(32)
	tbl.FinishLoad()
	restore()
	if got := len(tbl.Segments(0)); got != (303+31)/32 {
		t.Fatalf("segments after regranulating = %d", got)
	}
}
