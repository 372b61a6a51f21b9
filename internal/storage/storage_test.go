package storage

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/lpce-db/lpce/internal/catalog"
)

func buildLoaded(t *testing.T) (*Database, *Table) {
	t.Helper()
	s := catalog.NewSchema()
	meta := s.AddTable("t", catalog.PK("id"), catalog.Attr("v"))
	db := NewDatabase(s)
	tab := NewTable(meta, 6)
	copy(tab.ColByName("id"), []int64{0, 1, 2, 3, 4, 5})
	copy(tab.ColByName("v"), []int64{5, 3, 5, 1, 9, 3})
	db.Tables[meta.ID] = tab
	tab.FinishLoad()
	return db, tab
}

func TestFinishLoadStats(t *testing.T) {
	_, tab := buildLoaded(t)
	v := tab.Meta.Column("v")
	if v.Min != 1 || v.Max != 9 || v.NDV != 4 {
		t.Fatalf("stats = min %d max %d ndv %d", v.Min, v.Max, v.NDV)
	}
	id := tab.Meta.Column("id")
	if id.NDV != 6 {
		t.Fatalf("id ndv = %d", id.NDV)
	}
}

// TestHashIndexLookup: an equality lookup on a loaded table's column — once
// served by a per-column hash index, now by the ordered index's
// Range(v, v) — returns a duplicated value's rows in row order, nil for an
// absent value, and the index is built once and cached.
func TestHashIndexLookup(t *testing.T) {
	_, tab := buildLoaded(t)
	ix := tab.OrderedIndex(tab.Meta.Column("v").Pos)
	if got := ix.Range(5, 5); !slices.Equal(got, []int32{0, 2}) {
		t.Fatalf("lookup(5) = %v", got)
	}
	if ix.Range(42, 42) != nil {
		t.Fatal("lookup of absent value should be nil")
	}
	if tab.OrderedIndex(tab.Meta.Column("v").Pos) != ix {
		t.Fatal("index should be cached")
	}
}

// TestOrderedIndexRange: Range returns the rows of each value in the range
// in (value, row) order, capped at their length; Range(v, v) is the point
// lookup, down to the int64 extremes, and a value no row holds reads nil.
func TestOrderedIndexRange(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	s := catalog.NewSchema()
	meta := s.AddTable("t", catalog.Attr("v"))
	tab := NewTable(meta, 10)
	copy(tab.Cols[0], []int64{5, hi, 3, lo, 5, 1, 9, hi, 3, lo})
	tab.FinishLoad()
	ix := tab.OrderedIndex(0)
	for _, c := range []struct {
		name   string
		lo, hi int64
		want   []int32
	}{
		{"eq-duplicated", 5, 5, []int32{0, 4}},
		{"eq-single", 9, 9, []int32{6}},
		{"eq-absent", 42, 42, nil},
		{"eq-absent-below", lo + 1, lo + 1, nil},
		{"eq-min", lo, lo, []int32{3, 9}},
		{"eq-max", hi, hi, []int32{1, 7}},
		{"range", 3, 5, []int32{2, 8, 0, 4}},
		{"range-to-max", 9, hi, []int32{6, 1, 7}},
		{"range-all", lo, hi, []int32{3, 9, 5, 2, 8, 0, 4, 6, 1, 7}},
		{"range-empty", 100, 200, nil},
		{"range-inverted", 5, 3, nil},
	} {
		got := ix.Range(c.lo, c.hi)
		if !slices.Equal(got, c.want) || (got == nil) != (c.want == nil) || cap(got) != len(got) {
			t.Errorf("%s: Range(%d, %d) = %v (cap %d), want %v", c.name, c.lo, c.hi, got, cap(got), c.want)
		}
	}
	if tab.OrderedIndex(0) != ix {
		t.Fatal("ordered index should be cached")
	}
}

// TestOrderedIndexConcurrentLazyBuild: reads, lazy index construction
// included, are safe for concurrent use. Eight readers race to build each
// column's ordered index on a fresh sealed table; all get the one index,
// and its ranges hold the rows a scan of the column finds.
func TestOrderedIndexConcurrentLazyBuild(t *testing.T) {
	const readers = 8
	tbl := sealFixture(4096)
	tbl.FinishLoad()
	ranges := [][2]int64{{100, 900}, {3 << 40, 3 << 40}, {42, 42}, {math.MinInt64, 0}, {-5, -6}}
	got := make([][]*OrderedIndex, readers)
	gotRids := make([][][]int32, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for pos := range tbl.Cols {
				ix := tbl.OrderedIndex(pos)
				got[g] = append(got[g], ix)
				for _, r := range ranges {
					gotRids[g] = append(gotRids[g], ix.Range(r[0], r[1]))
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	var want [][]int32
	for pos, col := range tbl.Cols {
		for _, r := range ranges {
			var rids []int32
			for i, x := range col {
				if x >= r[0] && x <= r[1] {
					rids = append(rids, int32(i))
				}
			}
			slices.SortStableFunc(rids, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
			want = append(want, rids)
		}
		for g := range got {
			if got[g][pos] != got[0][pos] {
				t.Fatalf("column %d: reader %d got a different index than reader 0", pos, g)
			}
		}
	}
	for g := range gotRids {
		for i := range want {
			if !slices.Equal(gotRids[g][i], want[i]) {
				t.Fatalf("reader %d, range %d: rows %v, want %v", g, i, gotRids[g][i], want[i])
			}
		}
	}
}

func TestDatabaseLookups(t *testing.T) {
	db, tab := buildLoaded(t)
	if db.TableByName("t") != tab {
		t.Fatal("TableByName failed")
	}
	if db.TableByName("missing") != nil {
		t.Fatal("missing table should be nil")
	}
	if db.Table(tab.Meta) != tab {
		t.Fatal("Table by meta failed")
	}
	if db.TotalRows() != 6 {
		t.Fatalf("TotalRows = %d", db.TotalRows())
	}
}

func TestColByNamePanicsOnMissing(t *testing.T) {
	_, tab := buildLoaded(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab.ColByName("missing")
}
