package maintain

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/datagen"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// refAnalyzeColumn is the map-based ANALYZE of one column (a frequency map,
// MCVs from a sort of the distinct values, bounds from a sort of the
// non-MCV rows): the reference the seal-time statistics must equal bit for
// bit.
func refAnalyzeColumn(col []int64) *storage.ColStats {
	cs := &storage.ColStats{RowCount: len(col)}
	if len(col) == 0 {
		return cs
	}
	freq := make(map[int64]int, 1024)
	for _, v := range col {
		freq[v]++
	}
	cs.NDV = len(freq)
	type vc struct {
		v int64
		c int
	}
	all := make([]vc, 0, len(freq))
	for v, c := range freq {
		all = append(all, vc{v, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].v < all[j].v
	})
	k := min(storage.NumMCVs, len(all))
	mcvSet := make(map[int64]bool, k)
	n := float64(len(col))
	for i := 0; i < k; i++ {
		cs.MCVVals = append(cs.MCVVals, all[i].v)
		f := float64(all[i].c) / n
		cs.MCVFreqs = append(cs.MCVFreqs, f)
		cs.MCVFrac += f
		mcvSet[all[i].v] = true
	}
	rest := make([]int64, 0, len(col))
	for _, v := range col {
		if !mcvSet[v] {
			rest = append(rest, v)
		}
	}
	if len(rest) > 0 {
		sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
		b := min(storage.NumBuckets, len(rest))
		cs.Bounds = append(cs.Bounds, rest[0])
		for i := 1; i <= b; i++ {
			cs.Bounds = append(cs.Bounds, rest[i*(len(rest)-1)/b])
		}
	}
	return cs
}

// colStatsDiff reports how got differs from want: integers and values by
// ==, floats by their bits, and slices by nil-ness as well as contents.
func colStatsDiff(got, want *storage.ColStats) string {
	if got == nil {
		return "nil stats"
	}
	if got.RowCount != want.RowCount || got.NDV != want.NDV {
		return fmt.Sprintf("rows/ndv %d/%d, want %d/%d", got.RowCount, got.NDV, want.RowCount, want.NDV)
	}
	if math.Float64bits(got.MCVFrac) != math.Float64bits(want.MCVFrac) {
		return fmt.Sprintf("MCVFrac %v, want %v", got.MCVFrac, want.MCVFrac)
	}
	if (got.MCVVals == nil) != (want.MCVVals == nil) || !slices.Equal(got.MCVVals, want.MCVVals) {
		return fmt.Sprintf("MCVVals %v, want %v", got.MCVVals, want.MCVVals)
	}
	if (got.MCVFreqs == nil) != (want.MCVFreqs == nil) || len(got.MCVFreqs) != len(want.MCVFreqs) {
		return fmt.Sprintf("MCVFreqs %v, want %v", got.MCVFreqs, want.MCVFreqs)
	}
	for i := range got.MCVFreqs {
		if math.Float64bits(got.MCVFreqs[i]) != math.Float64bits(want.MCVFreqs[i]) {
			return fmt.Sprintf("MCVFreqs[%d] %v, want %v", i, got.MCVFreqs[i], want.MCVFreqs[i])
		}
	}
	if (got.Bounds == nil) != (want.Bounds == nil) || !slices.Equal(got.Bounds, want.Bounds) {
		return fmt.Sprintf("Bounds %v, want %v", got.Bounds, want.Bounds)
	}
	return ""
}

// refreshFixture is a two-table database sealed at a small segment size:
// "hot" takes every append, "cold" none. hot's columns cover a sequence, a
// tie-heavy five-value column with negatives (every value an MCV), a
// 40-value column whose equal counts straddle the MCV cutoff, a skewed
// negative column and wide random values.
func refreshFixture(rng *rand.Rand, hotRows, coldRows int) (*storage.Database, *storage.Table, *storage.Table) {
	s := catalog.NewSchema()
	hot := s.AddTable("hot", catalog.PK("id"), catalog.Attr("tie"), catalog.Attr("cut"),
		catalog.Attr("skew"), catalog.Attr("wide"))
	cold := s.AddTable("cold", catalog.PK("id"), catalog.Attr("v"))
	db := storage.NewDatabase(s)
	db.Tables[hot.ID] = storage.NewTable(hot, 0)
	db.Tables[cold.ID] = storage.NewTable(cold, 0)
	db.Tables[hot.ID].AppendRows(hotRowsFrom(rng, 0, hotRows))
	coldData := make([][]int64, coldRows)
	for i := range coldData {
		coldData[i] = []int64{int64(i), rng.Int63n(9) - 4}
	}
	db.Tables[cold.ID].AppendRows(coldData)
	for _, t := range db.Tables {
		t.FinishLoad()
	}
	return db, db.Tables[hot.ID], db.Tables[cold.ID]
}

func hotRowsFrom(rng *rand.Rand, first, n int) [][]int64 {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{
			int64(first + i),
			rng.Int63n(5) - 2,
			rng.Int63n(40) - 20,
			-int64(rng.ExpFloat64() * 50),
			rng.Int63() - rng.Int63(),
		}
	}
	return rows
}

// unsealedTwin returns a never-sealed table holding copies of t's columns,
// whose indexes are built from scratch.
func unsealedTwin(t *storage.Table) *storage.Table {
	c := storage.NewTable(t.Meta, 0)
	for i, col := range t.Cols {
		c.Cols[i] = slices.Clone(col)
	}
	return c
}

// checkIndexes requires t's ordered index on column pos to equal a
// from-scratch build on an unsealed copy, and to hold every row exactly
// once in (value, row) order.
func checkIndexes(t *testing.T, label string, tbl, twin *storage.Table, pos int) {
	t.Helper()
	col := tbl.Col(pos)
	ox, owant := tbl.OrderedIndex(pos), twin.OrderedIndex(pos)
	if !slices.Equal(ox.Vals, owant.Vals) || !slices.Equal(ox.Rids, owant.Rids) {
		t.Fatalf("%s col %d: ordered index differs from rebuild", label, pos)
	}
	if len(ox.Vals) != len(col) || len(ox.Rids) != len(col) {
		t.Fatalf("%s col %d: ordered index holds %d rows, table %d", label, pos, len(ox.Vals), len(col))
	}
	for i, r := range ox.Rids {
		if col[r] != ox.Vals[i] {
			t.Fatalf("%s col %d: ordered entry %d pairs value %d with row %d (value %d)", label, pos, i, ox.Vals[i], r, col[r])
		}
		if i > 0 && (ox.Vals[i-1] > ox.Vals[i] || ox.Vals[i-1] == ox.Vals[i] && ox.Rids[i-1] >= r) {
			t.Fatalf("%s col %d: ordered entries %d,%d out of (value, row) order", label, pos, i-1, i)
		}
	}
}

// probePreds returns predicates over every column of db at operands around
// and inside each column's current range.
func probePreds(db *storage.Database) []query.Predicate {
	var ps []query.Predicate
	for _, tbl := range db.Tables {
		for _, c := range tbl.Meta.Columns {
			for _, v := range []int64{c.Min - 1, c.Min, (c.Min + c.Max) / 2, c.Max, c.Max + 1, -3, 0, 7} {
				for _, op := range []query.Op{query.OpEQ, query.OpNE, query.OpLT, query.OpLE, query.OpGT, query.OpGE} {
					ps = append(ps, query.Predicate{Col: c, Op: op, Operand: v})
				}
			}
			ps = append(ps, query.Predicate{Col: c, Op: query.OpIn, InSet: []int64{c.Min, -2, 1}})
		}
	}
	return ps
}

// TestRefreshMatchesFromScratch drives generated append sequences through
// AppendRows + RefreshStats — empty batches, batches ending exactly on a
// segment boundary, runs of full segments and ragged ones — and after every
// refresh requires: every column's statistics bitwise equal to the
// map-based reference ANALYZE, catalog min/max/NDV exact, every index
// equal to a from-scratch build, the untouched table's segments and
// statistics kept by pointer, and an estimator built before the refresh
// answering as before.
func TestRefreshMatchesFromScratch(t *testing.T) {
	const segRows = 16
	defer storage.SetSegmentRows(segRows)()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, hot, cold := refreshFixture(rng, 3*segRows+rng.Intn(segRows), 2*segRows+5)
		// Build some indexes before any append, so both extension and
		// lazy builds after a refresh are exercised.
		for pos := range hot.Cols {
			if rng.Intn(2) == 0 {
				hot.OrderedIndex(pos)
			}
		}
		for step := 0; step < 10; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			n := hot.NumRows()
			var batch int
			switch rng.Intn(4) {
			case 0: // empty
			case 1: // up to the next segment boundary
				batch = segRows - n%segRows
			case 2: // whole segments from a boundary-aligned or ragged start
				batch = segRows * (1 + rng.Intn(3))
			default:
				batch = 1 + rng.Intn(2*segRows)
			}

			est := histogram.NewEstimator(db)
			preds := probePreds(db)
			before := make([]float64, len(preds))
			for i, p := range preds {
				before[i] = est.Stats.Selectivity(p)
			}
			var coldSegs [][]*storage.Segment
			var coldStats []*storage.ColStats
			for pos := range cold.Cols {
				coldSegs = append(coldSegs, slices.Clone(cold.Segments(pos)))
				coldStats = append(coldStats, cold.ColStats(pos))
			}

			hot.AppendRows(hotRowsFrom(rng, n, batch))
			unsealed := histogram.Analyze(db)
			for pos, c := range hot.Meta.Columns {
				if d := colStatsDiff(unsealed.Col(c), refAnalyzeColumn(hot.Col(pos))); d != "" {
					t.Fatalf("%s: unsealed hot col %d: %s", label, pos, d)
				}
			}
			stats := RefreshStats(db)

			for _, tbl := range db.Tables {
				if !tbl.Sealed() {
					t.Fatalf("%s: %s not sealed after refresh", label, tbl.Meta.Name)
				}
				twin := unsealedTwin(tbl)
				for pos, c := range tbl.Meta.Columns {
					col := tbl.Col(pos)
					if stats.Col(c) != tbl.ColStats(pos) {
						t.Fatalf("%s: %s col %d: Analyze did not return the seal-time stats", label, tbl.Meta.Name, pos)
					}
					if d := colStatsDiff(stats.Col(c), refAnalyzeColumn(col)); d != "" {
						t.Fatalf("%s: %s col %d: %s", label, tbl.Meta.Name, pos, d)
					}
					mn, mx := slices.Min(col), slices.Max(col)
					if c.Min != mn || c.Max != mx || c.NDV != stats.Col(c).NDV {
						t.Fatalf("%s: %s col %d: catalog (%d,%d,%d), want (%d,%d,%d)",
							label, tbl.Meta.Name, pos, c.Min, c.Max, c.NDV, mn, mx, stats.Col(c).NDV)
					}
					checkIndexes(t, label+" "+tbl.Meta.Name, tbl, twin, pos)
				}
			}
			for pos := range cold.Cols {
				if cold.ColStats(pos) != coldStats[pos] {
					t.Fatalf("%s: clean table's stats for col %d replaced", label, pos)
				}
				segs := cold.Segments(pos)
				if len(segs) != len(coldSegs[pos]) {
					t.Fatalf("%s: clean table's col %d resegmented", label, pos)
				}
				for g := range segs {
					if segs[g] != coldSegs[pos][g] {
						t.Fatalf("%s: clean table's col %d segment %d rebuilt", label, pos, g)
					}
				}
			}
			for i, p := range preds {
				if got := est.Stats.Selectivity(p); math.Float64bits(got) != math.Float64bits(before[i]) {
					t.Fatalf("%s: estimator built before the refresh moved on %s: %v -> %v", label, p, before[i], got)
				}
			}
		}
	}

	// The generated IMDB-like data: Zipf fan-outs, correlated attributes.
	gen := datagen.Generate(datagen.Config{Titles: 1500, Seed: 3})
	stats := histogram.Analyze(gen)
	for _, tbl := range gen.Tables {
		for pos, c := range tbl.Meta.Columns {
			if d := colStatsDiff(stats.Col(c), refAnalyzeColumn(tbl.Col(pos))); d != "" {
				t.Fatalf("generated %s: %s", c.QualifiedName(), d)
			}
		}
	}
}

// BenchmarkRefreshStats times RefreshStats after one 4096-row append to
// cast_info of a generated database (the append itself is untimed).
func BenchmarkRefreshStats(b *testing.B) {
	db := datagen.Generate(datagen.Config{Titles: 20_000, Seed: 1})
	ci := db.TableByName("cast_info")
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rows := make([][]int64, 4096)
		for j := range rows {
			src := rng.Intn(ci.NumRows())
			rows[j] = make([]int64, len(ci.Cols))
			for c := range rows[j] {
				rows[j][c] = ci.Cols[c][src]
			}
		}
		ci.AppendRows(rows)
		b.StartTimer()
		RefreshStats(db)
	}
}

// TestRefreshCostsTheBatch: once a table keeps its value runs (from its
// first refresh after an append), a 16-row append plus RefreshStats on a
// 131,072-row table of low-NDV columns allocates a small fraction of one
// sorted copy of one column (8 bytes per row): the refresh sorts the batch,
// not the table.
func TestRefreshCostsTheBatch(t *testing.T) {
	const rows = 1 << 17
	s := catalog.NewSchema()
	meta := s.AddTable("big", catalog.Attr("a"), catalog.Attr("b"), catalog.Attr("c"))
	db := storage.NewDatabase(s)
	tbl := storage.NewTable(meta, rows)
	db.Tables[meta.ID] = tbl
	rng := rand.New(rand.NewSource(1))
	for c := range tbl.Cols {
		for r := range tbl.Cols[c] {
			tbl.Cols[c][r] = rng.Int63n(50)
		}
		// Spare capacity, so no append below regrows a column: that cost
		// belongs to the append, and is amortized over many.
		tbl.Cols[c] = slices.Grow(tbl.Cols[c], 1024)
	}
	tbl.FinishLoad()
	batch := func() [][]int64 {
		b := make([][]int64, 16)
		for i := range b {
			b[i] = []int64{rng.Int63n(50), rng.Int63n(50), rng.Int63n(50)}
		}
		return b
	}
	tbl.AppendRows(batch())
	RefreshStats(db) // sorts the whole table once, and keeps the runs

	const oneSortedCopy = 8 * rows
	var most uint64
	for round := 0; round < 4; round++ {
		b := batch()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tbl.AppendRows(b)
		RefreshStats(db)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		if got > oneSortedCopy/16 {
			t.Fatalf("round %d: append + refresh of 16 rows allocated %d bytes; one sorted column copy is %d",
				round, got, oneSortedCopy)
		}
		most = max(most, got)
	}
	t.Logf("append + refresh of 16 rows allocated at most %d bytes; one sorted column copy is %d", most, oneSortedCopy)
	for pos, c := range meta.Columns {
		if d := colStatsDiff(tbl.ColStats(pos), refAnalyzeColumn(tbl.Col(pos))); d != "" {
			t.Fatalf("col %s: %s", c.Name, d)
		}
	}
}

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// seq returns the bytes lo, lo+step, ... below hi.
func seq(lo, hi, step int) []byte {
	var b []byte
	for v := lo; v < hi; v += step {
		b = append(b, byte(v))
	}
	return b
}

// FuzzRefreshMatchesFromScratch drives arbitrary append sequences into a
// sealed two-column table — a unique id above every earlier one, and a
// value column of the input's choosing — at a segment size the input
// picks. Each step appends one batch: empty, arbitrary small values, new
// values below the minimum or above the maximum, or copies of one value
// (an existing row's, which can promote it into the MCV list and push
// another out, or a new one). After every refresh each column's statistics
// must equal the map-based reference ANALYZE bit for bit and the catalog's
// min, max and NDV must be exact; the unsealed statistics read between the
// append and the refresh must equal the reference too.
func FuzzRefreshMatchesFromScratch(f *testing.F) {
	// The input is: initial row count, that many values, then steps of
	// (op, batch size - 1, operand bytes); op 0x80 also checks the
	// unsealed statistics.
	// 20 distinct values; a 40-copy batch of one of them takes the top of
	// the MCV list, then 40 copies of a new value, each pushing out a tie.
	f.Add(uint8(4), append(append([]byte{20}, seq(0, 20, 1)...), 2, 39, 100, 0x85, 39, 7))
	// Values below the minimum and above the maximum, into an empty table.
	f.Add(uint8(0), []byte{0, 0x83, 4, 1, 2, 3, 4, 5, 0x84, 3, 9, 8, 7, 6, 3, 0, 9, 4, 0, 9})
	// All-duplicate and empty batches on a constant column.
	f.Add(uint8(7), []byte{16, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 2, 63, 0, 0, 0, 0x82, 9, 50, 0x80, 0})
	// Mixed small values: some new, some already held, around the middle.
	f.Add(uint8(1), append(append([]byte{64}, seq(0, 128, 2)...), 0x81, 31, 0x81, 3, 5, 7, 9, 11))
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		data := make([]byte, 64+rng.Intn(512))
		rng.Read(data)
		data[0] %= 64
		f.Add(uint8(rng.Intn(64)), data)
	}
	f.Fuzz(func(t *testing.T, segRows uint8, data []byte) {
		defer storage.SetSegmentRows(1 + int(segRows%64))()
		in := fuzzBytes(data)
		s := catalog.NewSchema()
		meta := s.AddTable("f", catalog.PK("id"), catalog.Attr("v"))
		db := storage.NewDatabase(s)
		tbl := storage.NewTable(meta, 0)
		db.Tables[meta.ID] = tbl
		row := func(v int64) []int64 { return []int64{int64(tbl.NumRows()), v} }
		load := make([][]int64, int(in.next()))
		for i := range load {
			load[i] = []int64{int64(i), int64(int8(in.next()))}
		}
		tbl.AppendRows(load)
		tbl.FinishLoad()

		for step := 0; len(in) > 0 && step < 64 && tbl.NumRows() < 1<<13; step++ {
			op, n := in.next(), 1+int(in.next()%64)
			v := meta.Columns[1]
			var vals []int64
			switch op % 6 {
			case 0: // empty batch
			case 1: // arbitrary small values
				for range n {
					vals = append(vals, int64(int8(in.next())))
				}
			case 2: // copies of an existing row's value
				var x int64
				if tbl.NumRows() > 0 {
					x = tbl.Col(1)[int(in.next())*tbl.NumRows()/256]
				}
				for range n {
					vals = append(vals, x)
				}
			case 3: // below the minimum
				for range n {
					vals = append(vals, v.Min-1-int64(in.next()))
				}
			case 4: // above the maximum
				for range n {
					vals = append(vals, v.Max+1+int64(in.next()))
				}
			default: // copies of a new value
				x := v.Max + 1 + int64(in.next())
				for range n {
					vals = append(vals, x)
				}
			}
			batch := make([][]int64, 0, len(vals))
			for _, x := range vals {
				batch = append(batch, row(x))
			}
			tbl.AppendRows(batch)
			if op&0x80 != 0 {
				for pos := range tbl.Cols {
					if d := colStatsDiff(tbl.ColStats(pos), refAnalyzeColumn(tbl.Col(pos))); d != "" {
						t.Fatalf("step %d: unsealed col %d: %s", step, pos, d)
					}
				}
			}
			stats := RefreshStats(db)
			for pos, c := range meta.Columns {
				col := tbl.Col(pos)
				cs := stats.Col(c)
				if d := colStatsDiff(cs, refAnalyzeColumn(col)); d != "" {
					t.Fatalf("step %d: col %d: %s", step, pos, d)
				}
				var mn, mx int64
				if len(col) > 0 {
					mn, mx = slices.Min(col), slices.Max(col)
				}
				if c.Min != mn || c.Max != mx || c.NDV != cs.NDV {
					t.Fatalf("step %d: col %d: catalog (%d,%d,%d), want (%d,%d,%d)",
						step, pos, c.Min, c.Max, c.NDV, mn, mx, cs.NDV)
				}
			}
		}
	})
}
