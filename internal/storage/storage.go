// Package storage implements the in-memory column store that backs the
// execution engine: tables hold int64 columns (string attributes are
// dictionary-encoded to integers before load, as the paper does for
// categorical columns), with one ordered index per column, built on demand
// for index scans (range and point), index nested-loop joins, and the
// sampling-based estimators. Sealing a table (FinishLoad) computes its
// column statistics and the per-segment zone maps; appends extend the
// indexes already built, and the next seal re-analyzes only the rows they
// appended: a table that takes DML keeps each column's sorted value counts
// and merges the new rows' counts in, and rebuilds only the zone maps of
// the segments the rows dirtied.
package storage

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/lpce-db/lpce/internal/catalog"
)

// Table holds one relation's data column-major. Reads (including lazy
// index construction) are safe for concurrent use; AppendRows and
// FinishLoad are not and must be externally synchronized against readers.
type Table struct {
	Meta *catalog.Table
	Cols [][]int64

	mu     sync.Mutex      // guards lazy index construction
	ordIdx []*OrderedIndex // per column position, nil until first use

	// Seal state (see segment.go and colstats.go). sealed flips on
	// FinishLoad and off on AppendRows; scans only trust segments,
	// and Analyze only the seal-time statistics, while sealed.
	sealed  bool
	segRows int          // segment granularity this table was sealed with
	segs    [][]*Segment // per column position, nil until first seal
	stats   []*ColStats  // per column position, computed at seal

	// runs holds each column's value runs over its first covered rows, kept
	// once the table takes an AppendRows (nil before: tables that
	// never take DML hold no runs), so a reseal analyzes only the rows
	// past covered.
	runs    []colRuns
	covered int
}

// NewTable allocates a table for the given catalog entry with numRows rows.
func NewTable(meta *catalog.Table, numRows int) *Table {
	t := &Table{
		Meta:   meta,
		Cols:   make([][]int64, len(meta.Columns)),
		ordIdx: make([]*OrderedIndex, len(meta.Columns)),
	}
	for i := range t.Cols {
		t.Cols[i] = make([]int64, numRows)
	}
	return t
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return len(t.Cols[0])
}

// Col returns the column at position pos.
func (t *Table) Col(pos int) []int64 { return t.Cols[pos] }

// ColByName returns the column data for the named column.
func (t *Table) ColByName(name string) []int64 {
	c := t.Meta.Column(name)
	if c == nil {
		panic(fmt.Sprintf("storage: table %s has no column %s", t.Meta.Name, name))
	}
	return t.Cols[c.Pos]
}

// AppendRows adds rows to the table, sealed or not (each row must have one
// value per column). It unseals the table (scans prune nothing until the
// next FinishLoad) and drops only the segment tail the new rows dirty, so
// resealing recomputes the zone maps of the affected segments instead of
// the whole table, and from then on the table keeps its value runs, so
// resealing analyzes only the appended rows. Built indexes are extended
// with the new rows. An empty batch changes nothing. Follow a batch of
// appends with maintain.RefreshStats to reseal and re-analyze.
func (t *Table) AppendRows(rows [][]int64) {
	if len(rows) == 0 {
		return
	}
	if t.runs == nil {
		t.runs = make([]colRuns, len(t.Cols))
	}
	oldRows := t.NumRows()
	t.appendRows(rows)
	if t.sealed && t.segRows > 0 {
		// Segments fully below the old row count are still exact; the
		// ragged tail segment (if any) now has stale rows/zone maps.
		valid := oldRows / t.segRows
		for c := range t.segs {
			if valid < len(t.segs[c]) {
				t.segs[c] = t.segs[c][:valid]
			}
		}
	}
	t.sealed = false
}

// appendRows appends the rows and extends every built index with them, to
// exactly what a rebuild over the grown column would produce: each ordered
// index is replaced by its merge with the new (value, row) pairs.
func (t *Table) appendRows(rows [][]int64) {
	base := t.NumRows()
	for _, row := range rows {
		if len(row) != len(t.Cols) {
			panic(fmt.Sprintf("storage: row width %d, table %s has %d columns",
				len(row), t.Meta.Name, len(t.Cols)))
		}
		for c, v := range row {
			t.Cols[c] = append(t.Cols[c], v)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for pos, ix := range t.ordIdx {
		if ix != nil {
			t.ordIdx[pos] = ix.merge(sortedPairs(t.Cols[pos][base:], base))
		}
	}
}

// FinishLoad seals the table: it computes each column's statistics — the
// catalog's min, max and NDV and the histogram's ColStats — from the
// column's value runs, then computes the segment zone maps. Call once after
// populating the columns; the runs then come from one sort of a copy of
// each column. maintain.RefreshStats calls it again after DML, which sorts
// only the appended rows, merges their runs into the kept ones, and
// rebuilds only the segments the DML invalidated. On a table sealed at the
// current segment granularity with no append since, it returns at once.
func (t *Table) FinishLoad() {
	if t.sealed && t.segRows == segmentRows {
		return
	}
	if !t.sealed {
		stats := make([]*ColStats, len(t.Cols))
		for i := range t.Cols {
			r := t.columnRuns(i, true)
			stats[i] = statsOfRuns(r)
			meta := t.Meta.Columns[i]
			meta.Min, meta.Max, meta.NDV = 0, 0, len(r.vals)
			if len(r.vals) > 0 {
				meta.Min, meta.Max = r.vals[0], r.vals[len(r.vals)-1]
			}
		}
		if t.runs != nil {
			t.covered = t.NumRows()
		}
		t.stats = stats
	}
	t.buildSegments()
	t.sealed = true
}

// columnRuns returns column i's value runs: the kept runs with the rows
// past covered merged in, or the whole column's runs if the table keeps
// none. keep updates the kept runs; otherwise they are left untouched.
func (t *Table) columnRuns(i int, keep bool) colRuns {
	tail := runsOf(t.Cols[i][t.covered:])
	if t.runs == nil {
		return tail
	}
	if !keep {
		r := t.runs[i].clone()
		r.merge(tail)
		return r
	}
	t.runs[i].merge(tail)
	return t.runs[i]
}

// ColStats returns column pos's statistics: the ones computed at seal time
// while the table is sealed, otherwise a fresh computation over the raw
// column by the same function, which leaves the kept runs as they are.
func (t *Table) ColStats(pos int) *ColStats {
	if t.sealed {
		return t.stats[pos]
	}
	return statsOfRuns(t.columnRuns(pos, false))
}

// buildSegments (re)computes the segment zone maps. Valid segments from a
// prior seal at the same granularity are reused; appends since then only
// cost the dirtied tail.
func (t *Table) buildSegments() {
	segRows := segmentRows
	if t.segs == nil || t.segRows != segRows {
		t.segs = make([][]*Segment, len(t.Cols)) // drops any stale prefix
	}
	t.segRows = segRows
	for c, col := range t.Cols {
		nSegs := (len(col) + segRows - 1) / segRows
		prefix := t.segs[c]
		segs := make([]*Segment, nSegs)
		for g := 0; g < nSegs; g++ {
			lo := g * segRows
			hi := min(lo+segRows, len(col))
			if g < len(prefix) && prefix[g] != nil && prefix[g].rows == hi-lo {
				segs[g] = prefix[g] // still exact from the prior seal
				continue
			}
			segs[g] = buildSegment(col[lo:hi])
		}
		t.segs[c] = segs
	}
}

// Sealed reports whether FinishLoad has run with no appends since: the
// state in which segments and zone maps are trustworthy.
func (t *Table) Sealed() bool { return t.sealed }

// SegRows returns the segment granularity the table was sealed with, or 0
// if it has never been sealed.
func (t *Table) SegRows() int { return t.segRows }

// Segments returns the segment zone maps for column pos, or nil if the
// table is not sealed (scans then prune nothing).
func (t *Table) Segments(pos int) []*Segment {
	if !t.sealed {
		return nil
	}
	return t.segs[pos]
}

// OrderedIndex holds (value, row) pairs sorted by value, then row: the one
// index kind, serving range scans and point lookups (Range(v, v)) alike.
type OrderedIndex struct {
	Vals []int64
	Rids []int32
}

// OrderedIndex returns (building if necessary) the ordered index on column
// pos.
func (t *Table) OrderedIndex(pos int) *OrderedIndex {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ix := t.ordIdx[pos]; ix != nil {
		return ix
	}
	ps := sortedPairs(t.Cols[pos], 0)
	ix := &OrderedIndex{Vals: make([]int64, len(ps)), Rids: make([]int32, len(ps))}
	for i, p := range ps {
		ix.Vals[i], ix.Rids[i] = p.v, p.r
	}
	t.ordIdx[pos] = ix
	return ix
}

// Range returns the row IDs whose value v satisfies lo <= v <= hi, in row
// order within each value, using binary search over the ordered index;
// Range(v, v) is a point lookup. The end is searched past start only, where
// a short range's search turns the same way at every step and so runs at
// the branch predictor's pace. The result is capped at its length: an
// append to it copies instead of writing into the index's spare capacity,
// which a later merge may fill.
func (ix *OrderedIndex) Range(lo, hi int64) []int32 {
	start, _ := slices.BinarySearch(ix.Vals, lo)
	end := len(ix.Vals) // every value is <= MaxInt64; hi+1 would wrap
	if hi < math.MaxInt64 {
		end, _ = slices.BinarySearch(ix.Vals[start:], hi+1)
		end += start
	}
	if start >= end {
		return nil
	}
	return ix.Rids[start:end:end]
}

// ordPair is one (value, row) entry of an ordered index.
type ordPair struct {
	v int64
	r int32
}

// sortedPairs returns the pairs (vals[i], base+i) sorted by value, then row.
func sortedPairs(vals []int64, base int) []ordPair {
	ps := make([]ordPair, len(vals))
	for i, v := range vals {
		ps[i] = ordPair{v, int32(base + i)}
	}
	slices.SortFunc(ps, func(a, b ordPair) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return int(a.r - b.r)
	})
	return ps
}

// merge returns a new index holding ix's pairs and the sorted pairs add,
// whose rows all follow ix's: on equal values ix's pairs come first. A
// clustered append, whose values all sort at or after ix's last, extends
// ix's arrays in place of copying them: append writes only past ix's
// length, so ix still reads the pairs it held.
func (ix *OrderedIndex) merge(add []ordPair) *OrderedIndex {
	if len(add) > 0 && (len(ix.Vals) == 0 || add[0].v >= ix.Vals[len(ix.Vals)-1]) {
		out := &OrderedIndex{Vals: ix.Vals, Rids: ix.Rids}
		for _, p := range add {
			out.Vals = append(out.Vals, p.v)
			out.Rids = append(out.Rids, p.r)
		}
		return out
	}
	n := len(ix.Vals) + len(add)
	out := &OrderedIndex{Vals: make([]int64, 0, n), Rids: make([]int32, 0, n)}
	i := 0
	for _, p := range add {
		j := i + sort.Search(len(ix.Vals)-i, func(k int) bool { return ix.Vals[i+k] > p.v })
		out.Vals = append(append(out.Vals, ix.Vals[i:j]...), p.v)
		out.Rids = append(append(out.Rids, ix.Rids[i:j]...), p.r)
		i = j
	}
	out.Vals = append(out.Vals, ix.Vals[i:]...)
	out.Rids = append(out.Rids, ix.Rids[i:]...)
	return out
}

// Database is a set of loaded tables plus their schema.
type Database struct {
	Schema *catalog.Schema
	Tables []*Table // indexed by catalog table ID
}

// NewDatabase allocates a database shell for the schema; tables are filled
// by the data generator.
func NewDatabase(schema *catalog.Schema) *Database {
	return &Database{Schema: schema, Tables: make([]*Table, len(schema.Tables))}
}

// Table returns the storage table for the catalog table.
func (db *Database) Table(meta *catalog.Table) *Table { return db.Tables[meta.ID] }

// TableByName returns the storage table with the given name, or nil.
func (db *Database) TableByName(name string) *Table {
	meta := db.Schema.Table(name)
	if meta == nil {
		return nil
	}
	return db.Tables[meta.ID]
}

// TotalRows returns the sum of row counts across all tables.
func (db *Database) TotalRows() int {
	n := 0
	for _, t := range db.Tables {
		if t != nil {
			n += t.NumRows()
		}
	}
	return n
}
