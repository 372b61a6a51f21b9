package storage

import "slices"

// Column statistics for the histogram estimator (the paper's ANALYZE
// step). FinishLoad computes them per dirty column from the column's value
// runs — its sorted distinct values with their row counts — and catalog
// min, max and NDV with them. A table that has taken an AppendRows
// keeps its runs between seals, so a refresh sorts only the appended rows
// and merges their runs in; internal/histogram reads the statistics
// through Table.ColStats and keeps only the selectivity math.

// Tunables mirroring PostgreSQL's default_statistics_target behaviour.
const (
	// NumMCVs is the length of a column's most-common-value list.
	NumMCVs = 16
	// NumBuckets is the number of equi-depth histogram buckets over the
	// values outside the MCV list.
	NumBuckets = 64
)

// ColStats holds the statistics for one column. A ColStats is immutable
// once built: a reseal replaces the table's pointers instead of updating
// them, so an estimator keeps the snapshot it was built from.
type ColStats struct {
	RowCount int
	NDV      int
	// MCVs: most common values (count descending, then value ascending)
	// with their frequency fractions; MCVFrac is the fractions' running sum.
	MCVVals  []int64
	MCVFreqs []float64
	MCVFrac  float64
	// Bounds are equi-depth histogram bucket boundaries over the non-MCV
	// values (len = min(NumBuckets, non-MCV rows)+1 when populated).
	Bounds []int64
}

// colRuns is a column's run-length encoding in value order: its distinct
// values ascending, and the number of rows holding each.
type colRuns struct {
	vals   []int64
	counts []int32
}

// runsOfSorted run-length encodes a sorted column in place: the distinct
// values are compacted into the front of s, which the result's vals alias.
func runsOfSorted(s []int64) colRuns {
	if len(s) == 0 {
		return colRuns{}
	}
	ndv, prev := 1, s[0]
	for _, v := range s[1:] {
		if v != prev {
			ndv++
			prev = v
		}
	}
	counts := make([]int32, ndv)
	w, run := 0, int32(1)
	prev = s[0]
	for _, v := range s[1:] {
		if v == prev {
			run++
			continue
		}
		counts[w] = run
		w++
		s[w], prev, run = v, v, 1
	}
	counts[w] = run
	return colRuns{vals: s[:ndv], counts: counts}
}

// runsOf returns the runs of the unsorted values col, sorting a copy.
func runsOf(col []int64) colRuns {
	s := slices.Clone(col)
	slices.Sort(s)
	return runsOfSorted(s)
}

// clone returns a copy of r that shares no memory with it.
func (r colRuns) clone() colRuns {
	return colRuns{vals: slices.Clone(r.vals), counts: slices.Clone(r.counts)}
}

// merge adds the runs add into r in place: the counts of values r already
// holds grow, and the others are inserted in order. It costs a binary
// search per run of add, plus a shift of r's runs above the smallest
// inserted value.
func (r *colRuns) merge(add colRuns) {
	fresh, lo := 0, 0
	for j, v := range add.vals {
		i, found := slices.BinarySearch(r.vals[lo:], v)
		lo += i
		if found {
			r.counts[lo] += add.counts[j]
		} else {
			fresh++
		}
	}
	if fresh == 0 {
		return
	}
	n := len(r.vals)
	r.vals = slices.Grow(r.vals, fresh)[:n+fresh]
	r.counts = slices.Grow(r.counts, fresh)[:n+fresh]
	// Fill from the back; w-i is the number of fresh values still to place.
	i, w := n-1, n+fresh-1
	for j := len(add.vals) - 1; w > i; {
		switch {
		case i >= 0 && r.vals[i] > add.vals[j]:
			r.vals[w], r.counts[w] = r.vals[i], r.counts[i]
			i--
			w--
		case i >= 0 && r.vals[i] == add.vals[j]:
			j-- // counted above
		default:
			r.vals[w], r.counts[w] = add.vals[j], add.counts[j]
			j--
			w--
		}
	}
}

// statsOfRuns computes a column's statistics from its runs: NDV and the
// MCVs from the run counts, the histogram bounds from the ranks of the
// non-MCV rows.
func statsOfRuns(r colRuns) *ColStats {
	// better orders runs as the MCV list does: count descending, then value
	// ascending.
	better := func(a, b int) bool {
		if r.counts[a] != r.counts[b] {
			return r.counts[a] > r.counts[b]
		}
		return r.vals[a] < r.vals[b]
	}
	var top [NumMCVs]int // indices into r, best first
	k, n := 0, 0
	floor := int32(0) // the last MCV's count once the list is full
	for x, c := range r.counts {
		n += int(c)
		// Runs come in value order, so one whose count ties the last MCV's
		// never displaces it.
		if k == NumMCVs && c <= floor {
			continue
		}
		if k < NumMCVs {
			k++
		}
		p := k - 1
		for p > 0 && better(x, top[p-1]) {
			top[p] = top[p-1]
			p--
		}
		top[p] = x
		if k == NumMCVs {
			floor = r.counts[top[k-1]]
		}
	}
	cs := &ColStats{RowCount: n, NDV: len(r.vals)}
	if n == 0 {
		return cs
	}

	mcvs := top[:k]
	cs.MCVVals = make([]int64, k)
	cs.MCVFreqs = make([]float64, k)
	rest := n
	for i, x := range mcvs {
		f := float64(r.counts[x]) / float64(n)
		cs.MCVVals[i], cs.MCVFreqs[i] = r.vals[x], f
		cs.MCVFrac += f
		rest -= int(r.counts[x])
	}
	if rest == 0 {
		return cs
	}

	// Equi-depth bounds over the non-MCV rows, at nondecreasing ranks: one
	// walk over the runs, skipping the MCV runs.
	slices.Sort(mcvs)
	b := min(NumBuckets, rest)
	cs.Bounds = make([]int64, 0, b+1)
	x, below := 0, 0 // current run, and the non-MCV rows before it
	for i := 0; i <= b; i++ {
		rank := i * (rest - 1) / b
		for {
			if len(mcvs) > 0 && mcvs[0] == x {
				mcvs = mcvs[1:]
			} else if rank < below+int(r.counts[x]) {
				break
			} else {
				below += int(r.counts[x])
			}
			x++
		}
		cs.Bounds = append(cs.Bounds, r.vals[x])
	}
	return cs
}
