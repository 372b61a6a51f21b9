package storage

import (
	"cmp"
	"slices"
)

// Column statistics for the histogram estimator (the paper's ANALYZE
// step). FinishLoad computes them once per dirty column from a single sort
// of a copy of the column; internal/histogram reads them through
// Table.ColStats and keeps only the selectivity math.

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

func sortedCopy(col []int64) []int64 {
	s := slices.Clone(col)
	slices.Sort(s)
	return s
}

// valueRun is a run of equal values in a sorted column.
type valueRun struct{ start, count int }

// statsOfSorted computes the statistics from a sorted column: NDV and the
// MCVs from its run lengths, the histogram bounds from its ranks with the
// MCV runs skipped.
func statsOfSorted(s []int64) *ColStats {
	n := len(s)
	cs := &ColStats{RowCount: n}
	if n == 0 {
		return cs
	}
	// better orders runs as the MCV list does: count descending, then value
	// ascending.
	better := func(a, b valueRun) bool {
		if a.count != b.count {
			return a.count > b.count
		}
		return s[a.start] < s[b.start]
	}
	var top [NumMCVs]valueRun
	k := 0
	for i := 0; i < n; {
		j := i + 1
		for j < n && s[j] == s[i] {
			j++
		}
		r := valueRun{i, j - i}
		cs.NDV++
		i = j
		if k == NumMCVs && !better(r, top[k-1]) {
			continue
		}
		if k < NumMCVs {
			k++
		}
		p := k - 1
		for p > 0 && better(r, top[p-1]) {
			top[p] = top[p-1]
			p--
		}
		top[p] = r
	}

	mcvs := top[:k]
	cs.MCVVals = make([]int64, k)
	cs.MCVFreqs = make([]float64, k)
	rest := n
	for i, r := range mcvs {
		f := float64(r.count) / float64(n)
		cs.MCVVals[i], cs.MCVFreqs[i] = s[r.start], f
		cs.MCVFrac += f
		rest -= r.count
	}
	if rest == 0 {
		return cs
	}

	// Equi-depth bounds over the non-MCV values: rank r among them sits at
	// s[r + the lengths of the MCV runs starting at or before it].
	slices.SortFunc(mcvs, func(a, b valueRun) int { return cmp.Compare(a.start, b.start) })
	at := func(r int) int64 {
		for _, m := range mcvs {
			if m.start > r {
				break
			}
			r += m.count
		}
		return s[r]
	}
	b := min(NumBuckets, rest)
	cs.Bounds = make([]int64, 0, b+1)
	cs.Bounds = append(cs.Bounds, at(0))
	for i := 1; i <= b; i++ {
		cs.Bounds = append(cs.Bounds, at(i*(rest-1)/b))
	}
	return cs
}
