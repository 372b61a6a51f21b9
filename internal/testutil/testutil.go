// Package testutil provides the shared fixtures used by the test suites:
// small deterministic databases, a brute-force query evaluator that is
// independent of the execution engine, so engine results can be checked
// against a second implementation, and a worker pool (RunEach) for the
// concurrency and soak tests.
package testutil

import (
	"sync"

	"github.com/lpce-db/lpce/internal/datagen"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

var (
	tinyOnce sync.Once
	tinyDB   *storage.Database

	smallOnce sync.Once
	smallDB   *storage.Database
)

// TinyDB returns a cached ~300-title database for fast unit tests.
func TinyDB() *storage.Database {
	tinyOnce.Do(func() {
		tinyDB = datagen.Generate(datagen.Config{Titles: 300, Seed: 42})
	})
	return tinyDB
}

// SmallDB returns a cached ~1200-title database for integration tests.
func SmallDB() *storage.Database {
	smallOnce.Do(func() {
		smallDB = datagen.Generate(datagen.Config{Titles: 1200, Seed: 7})
	})
	return smallDB
}

// BruteCount evaluates a COUNT(*) query by explicit backtracking over base
// tables — a reference implementation sharing no code with the execution
// engine. Exponential in the worst case; use only on TinyDB-sized data.
func BruteCount(db *storage.Database, q *query.Query) int {
	n := len(q.Tables)
	rows := make([]int, n) // current row index per table
	tabs := make([]*storage.Table, n)
	for i, t := range q.Tables {
		tabs[i] = db.Table(t)
	}

	// Precompute per-table predicate checks.
	predOK := func(i, r int) bool {
		for _, p := range q.PredsOn(q.Tables[i]) {
			if !p.Eval(tabs[i].Cols[p.Col.Pos][r]) {
				return false
			}
		}
		return true
	}
	// Check join conditions whose both tables are among the first k+1
	// assigned tables.
	joinOK := func(k int) bool {
		for _, j := range q.Joins {
			li, ri := q.TableIndex(j.Left.Table), q.TableIndex(j.Right.Table)
			if li > k || ri > k {
				continue
			}
			lv := tabs[li].Cols[j.Left.Pos][rows[li]]
			rv := tabs[ri].Cols[j.Right.Pos][rows[ri]]
			if lv != rv {
				return false
			}
		}
		return true
	}

	count := 0
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			count++
			return
		}
		for r := 0; r < tabs[k].NumRows(); r++ {
			rows[k] = r
			if !predOK(k, r) {
				continue
			}
			if !joinOK(k) {
				continue
			}
			rec(k + 1)
		}
	}
	rec(0)
	return count
}
