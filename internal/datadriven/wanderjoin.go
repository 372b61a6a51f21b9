// Package datadriven implements behavioural substitutes for the paper's
// data-driven and hybrid baselines (DeepDB, NeuroCard, FLAT, UAE). Their
// open-source releases are deep generative models over the relation data;
// what the paper uses them for is a single trade-off: estimators that
// access the data are substantially more accurate on correlated joins and
// substantially slower per inference than query-driven models. The
// substitutes reproduce that trade-off by the same mechanism — they access
// the stored data at estimation time:
//
//   - JoinSample (NeuroCard-like) estimates by index-based random walks
//     over the live join graph (wander join), the same full-join
//     distribution NeuroCard's autoregressive model learns;
//   - TableHist (DeepDB-like) combines per-table cluster-mixture
//     selectivities — the sum-product-network idea of modelling a table as
//     a mixture of row clusters — with sampled join fan-outs;
//   - FactorHist (FLAT-like) stratifies the walk starts by cluster for
//     lower variance at fewer walks, mirroring FLAT's
//     factorize-split-sum-product speedup over DeepDB;
//   - CalibratedSample (UAE-like) adds supervised calibration from
//     training queries on top of the walks, mirroring UAE's hybrid
//     data+query training.
//
// Per-estimate cost is real computation (index probes, histogram mixes),
// not a simulated sleep, so end-to-end timing experiments measure honest
// work.
package datadriven

import (
	"math/rand"
	"sync"

	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// walkStep is one relation attachment in the walk order of a subset.
type walkStep struct {
	tableIdx int          // local table index being attached
	conds    []query.Join // join conditions linking it to the prefix
}

// walkPlan computes the attachment order for a subset: its tables in
// query.CanonicalOrder, the order every estimator joins a subset in, each
// attached with the join conditions linking it to the prefix.
func walkPlan(q *query.Query, mask query.BitSet) []walkStep {
	units := make([]query.BitSet, 0, mask.Count())
	for m := mask; m != 0; m &= m - 1 {
		units = append(units, m&-m)
	}
	steps := make([]walkStep, len(units))
	var covered query.BitSet
	for i, u := range q.CanonicalOrder(units) {
		steps[i] = walkStep{tableIdx: u.First(), conds: q.JoinsBetween(covered, u)}
		covered |= u
	}
	return steps
}

// sampler holds the shared wander-join machinery. It is safe for
// concurrent use: the filtered-row cache is guarded by a mutex, and walk
// randomness comes from a per-call generator derived deterministically from
// (sampler seed, query fingerprint, subset mask) — so an estimate never
// depends on which other estimates ran before it, and parallel workloads
// reproduce serial ones bit for bit.
type sampler struct {
	db   *storage.Database
	seed int64

	// mu guards startRows, the per-query cache of filtered start-table row
	// lists.
	mu        sync.Mutex
	startRows map[*query.Query]map[int][]int32
}

// startRowsCacheCap bounds the number of queries with cached filtered-row
// lists; beyond it the whole cache is dropped. Row lists are bounded by
// table sizes, so this caps sampler memory at a small multiple of the
// database size even under endless workloads.
const startRowsCacheCap = 128

func newSampler(db *storage.Database, seed int64) *sampler {
	return &sampler{db: db, seed: seed, startRows: make(map[*query.Query]map[int][]int32)}
}

// rngFor derives the walk generator for one estimate call. Mixing the query
// fingerprint and mask into the seed keeps estimates independent of call
// order while still varying the walks across subsets.
func (s *sampler) rngFor(q *query.Query, mask query.BitSet) *rand.Rand {
	h := uint64(s.seed)*0x9e3779b97f4a7c15 + q.Fingerprint()
	h ^= uint64(mask) * 0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return rand.New(rand.NewSource(int64(h)))
}

// filteredRows returns (and caches per query) the row IDs of table i that
// satisfy the query's predicates on it.
func (s *sampler) filteredRows(q *query.Query, i int) []int32 {
	s.mu.Lock()
	if perQ, ok := s.startRows[q]; ok {
		if rows, ok := perQ[i]; ok {
			s.mu.Unlock()
			return rows
		}
	}
	s.mu.Unlock()

	// compute outside the lock (pure function of immutable query + table
	// data); concurrent duplicates produce identical slices
	meta := q.Tables[i]
	tab := s.db.Table(meta)
	preds := q.PredsOn(meta)
	rows := make([]int32, 0, tab.NumRows()/4)
	for r := 0; r < tab.NumRows(); r++ {
		ok := true
		for _, p := range preds {
			if !p.Eval(tab.Col(p.Col.Pos)[r]) {
				ok = false
				break
			}
		}
		if ok {
			rows = append(rows, int32(r))
		}
	}

	s.mu.Lock()
	if len(s.startRows) >= startRowsCacheCap {
		s.startRows = make(map[*query.Query]map[int][]int32)
	}
	perQ := s.startRows[q]
	if perQ == nil {
		perQ = make(map[int][]int32)
		s.startRows[q] = perQ
	}
	perQ[i] = rows
	s.mu.Unlock()
	return rows
}

// wander runs numWalks random walks over the subset's join graph and
// returns the unbiased cardinality estimate (Li et al.'s wander join with
// per-step conditioning): each walk starts from a uniformly random filtered
// row of the first table and extends one relation at a time through
// ordered-index point lookups. At every step the probe's candidate rows are
// filtered by the new table's predicates and the remaining join conditions
// *before* the walk weight is multiplied by the candidate count — the
// estimator stays unbiased but walks only die on genuine dead ends, which
// keeps variance manageable on deep joins where naive rejection sampling
// loses nearly every walk.
//
// startAt optionally overrides the start-row choice (used by the stratified
// variant); pass nil for uniform starts. The rng handed to startAt is the
// walk generator, so stratified phases stay deterministic per call.
func (s *sampler) wander(q *query.Query, mask query.BitSet, numWalks int, startAt func(rng *rand.Rand, rows []int32, walk int) int32) float64 {
	steps := walkPlan(q, mask)
	start := s.filteredRows(q, steps[0].tableIdx)
	if len(start) == 0 {
		return 0
	}
	if len(steps) == 1 {
		return float64(len(start))
	}

	rng := s.rngFor(q, mask)
	var total float64
	assignment := make(map[int]int32, len(steps)) // local table idx -> row
	var survivors []int32
	for walk := 0; walk < numWalks; walk++ {
		var startRow int32
		if startAt != nil {
			startRow = startAt(rng, start, walk)
		} else {
			startRow = start[rng.Intn(len(start))]
		}
		w := float64(len(start))
		assignment[steps[0].tableIdx] = startRow
		alive := true
		for _, st := range steps[1:] {
			matches, ok := s.stepMatches(q, st, assignment)
			if !ok || len(matches) == 0 {
				alive = false
				break
			}
			// condition on the predicates and extra join conditions before
			// weighting
			survivors = survivors[:0]
			for _, row := range matches {
				if s.rowPasses(q, st.tableIdx, row) && s.extraCondsHold(q, st, assignment, row) {
					survivors = append(survivors, row)
				}
			}
			if len(survivors) == 0 {
				alive = false
				break
			}
			w *= float64(len(survivors))
			assignment[st.tableIdx] = survivors[rng.Intn(len(survivors))]
		}
		if alive {
			total += w
		}
	}
	return total / float64(numWalks)
}

// fallbackEstimate is used when every walk dies (rare after per-step
// conditioning, but possible on highly selective deep joins): a crude
// independence estimate from the exact filtered start count and per-edge
// NDVs. Far better than returning 1, which would turn a large true
// cardinality into a catastrophic q-error.
func (s *sampler) fallbackEstimate(q *query.Query, mask query.BitSet) float64 {
	steps := walkPlan(q, mask)
	est := float64(len(s.filteredRows(q, steps[0].tableIdx)))
	for _, st := range steps[1:] {
		rows := float64(len(s.filteredRows(q, st.tableIdx)))
		ndv := 1
		for _, c := range st.conds {
			if c.Left.NDV > ndv {
				ndv = c.Left.NDV
			}
			if c.Right.NDV > ndv {
				ndv = c.Right.NDV
			}
		}
		est = est * rows / float64(ndv)
	}
	if est < 1 {
		est = 1
	}
	return est
}

// wanderWithFallback runs wander and falls back to the independence
// estimate when no walk survives.
func (s *sampler) wanderWithFallback(q *query.Query, mask query.BitSet, numWalks int, startAt func(rng *rand.Rand, rows []int32, walk int) int32) float64 {
	v := s.wander(q, mask, numWalks, startAt)
	if v >= 1 {
		return v
	}
	return s.fallbackEstimate(q, mask)
}

// stepMatches looks the first join condition's value up in the new table's
// ordered index.
func (s *sampler) stepMatches(q *query.Query, st walkStep, assignment map[int]int32) ([]int32, bool) {
	c := st.conds[0]
	newCol, prevCol := c.Left, c.Right
	if q.TableIndex(c.Left.Table) != st.tableIdx {
		newCol, prevCol = c.Right, c.Left
	}
	prevIdx := q.TableIndex(prevCol.Table)
	prevRow, ok := assignment[prevIdx]
	if !ok {
		return nil, false
	}
	val := s.db.Table(prevCol.Table).Col(prevCol.Pos)[prevRow]
	return s.db.Table(newCol.Table).OrderedIndex(newCol.Pos).Range(val, val), true
}

// rowPasses checks the query predicates on the sampled row.
func (s *sampler) rowPasses(q *query.Query, tableIdx int, row int32) bool {
	meta := q.Tables[tableIdx]
	tab := s.db.Table(meta)
	for _, p := range q.PredsOn(meta) {
		if !p.Eval(tab.Col(p.Col.Pos)[row]) {
			return false
		}
	}
	return true
}

// extraCondsHold verifies the remaining join conditions (beyond the probe
// condition) between the sampled row and the walk's current assignment.
func (s *sampler) extraCondsHold(q *query.Query, st walkStep, assignment map[int]int32, row int32) bool {
	for _, c := range st.conds[1:] {
		newCol, prevCol := c.Left, c.Right
		if q.TableIndex(c.Left.Table) != st.tableIdx {
			newCol, prevCol = c.Right, c.Left
		}
		prevIdx := q.TableIndex(prevCol.Table)
		prevRow, ok := assignment[prevIdx]
		if !ok {
			continue
		}
		lv := s.db.Table(newCol.Table).Col(newCol.Pos)[row]
		rv := s.db.Table(prevCol.Table).Col(prevCol.Pos)[prevRow]
		if lv != rv {
			return false
		}
	}
	return true
}
