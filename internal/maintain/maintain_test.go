package maintain

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/datagen"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/workload"
)

func TestMonitorBasics(t *testing.T) {
	m := NewMonitor(2, 4, 8)
	if m.Drifted() {
		t.Fatal("empty monitor should not report drift")
	}
	// accurate estimates: q ≈ 1
	for i := 0; i < 8; i++ {
		m.Observe(100, 105)
	}
	if m.Observations() != 8 {
		t.Fatalf("observations = %d", m.Observations())
	}
	if m.Drifted() {
		t.Fatalf("median %v within baseline, drift flagged", m.MedianQ())
	}
	// terrible estimates: q = 100 > 2*4
	for i := 0; i < 8; i++ {
		m.Observe(100, 10000)
	}
	if !m.Drifted() {
		t.Fatalf("median %v should trip drift", m.MedianQ())
	}
}

func TestMonitorWarmupGuard(t *testing.T) {
	m := NewMonitor(1, 4, 100)
	m.Observe(1, 1e6) // one catastrophic error
	if m.Drifted() {
		t.Fatal("a single observation must not trip the alarm")
	}
}

func TestMonitorRollingWindow(t *testing.T) {
	m := NewMonitor(1, 4, 4)
	for i := 0; i < 4; i++ {
		m.Observe(1, 1e6) // all bad
	}
	if !m.Drifted() {
		t.Fatal("all-bad window should drift")
	}
	for i := 0; i < 4; i++ {
		m.Observe(100, 100) // all good again — bad ones roll out
	}
	if m.Drifted() {
		t.Fatalf("window should have recovered, median %v", m.MedianQ())
	}
}

func TestMonitorConcurrentObserve(t *testing.T) {
	m := NewMonitor(2, 4, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				m.Observe(100, 100*(1+r.Float64()))
			}
		}(int64(g))
	}
	wg.Wait()
	if q := m.MedianQ(); q < 1 || q > 2 {
		t.Fatalf("median after concurrent writes = %v", q)
	}
}

func TestDefaultsClamped(t *testing.T) {
	m := NewMonitor(0, 0.5, 0)
	m.Observe(1, 1)
	if m.MedianQ() != 1 {
		t.Fatal("clamped monitor broken")
	}
}

// TestDataUpdateDriftAndRetrain is the full future-work loop: train on the
// original data, shift the data distribution with appends, observe drift
// through the monitor, refresh statistics and retrain, and verify the
// alarm clears.
func TestDataUpdateDriftAndRetrain(t *testing.T) {
	db := datagen.Generate(datagen.Config{Titles: 400, Seed: 9})
	enc := encode.NewEncoder(db.Schema)
	gen := workload.NewGenerator(db, 10)

	train := func(seed int64) (*core.TreeEstimator, float64) {
		samples, _ := core.CollectSamples(db, histogram.NewEstimator(db),
			gen.QueriesRange(60, 1, 3), 30_000_000)
		logMax := core.MaxLogCard(samples)
		m := core.TrainTreeModel(core.TrainConfig{
			Hidden: 16, OutWidth: 16, Epochs: 12, Batch: 16, LR: 3e-3, NodeWise: true, Seed: seed,
		}, enc, samples, logMax, nil)
		// validation baseline
		_, qs := core.EvalQError(m, enc, samples)
		var med float64 = 1
		if len(qs) > 0 {
			med = qs[len(qs)/2]
		}
		return &core.TreeEstimator{Label: "lpce-i", Model: m, Enc: enc}, med
	}
	est, baseline := train(1)
	monitor := NewMonitor(baseline, 4, 16)

	observe := func() {
		oracle := exec.NewTrueCardOracle(db)
		for i := 0; i < 16; i++ {
			q := gen.Query(2)
			truth := oracle.EstimateSubset(q, q.AllTablesMask())
			monitor.Observe(truth, est.EstimateSubset(q, q.AllTablesMask()))
		}
	}
	observe()
	preDriftMedian := monitor.MedianQ()

	// Shift the distribution hard: multiply cast_info five-fold with rows
	// pointing at a single previously-unpopular movie.
	ci := db.TableByName("cast_info")
	width := len(ci.Meta.Columns)
	var newRows [][]int64
	for i := 0; i < ci.NumRows()*4; i++ {
		row := make([]int64, width)
		row[0] = 3 // movie_id
		row[1] = int64(i % 50)
		row[2] = int64(i % 11)
		row[3] = int64(i % 100)
		newRows = append(newRows, row)
	}
	ci.AppendRows(newRows)
	RefreshStats(db)

	monitor2 := NewMonitor(baseline, 4, 16)
	oracle := exec.NewTrueCardOracle(db)
	var worst float64 = 1
	for i := 0; i < 16; i++ {
		q := gen.Query(2)
		truth := oracle.EstimateSubset(q, q.AllTablesMask())
		got := est.EstimateSubset(q, q.AllTablesMask())
		monitor2.Observe(truth, got)
		if qe := obs.QError(truth, got); qe > worst {
			worst = qe
		}
	}
	// the old model should now be measurably worse than before the shift
	if monitor2.MedianQ() < preDriftMedian {
		t.Logf("note: post-shift median %v not above pre-shift %v on this sample",
			monitor2.MedianQ(), preDriftMedian)
	}

	// retrain on fresh samples from the updated data: quality must recover
	// to the same order as the original baseline
	est2, baseline2 := train(2)
	monitor3 := NewMonitor(baseline2, 4, 16)
	for i := 0; i < 16; i++ {
		q := gen.Query(2)
		truth := oracle.EstimateSubset(q, q.AllTablesMask())
		monitor3.Observe(truth, est2.EstimateSubset(q, q.AllTablesMask()))
	}
	if monitor3.Drifted() {
		t.Fatalf("freshly retrained model already drifted: median %v vs baseline %v",
			monitor3.MedianQ(), baseline2)
	}
}

func TestAppendRowsInvalidatesIndexes(t *testing.T) {
	db := datagen.Generate(datagen.Config{Titles: 100, Seed: 11})
	ci := db.TableByName("cast_info")
	nBefore := len(ci.OrderedIndex(0).Range(3, 3))
	row := make([]int64, len(ci.Meta.Columns))
	row[0] = 3
	ci.AppendRows([][]int64{row})
	if got := ci.OrderedIndex(0).Range(3, 3); len(got) != nBefore+1 {
		t.Fatalf("index lookup after append = %d rows, want %d", len(got), nBefore+1)
	}
}

func TestAppendRowsWidthMismatchPanics(t *testing.T) {
	db := datagen.Generate(datagen.Config{Titles: 50, Seed: 12})
	ci := db.TableByName("cast_info")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ci.AppendRows([][]int64{{1, 2}})
}
