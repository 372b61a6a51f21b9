package obs

import (
	"encoding/json"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/lpce-db/lpce/internal/query"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := r.Counter("c").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	if r.Gauge("g").Value() != 2.5 {
		t.Fatal("gauge round-trip failed")
	}
}

func TestHistogramSummary(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Summary()
	if s.Count != 100 || s.Max != 100 {
		t.Fatalf("count=%d max=%v", s.Count, s.Max)
	}
	if math.Abs(s.Mean-50.5) > 1e-9 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.P50 < 45 || s.P50 > 55 {
		t.Fatalf("p50 = %v", s.P50)
	}
	if s.P99 < 95 || s.P99 > 100 {
		t.Fatalf("p99 = %v", s.P99)
	}
}

func TestHistogramDownsamples(t *testing.T) {
	h := &Histogram{}
	n := histogramCap * 4
	for i := 0; i < n; i++ {
		h.Observe(float64(i))
	}
	if len(h.vals) >= histogramCap {
		t.Fatalf("histogram retained %d samples, cap %d", len(h.vals), histogramCap)
	}
	s := h.Summary()
	if s.Count != int64(n) || s.Max != float64(n-1) {
		t.Fatalf("count=%d max=%v", s.Count, s.Max)
	}
	mid := float64(n) / 2
	if s.P50 < mid*0.9 || s.P50 > mid*1.1 {
		t.Fatalf("p50 = %v, want ~%v", s.P50, mid)
	}
}

// TestNilSafety: every recording entry point must be a no-op through nil
// receivers, so hot paths record unconditionally.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	if s := r.Snapshot(); s.Counters != nil {
		t.Fatal("nil registry snapshot not empty")
	}
	var c *Counter
	c.Add(1)
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("nil counter")
	}
	var et *ExecTrace
	et.AddOp(OpStats{})
	if et.ByMask(query.NewBitSet()) != nil {
		t.Fatal("nil exec trace")
	}
	var qt *QueryTrace
	qt.AddEvent(ReoptEvent{})
	qt.AttachPlanDiff("x")
	if qt.NewRound() != nil || qt.FinalRound() != nil {
		t.Fatal("nil query trace")
	}
	var o *Observer
	o.Observe(qt)
	if o.Registry() != nil || o.CE() != nil || o.NewQueryTrace(1, "x") != nil || o.Report() != nil {
		t.Fatal("nil observer")
	}
	var rec *CERecorder
	rec.RecordEstimate(1, query.NewBitSet(), 1)
	if rec.Len() != 0 {
		t.Fatal("nil recorder")
	}
	var ce *CEEval
	ce.RecordTrue(1, query.NewBitSet(), 1)
	if ce.Recorder("x") != nil || ce.Report() != nil || ce.TrueCount() != 0 {
		t.Fatal("nil CE eval")
	}
}

// TestDisabledRecordingAllocFree asserts the disabled (nil-receiver) path
// allocates nothing, which is what lets the executor and the controller
// record unconditionally.
func TestDisabledRecordingAllocFree(t *testing.T) {
	var r *Registry
	var et *ExecTrace
	var qt *QueryTrace
	var ce *CEEval
	allocs := testing.AllocsPerRun(1000, func() {
		r.Counter("x").Add(1)
		r.Histogram("y").Observe(1)
		et.AddOp(OpStats{Op: "HashJoin", Rows: 1})
		qt.AddEvent(ReoptEvent{})
		ce.RecordTrue(1, query.NewBitSet(), 1)
		ce.Recorder("x").RecordEstimate(1, query.NewBitSet(), 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled observability path allocates %.1f per op, want 0", allocs)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("hits").Inc()
				r.Histogram("lat").Observe(float64(i))
				r.Gauge("g").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != 8000 {
		t.Fatalf("hits = %d, want 8000", got)
	}
	if s := r.Histogram("lat").Summary(); s.Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", s.Count)
	}
}

func TestQueryTraceRoundsAndEvents(t *testing.T) {
	o := NewObserver()
	qt := o.NewQueryTrace(42, "histogram")
	r0 := qt.NewRound()
	r0.AddOp(OpStats{Op: "SeqScan", Mask: query.NewBitSet().Set(0), EstRows: 10, ActualRows: 12, Rows: 12, Work: 30})
	qt.AddEvent(ReoptEvent{Op: "HashJoin", QError: 80, Triggered: true})
	r1 := qt.NewRound()
	r1.AddOp(OpStats{Op: "MatScan", Mask: query.NewBitSet().Set(0).Set(1), EstRows: 12, ActualRows: 12, Work: 5})
	r1.AddOp(OpStats{Op: "SeqScan", Mask: query.NewBitSet().Set(2), EstRows: 3, ActualRows: 3, Rows: 3, Work: 7})
	qt.AttachPlanDiff("2/5 operators changed")
	qt.ExecTime = time.Millisecond
	o.Observe(qt)

	if len(qt.Rounds) != 2 || qt.Rounds[0].Round != 0 || qt.Rounds[1].Round != 1 {
		t.Fatalf("rounds mis-numbered: %+v", qt.Rounds)
	}
	if qt.Events[0].Round != 0 {
		t.Fatalf("event round = %d, want 0", qt.Events[0].Round)
	}
	if qt.Events[0].PlanDiff != "2/5 operators changed" {
		t.Fatalf("plan diff not attached: %+v", qt.Events[0])
	}
	if got := qt.FinalRound().ByMask(query.NewBitSet().Set(0).Set(1)); got == nil || got.Op != "MatScan" {
		t.Fatalf("ByMask lookup failed: %+v", got)
	}

	rep := o.Report()
	if rep.Queries != 1 || rep.Reopts != 1 {
		t.Fatalf("report queries=%d reopts=%d", rep.Queries, rep.Reopts)
	}
	// operators aggregate per type: the two scans' rows and work add up
	if len(rep.Operators) != 2 || rep.Operators[1].Op != "SeqScan" || rep.Operators[1].Count != 2 ||
		rep.Operators[1].Rows != 15 || rep.Operators[1].Work != 37 || rep.Operators[0].Work != 5 {
		t.Fatalf("operator aggregates = %+v", rep.Operators)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report not serializable: %v", err)
	}

	// A round of three nested joins, in teardown order: each op's figures
	// include its children's, and the report keeps each op's own.
	o = NewObserver()
	qt = o.NewQueryTrace(43, "histogram")
	rd := qt.NewRound()
	mask := func(tables ...int) query.BitSet {
		var m query.BitSet
		for _, i := range tables {
			m = m.Set(i)
		}
		return m
	}
	op := func(name string, m query.BitSet, wall time.Duration, work int64) {
		rd.AddOp(OpStats{Op: name, Mask: m, EstRows: 1, ActualRows: 1, Rows: 1, Wall: wall, Work: work})
	}
	op("SeqScan", mask(0), 10, 100)
	op("SeqScan", mask(1), 20, 200)
	op("HashJoin", mask(0, 1), 10+20+3, 100+200+3)
	op("SeqScan", mask(2), 30, 300)
	op("NestLoopJoin", mask(0, 1, 2), 33+30+5, 303+300+5)
	op("SeqScan", mask(3), 40, 400)
	op("HashJoin", mask(0, 1, 2, 3), 68+40+7, 608+400+7)
	o.Observe(qt)
	rep = o.Report()
	self := func(i int, name string, count int, wall time.Duration, work int64) bool {
		a := rep.Operators[i]
		return a.Op == name && a.Count == count && a.WallSeconds == wall.Seconds() && a.Work == work
	}
	if len(rep.Operators) != 3 || !self(0, "HashJoin", 2, 3+7, 3+7) ||
		!self(1, "NestLoopJoin", 1, 5, 5) || !self(2, "SeqScan", 4, 100, 1000) {
		t.Fatalf("nested operator aggregates = %+v", rep.Operators)
	}
}

// TestObserverTraceWindow holds the bounded trace window to its contract:
// the most recent traces, oldest first, through wrap-around and through
// shrinking, growing and lifting the cap; an exact drop count; and a
// publish into a full window that allocates nothing.
func TestObserverTraceWindow(t *testing.T) {
	o := NewObserver()
	publish := func(from, to int) {
		for i := from; i <= to; i++ {
			o.Observe(&QueryTrace{Fingerprint: uint64(i)})
		}
	}
	check := func(step string, dropped int64, want ...uint64) {
		t.Helper()
		var got []uint64
		for _, qt := range o.Traces() {
			got = append(got, qt.Fingerprint)
		}
		if !slices.Equal(got, want) || o.DroppedTraces() != dropped {
			t.Fatalf("%s: traces %v dropped %d, want %v dropped %d", step, got, o.DroppedTraces(), want, dropped)
		}
	}

	o.SetTraceCap(3)
	publish(1, 10)
	check("cap 3, 10 published", 7, 8, 9, 10)
	o.SetTraceCap(2)
	check("shrunk to 2", 8, 9, 10)
	publish(11, 11)
	check("one more at cap 2", 9, 10, 11)
	o.SetTraceCap(4)
	publish(12, 14)
	check("grown to 4", 10, 11, 12, 13, 14)
	o.SetTraceCap(0)
	publish(15, 16)
	check("unbounded again", 10, 11, 12, 13, 14, 15, 16)

	o.SetTraceCap(8)
	publish(17, 40)
	qt := &QueryTrace{}
	if allocs := testing.AllocsPerRun(100, func() { o.Observe(qt) }); allocs != 0 {
		t.Fatalf("publishing into a full window allocates %v blocks, want 0", allocs)
	}
}

func TestCEEvalReport(t *testing.T) {
	ce := NewCEEval()
	rec := ce.Recorder("histogram")
	m1 := query.NewBitSet().Set(0)
	m2 := query.NewBitSet().Set(0).Set(1)
	m3 := query.NewBitSet().Set(2)
	rec.RecordEstimate(1, m1, 10)
	rec.RecordEstimate(1, m2, 100)
	rec.RecordEstimate(1, m3, 7) // never executed -> unmatched
	ce.RecordTrue(1, m1, 20)     // q-error 2 at size 1
	ce.RecordTrue(1, m2, 1000)   // q-error 10 at size 2

	reps := ce.Report()
	if len(reps) != 1 {
		t.Fatalf("reports = %+v", reps)
	}
	rep := reps[0]
	if rep.Estimator != "histogram" || rep.Matched != 2 || rep.Unmatched != 1 {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Sizes) != 2 || rep.Sizes[0].Size != 1 || rep.Sizes[1].Size != 2 {
		t.Fatalf("sizes: %+v", rep.Sizes)
	}
	if rep.Sizes[0].Max != 2 || rep.Sizes[1].Max != 10 {
		t.Fatalf("q-errors: %+v", rep.Sizes)
	}
	// A second estimator shares the same true cards.
	ce.Recorder("lpce-i").RecordEstimate(1, m1, 20)
	reps = ce.Report()
	if len(reps) != 2 || reps[1].Estimator != "lpce-i" || reps[1].Sizes[0].Max != 1 {
		t.Fatalf("second estimator: %+v", reps)
	}
}

func TestQErrorClamps(t *testing.T) {
	if q := QError(0, 0); q != 1 {
		t.Fatalf("QError(0,0) = %v", q)
	}
	if q := QError(100, 10); q != 10 {
		t.Fatalf("QError(100,10) = %v", q)
	}
	if q := QError(10, 100); q != 10 {
		t.Fatalf("QError(10,100) = %v", q)
	}
	if q := QError(5, 5); q != 1 {
		t.Fatalf("QError(5,5) = %v", q)
	}
}
