package engine

import (
	"strings"
	"testing"

	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/workload"
)

func TestExplain(t *testing.T) {
	db, _, _ := fixture(t)
	e := New(db)
	g := workload.NewGenerator(db, 191)
	q := g.Query(3)
	out, err := e.Explain(q, histogram.NewEstimator(db))
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"plan (estimator=postgres", "cardinality estimates", "est="} {
		if !strings.Contains(out, frag) {
			t.Fatalf("explain output missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "true=") {
		t.Fatal("EXPLAIN must not execute (no true cardinalities)")
	}
}

func TestExplainAnalyze(t *testing.T) {
	db, _, _ := fixture(t)
	e := New(db)
	g := workload.NewGenerator(db, 192)
	q := g.Query(2)
	out, res, err := e.ExplainAnalyze(q, Config{Estimator: histogram.NewEstimator(db)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != trueCount(t, db, q) {
		t.Fatal("wrong count")
	}
	for _, frag := range []string{"COUNT(*) =", "planning", "execution", "true="} {
		if !strings.Contains(out, frag) {
			t.Fatalf("explain analyze missing %q:\n%s", frag, out)
		}
	}
}

func TestExplainAnalyzeTimeoutWarning(t *testing.T) {
	db, _, _ := fixture(t)
	e := New(db)
	g := workload.NewGenerator(db, 193)
	q := g.Query(4)
	out, res, err := e.ExplainAnalyze(q, Config{Estimator: histogram.NewEstimator(db), Budget: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut || !strings.Contains(out, "WARNING") {
		t.Fatal("timeout warning missing")
	}
}

// TestExplainAnalyzeRendersPipelinedChecks: a pipelined check's count is a
// lower bound, and EXPLAIN ANALYZE says so.
func TestExplainAnalyzeRendersPipelinedChecks(t *testing.T) {
	qt := &obs.QueryTrace{}
	qt.NewRound()
	qt.AddEvent(obs.ReoptEvent{Op: "HashJoin", EstRows: 243, ActualRows: 12288, QError: 50.57, LowerBound: true, Triggered: true})
	qt.AttachPlanDiff("3/9 operators changed")
	qt.NewRound()
	qt.AddEvent(obs.ReoptEvent{Op: "HashJoin", EstRows: 12288, ActualRows: 15319, QError: 1.2, Suppressed: "below-threshold"})
	var b strings.Builder
	writeReoptEvents(&b, qt)
	want := "re-optimization events:\n" +
		"  round 0 HashJoin (pipelined): est=243 rows≥12288 q-error≥50.6 — TRIGGERED re-planning (3/9 operators changed)\n" +
		"  round 1 HashJoin: est=12288 actual=15319 q-error=1.2 — suppressed: below-threshold\n"
	if got := b.String(); got != want {
		t.Fatalf("events rendered as\n%s\nwant\n%s", got, want)
	}

	// end to end: a query whose pipelined check fires renders it
	db, lpcei, full := fixture(t)
	est := &core.TreeEstimator{Label: "lpce-i", Model: lpcei.Model, Enc: lpcei.Enc}
	for _, q := range pipelinedQueries(t) {
		out, _, err := New(db).ExplainAnalyze(q, Config{Estimator: est, Refiner: full, Policy: pipelinedPolicy, Obs: obs.NewObserver()})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(out, "HashJoin (pipelined): est=") && strings.Contains(out, "rows≥") {
			return
		}
	}
	t.Fatal("no EXPLAIN ANALYZE rendered a pipelined check")
}
