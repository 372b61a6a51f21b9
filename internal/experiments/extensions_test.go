package experiments

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"github.com/lpce-db/lpce/internal/joblike"
	"github.com/lpce-db/lpce/internal/obs"
)

func TestExtReopt(t *testing.T) {
	e := env(t)
	r, err := ExtReopt(e, "test", e.JoinHigh[:3])
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	if r.Rows[0].Reopts != 0 {
		t.Fatal("the no-reopt strategy must not re-optimize")
	}
	for _, row := range r.Rows {
		if row.TotalSec <= 0 {
			t.Fatalf("%s: no time recorded", row.Name)
		}
	}
	out := r.Render()
	for _, frag := range []string{"overlay reopt", "LPCE-R", "cost-aware"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q", frag)
		}
	}
}

func TestExtTriggerSweep(t *testing.T) {
	e := env(t)
	r, err := ExtTriggerSweep(e, "test", e.JoinHigh[:2])
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// lower thresholds must trigger at least as often as higher ones
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Threshold < r.Rows[i-1].Threshold {
			t.Fatal("thresholds not ascending")
		}
	}
	if r.Rows[0].Reopts < r.Rows[len(r.Rows)-1].Reopts {
		t.Fatal("lowest threshold should reopt at least as much as highest")
	}
	_ = r.Render()
}

var (
	jobLikeOnce sync.Once
	jobLikeRes  *JobLikeResult
	jobLikeErr  error
)

// jobLike runs the JOB-like driver once on the tiny environment and shares
// the result between the tests below, which read it without changing it.
func jobLike(t *testing.T) *JobLikeResult {
	t.Helper()
	e := env(t)
	jobLikeOnce.Do(func() { jobLikeRes, jobLikeErr = JobLike(e) })
	if jobLikeErr != nil {
		t.Fatal(jobLikeErr)
	}
	return jobLikeRes
}

// TestJobSuite checks the per-query half of the JOB-like driver: every
// named query has a timed run under each of the three stacks, and the
// render carries the stacks' columns and the TOTAL row.
func TestJobSuite(t *testing.T) {
	r := jobLike(t)
	if len(r.Rows) != len(joblike.Names()) || len(r.Rows) != 22 {
		t.Fatalf("rows = %d, want 22", len(r.Rows))
	}
	for _, row := range r.Rows {
		if len(row.Runs) != 3 {
			t.Fatalf("%s: %d runs, want 3", row.Name, len(row.Runs))
		}
		for i, run := range row.Runs {
			if run.Seconds <= 0 {
				t.Fatalf("%s (%s): missing timing", row.Name, r.Stacks[i].Name)
			}
		}
	}
	out := r.Render()
	for _, frag := range []string{"TOTAL", "PostgreSQL", "LPCE-I", "LPCE-R"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q:\n%s", frag, out)
		}
	}
}

// TestObservability checks the observed half of the JOB-like driver: one
// report per stack with its phase, per-operator and CE-evaluation tables,
// and valid JSON for the -metrics-out report.
func TestObservability(t *testing.T) {
	r := jobLike(t)
	if len(r.Stacks) != 3 {
		t.Fatalf("stacks = %d, want 3", len(r.Stacks))
	}
	for _, s := range r.Stacks {
		rep := s.Report
		if rep == nil || rep.Queries != 22 {
			t.Fatalf("%s: report %+v, want 22 queries observed", s.Name, rep)
		}
		if len(rep.Phases) != 5 {
			t.Fatalf("%s: want 5 phases, got %d", s.Name, len(rep.Phases))
		}
		if len(rep.Operators) == 0 {
			t.Fatalf("%s: no operator stats", s.Name)
		}
		// every operator that ran charged work, so its ns/work is defined
		for _, op := range rep.Operators {
			if op.Work <= 0 {
				t.Fatalf("%s: %s ran %d times with work %d, want > 0", s.Name, op.Op, op.Count, op.Work)
			}
		}
		if len(rep.CE) == 0 {
			t.Fatalf("%s: no CE evaluation", s.Name)
		}
		for _, ce := range rep.CE {
			if ce.Matched == 0 {
				t.Fatalf("%s/%s: no estimates matched a true cardinality", s.Name, ce.Estimator)
			}
		}
	}

	out := r.Render()
	for _, frag := range []string{"phase latency", "per-operator runtime stats", "ns/work", "CE evaluation"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q:\n%s", frag, out)
		}
	}

	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("result not JSON-serializable: %v", err)
	}
	var back JobLikeResult
	if err := json.Unmarshal(raw, &back); err != nil || len(back.Rows) != 22 || len(back.Stacks) != 3 {
		t.Fatalf("JSON does not round-trip: %v", err)
	}
}

// TestJobLikeCountsAgree checks the cross-stack COUNT(*) check on
// hand-made results: a stack counting a query differently is an error
// naming the query and the stack, and a run over the work budget has no
// count to compare.
func TestJobLikeCountsAgree(t *testing.T) {
	var stacks []JobLikeStack
	for _, name := range []string{"PostgreSQL", "LPCE-I", "LPCE-R"} {
		stacks = append(stacks, JobLikeStack{Name: name, Report: &obs.Report{}})
	}
	row := func(name string, runs ...JobLikeRun) JobLikeRow { return JobLikeRow{Name: name, Runs: runs} }
	ok := &JobLikeResult{Stacks: stacks, Rows: []JobLikeRow{
		row("q1", JobLikeRun{Count: 7}, JobLikeRun{Count: 7}, JobLikeRun{Count: 7}),
		row("q2", JobLikeRun{TimedOut: true}, JobLikeRun{Count: 3}, JobLikeRun{Count: 3}),
		row("q3", JobLikeRun{TimedOut: true}, JobLikeRun{TimedOut: true}, JobLikeRun{TimedOut: true}),
	}}
	if err := ok.checkCounts(); err != nil {
		t.Fatalf("agreeing counts rejected: %v", err)
	}
	if !strings.Contains(ok.Render(), "timeout") {
		t.Fatal("a query no stack finished does not render as a timeout")
	}
	bad := &JobLikeResult{Stacks: stacks, Rows: []JobLikeRow{
		row("q1", JobLikeRun{Count: 7}, JobLikeRun{Count: 7}, JobLikeRun{Count: 7}),
		row("q2", JobLikeRun{TimedOut: true}, JobLikeRun{Count: 3}, JobLikeRun{Count: 4}),
	}}
	err := bad.checkCounts()
	if err == nil || !strings.Contains(err.Error(), "q2") || !strings.Contains(err.Error(), "LPCE-R") {
		t.Fatalf("err = %v, want one naming q2 and LPCE-R", err)
	}
}
