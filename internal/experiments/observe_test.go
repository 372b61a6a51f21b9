package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestObservability runs the observability experiment on the tiny
// environment with a worker pool and checks the report's load-bearing
// content: per-operator stats, a CE-evaluation table per estimator, and
// valid JSON for the -metrics-out report.
func TestObservability(t *testing.T) {
	e := env(t)
	res, err := Observability(e, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("want 3 configs, got %d", len(res.Runs))
	}
	for _, run := range res.Runs {
		rep := run.Report
		if rep == nil {
			t.Fatalf("%s: nil report", run.Name)
		}
		if rep.Queries == 0 {
			t.Fatalf("%s: no queries observed", run.Name)
		}
		if len(rep.Operators) == 0 {
			t.Fatalf("%s: no operator stats", run.Name)
		}
		if len(rep.Phases) != 5 {
			t.Fatalf("%s: want 5 phases, got %d", run.Name, len(rep.Phases))
		}
		if len(rep.CE) == 0 {
			t.Fatalf("%s: no CE evaluation", run.Name)
		}
		for _, ce := range rep.CE {
			if ce.Matched == 0 {
				t.Fatalf("%s/%s: no estimates matched a true cardinality", run.Name, ce.Estimator)
			}
		}
		hits := rep.Metrics.Counters["cardest.cache.hits"]
		misses := rep.Metrics.Counters["cardest.cache.misses"]
		if hits+misses == 0 {
			t.Fatalf("%s: estimate cache counters missing from the registry", run.Name)
		}
	}

	out := res.Render()
	for _, frag := range []string{"Observability:", "phase latency", "per-operator runtime stats", "CE evaluation"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q:\n%s", frag, out)
		}
	}

	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("result not JSON-serializable: %v", err)
	}
}
