package engine

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/reopt"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata/")

// durRE matches Go duration renderings ("1.234ms", "12µs", "1m2.3s") so
// golden comparisons are stable across machines. Cardinalities, operator
// order, and annotations are compared exactly.
var durRE = regexp.MustCompile(`(\d+(\.\d+)?(ns|µs|ms|s|m|h))+`)

func normalizeDurations(s string) string {
	return durRE.ReplaceAllString(s, "<dur>")
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run Golden -update-golden): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestExplainGolden pins the EXPLAIN rendering: operator tree, estimated
// cardinalities, estimator header.
func TestExplainGolden(t *testing.T) {
	db := testutil.TinyDB()
	e := New(db)
	q := workload.NewGenerator(db, 271).Query(3)
	out, err := e.Explain(q, histogram.NewEstimator(db))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain.golden", normalizeDurations(out))
}

// TestExplainAnalyzeGolden pins the instrumented EXPLAIN ANALYZE rendering:
// the phase decomposition line, the per-operator actual/est/time
// annotations, and the re-optimization event listing. Durations are
// normalized; every cardinality is exact and deterministic.
func TestExplainAnalyzeGolden(t *testing.T) {
	db := testutil.TinyDB()
	e := New(db)
	// Seed 263 produces a query whose first checkpoint q-error crosses the
	// threshold, so the golden pins a TRIGGERED event (with its plan diff)
	// as well as suppressed ones.
	q := workload.NewGenerator(db, 263).Query(3)
	hist := histogram.NewEstimator(db)
	cfg := Config{
		Estimator: hist,
		Refiner:   reopt.OverlayRefiner{Base: hist},
		// A low trigger threshold makes the tiny fixture exercise the
		// re-optimization path, so the golden pins event rendering too.
		Policy: reopt.Policy{QErrThreshold: 2, MaxReopts: 2},
		Obs:    obs.NewObserver(),
	}
	out, res, err := e.ExplainAnalyze(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("observability enabled but no trace on the result")
	}
	for _, frag := range []string{"actual=", "est=", "time="} {
		if !strings.Contains(out, frag) {
			t.Fatalf("annotated output missing %q:\n%s", frag, out)
		}
	}
	checkGolden(t, "explain_analyze.golden", normalizeDurations(out))
}
