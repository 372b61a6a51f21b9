package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/lpce-db/lpce/internal/datagen"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/experiments"
	"github.com/lpce-db/lpce/internal/modelio"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/reopt"
	"github.com/lpce-db/lpce/internal/workload"
)

// TestBadFlagsRejectedBeforeSetup checks that a bad -estimator or -tenants
// value fails at once with a non-zero status, naming the problem, instead
// of after data generation and model training.
func TestBadFlagsRejectedBeforeSetup(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-estimator", "lpce-x"}, `unknown -estimator "lpce-x"`},
		{[]string{"-tenants", ":2"}, "empty tenant name"},
		{[]string{"-tenants", "a,a"}, `duplicate tenant "a"`},
		{[]string{"-tenants", "a:0"}, "bad tenant weight"},
		{[]string{"-tenants", ","}, "-tenants is empty"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			start := time.Now()
			if code := realMain(tc.args, &stdout, &stderr); code == 0 {
				t.Fatal("exited 0")
			}
			if stdout.Len() != 0 {
				t.Fatalf("set-up started:\n%s", stdout.String())
			}
			if msg := stderr.String(); !strings.Contains(msg, tc.want) {
				t.Fatalf("stderr %q does not contain %q", msg, tc.want)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("rejection took %s", d)
			}
		})
	}
}

// TestParseTenants checks the accepted -tenants forms.
func TestParseTenants(t *testing.T) {
	got, err := parseTenants(" alpha:2, beta ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "alpha" || got[0].Weight != 2 || got[1].Name != "beta" || got[1].Weight != 1 {
		t.Fatalf("parseTenants = %+v", got)
	}
}

// TestShellHistogramModeNeverReoptimizes runs a query whose checkpoint
// q-error under the histogram passes the trigger threshold through the
// histogram-mode shell, which has no refiner: the query must count
// correctly without re-optimizing. A nil refiner that reached the engine as
// a non-nil interface would re-plan through it and panic.
func TestShellHistogramModeNeverReoptimizes(t *testing.T) {
	db := datagen.Generate(datagen.Config{Titles: 300, Seed: 1})
	est, refiner, _, err := buildEstimator(io.Discard, db, encode.NewEncoder(db.Schema), "histogram", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(db)
	gen := workload.NewGenerator(db, 7)
	var q *query.Query
	for i := 0; i < 50 && q == nil; i++ {
		cand := gen.Query(4)
		res, err := eng.Execute(cand, engine.Config{Estimator: est, Refiner: reopt.OverlayRefiner{Base: est}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reopts > 0 {
			q = cand
		}
	}
	if q == nil {
		t.Fatal("no generated query re-optimizes under the histogram; the test exercises nothing")
	}
	want, err := eng.Execute(q, engine.Config{Estimator: est})
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := runShell(&out, strings.NewReader(q.SQL()+"\n"), db, est, refiner, 1); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, fmt.Sprintf("COUNT(*) = %d\n", want.Count)) || !strings.Contains(got, "(0 rounds)") {
		t.Fatalf("shell output lacks COUNT(*) = %d with 0 re-optimization rounds:\n%s", want.Count, got)
	}
}

// TestModelsInNeedsTheTrainingScale saves a model set the way
// `lpce-train -scale=tiny` does and loads it through -models-in: with
// -titles 400, tiny's title count, the lpce-r stack loads and estimates;
// with -titles 1500, the flag's default, the database differs and the set's
// encoder fingerprint rejects it.
func TestModelsInNeedsTheTrainingScale(t *testing.T) {
	env, err := experiments.SetupWith(experiments.ScaleTiny, 1, experiments.SetupOptions{TrainOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := env.ModelSet().Save(dir, env.Enc); err != nil {
		t.Fatal(err)
	}

	db := datagen.Generate(datagen.Config{Titles: 400, Seed: 1})
	est, refiner, set, err := buildEstimator(io.Discard, db, encode.NewEncoder(db.Schema), "lpce-r", dir, 1)
	if err != nil {
		t.Fatalf("-titles 400 -models-in: %v", err)
	}
	if refiner == nil || set == nil || set.Refiner == nil {
		t.Fatalf("lpce-r stack incomplete: refiner=%v set=%v", refiner, set)
	}
	q := workload.NewGenerator(db, 7).Query(3)
	if _, err := engine.New(db).Execute(q, engine.Config{Estimator: est, Refiner: refiner}); err != nil {
		t.Fatalf("loaded stack: %v", err)
	}

	db = datagen.Generate(datagen.Config{Titles: 1500, Seed: 1})
	if _, _, _, err := buildEstimator(io.Discard, db, encode.NewEncoder(db.Schema), "lpce-r", dir, 1); !errors.Is(err, modelio.ErrFingerprint) {
		t.Fatalf("-titles 1500 -models-in: err = %v, want modelio.ErrFingerprint", err)
	}
}
