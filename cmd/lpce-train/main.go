// Command lpce-train runs the training half of the experiment pipeline —
// synthetic database, sample collection via the instrumented engine, LPCE-I
// distillation, LPCE-R two-stage training, and the query-driven baselines —
// and saves every model into one versioned, checksummed model set file in
// the -out directory, which `lpce-bench -models-in=<dir>` and
// `lpce-sql -models-in=<dir>` load instead of retraining. A directory
// written by an older format version is rejected on load; retrain it.
//
// Every training loop fans its minibatches across GOMAXPROCS goroutines and
// reduces the per-sample gradients in a fixed order, so training is
// deterministic per (scale, seed) on any machine size and model sets are
// cacheable by (scale, seed, code version): train once, keep the directory,
// and every later run skips straight to evaluation.
//
// Usage:
//
//	lpce-train [-scale tiny|small|full] [-seed N] [-out dir]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/lpce-db/lpce/internal/experiments"
)

func main() {
	scale := flag.String("scale", "small", "training scale: tiny, small, or full")
	seed := flag.Int64("seed", 1, "random seed for data, workload and model init")
	out := flag.String("out", "models", "output directory for the model set file")
	flag.Parse()
	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	start := time.Now()
	fmt.Printf("training environment (scale=%s, seed=%d)...\n", *scale, *seed)
	env, err := experiments.SetupWith(sc, *seed, experiments.SetupOptions{TrainOnly: true})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  collected %d plans (%d skipped), trained all models in %s\n",
		env.CollectStats.Collected, env.CollectStats.Skipped, env.TrainTime.Round(time.Millisecond))
	fmt.Printf("  teacher %d weights -> student %d weights (%.1fx compression)\n",
		env.LPCEI.Teacher.NumWeights(), env.LPCEI.Model.NumWeights(),
		float64(env.LPCEI.Teacher.NumWeights())/float64(env.LPCEI.Model.NumWeights()))

	if err := env.ModelSet().Save(*out, env.Enc); err != nil {
		fatal(err)
	}
	fmt.Printf("model set written to %s (schema fingerprint %016x) in %s total\n",
		*out, env.Enc.Fingerprint(), time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
