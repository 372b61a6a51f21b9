// Command lpce-train runs the training half of the experiment pipeline —
// synthetic database, sample collection via the instrumented engine, LPCE-I
// distillation, LPCE-R two-stage training, and the query-driven baselines —
// and saves every model as a versioned artifact directory that
// `lpce-bench -models-in=<dir>` loads instead of retraining.
//
// Training is deterministic per (scale, seed) and byte-identical for every
// -workers value, so artifacts are cacheable by (scale, seed, code
// version): train once, keep the directory, and every later run skips
// straight to evaluation.
//
// Usage:
//
//	lpce-train [-scale tiny|small|full] [-seed N] [-workers N] [-out dir]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/lpce-db/lpce/internal/experiments"
)

func main() {
	scale := flag.String("scale", "small", "training scale: tiny, small, or full")
	seed := flag.Int64("seed", 1, "random seed for data, workload and model init")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "training worker goroutines (weights are identical for any value)")
	out := flag.String("out", "models", "output directory for model artifacts")
	flag.Parse()

	start := time.Now()
	fmt.Printf("training environment (scale=%s, seed=%d, workers=%d)...\n", *scale, *seed, *workers)
	env, err := experiments.SetupWith(experiments.ParseScale(*scale), *seed, experiments.SetupOptions{
		TrainWorkers: *workers,
		TrainOnly:    true,
	})
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
	fmt.Printf("artifacts written to %s (schema fingerprint %016x) in %s total\n",
		*out, env.Enc.Fingerprint(), time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
