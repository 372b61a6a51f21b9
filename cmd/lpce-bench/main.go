// Command lpce-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	lpce-bench [-scale tiny|small|full] [-seed N] [-experiment all|table1|
//	           figure1|endtoend|refinement|ablations|figure17|figure18|
//	           joblike|parallel|observe]
//	           [-parallel N] [-o file]
//	           [-trace] [-metrics-out file]
//	           [-timeout D] [-max-mat-rows N]
//	           [-models-in dir] [-train-workers N]
//	           [-cpuprofile file] [-memprofile file]
//
// The default runs every experiment at small scale and streams the rendered
// tables to stdout. "endtoend" covers Table 2 and Figures 11–15;
// "refinement" covers Figure 16 and Table 3; "ablations" covers Figures
// 19–21. "parallel" executes the test workload concurrently across -parallel
// workers (GOMAXPROCS when 0) and reports aggregate throughput with
// per-phase latency percentiles against the serial baseline. An unknown
// -experiment is rejected before the set-up starts.
//
// -trace (equivalently -experiment observe) runs the JOB-like named suite
// with the full observability layer on and renders per-operator runtime
// stats, re-optimization events, and the CE-evaluation q-error tables.
// -metrics-out writes the complete observability report as JSON (implies
// -trace).
//
// -timeout sets a per-query deadline and -max-mat-rows caps materialized
// intermediate rows per query (both for the observe experiment; zero
// disables each). A query over budget fails alone with a typed error while
// the rest of the workload keeps running; the summary table reports the
// degraded and failed counts.
//
// -models-in loads the SGD-trained models from a versioned artifact
// directory written by `lpce-train -out=<dir>` instead of training them.
// The artifacts must match the (scale, seed) schema; a fingerprint mismatch
// is a hard error. -train-workers fans training across goroutines when
// models are trained in-process (weights are byte-identical for any value).
//
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiment (setup excluded), for digging into executor hot spots with
// `go tool pprof`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/lpce-db/lpce/internal/experiments"
	"github.com/lpce-db/lpce/internal/query"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command and returns its exit status, so deferred
// profile writes and file closes finish before the process exits.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lpce-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "small", "experiment scale: tiny, small, or full")
	seed := fs.Int64("seed", 1, "random seed for data, workload and model init")
	exp := fs.String("experiment", "all", "experiment to run: "+strings.Join(experimentNames(), ", "))
	workers := fs.Int("parallel", 0, "worker count for the parallel experiment (0 = GOMAXPROCS)")
	out := fs.String("o", "", "write output to this file instead of stdout")
	trace := fs.Bool("trace", false, "run the observability pass over the JOB-like suite")
	metricsOut := fs.String("metrics-out", "", "write the full observability report as JSON to this file (implies -trace)")
	timeout := fs.Duration("timeout", 0, "per-query deadline for the observe experiment (0 = none)")
	maxMatRows := fs.Int64("max-mat-rows", 0, "per-query cap on materialized intermediate rows (0 = unlimited)")
	modelsIn := fs.String("models-in", "", "load trained models from this artifact directory instead of training")
	trainWorkers := fs.Int("train-workers", 0, "training worker goroutines (0 = serial; weights are identical for any value)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the experiment to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *metricsOut != "" {
		*trace = true
	}
	if *trace && *exp == "all" {
		*exp = "observe"
	}
	runExp, ok := experimentsByName[*exp]
	if !ok {
		fmt.Fprintf(stderr, "unknown experiment %q (want one of %s)\n", *exp, strings.Join(experimentNames(), ", "))
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w = io.MultiWriter(stdout, f)
	}

	start := time.Now()
	fmt.Fprintf(w, "setting up environment (scale=%s, seed=%d)...\n", *scale, *seed)
	if *modelsIn != "" {
		fmt.Fprintf(w, "loading trained models from %s\n", *modelsIn)
	}
	env, err := experiments.SetupWith(experiments.ParseScale(*scale), *seed, experiments.SetupOptions{
		TrainWorkers: *trainWorkers,
		ModelsDir:    *modelsIn,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, "setup done in %s\n\n", time.Since(start).Round(time.Millisecond))

	// Profiles cover the experiment only; the setup phase (data generation
	// and training) would otherwise drown the executor hot spots.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	opts := options{workers: *workers, metricsOut: *metricsOut, timeout: *timeout, maxMatRows: *maxMatRows}
	if err := runExp(env, w, opts); err != nil {
		return fail(err)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(err)
		}
	}
	fmt.Fprintf(w, "\ntotal wall time: %s\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// options carries the experiment knobs beyond the environment: the parallel
// worker count, the observability output, and the per-query resource
// budgets.
type options struct {
	workers    int
	metricsOut string
	timeout    time.Duration
	maxMatRows int64
}

// experiment runs one -experiment value against a set-up environment.
type experiment func(env *experiments.Env, w io.Writer, opts options) error

// render adapts an experiment returning a printable result.
func render[R interface{ Render() string }](f func(*experiments.Env) R) experiment {
	return func(env *experiments.Env, w io.Writer, _ options) error {
		fmt.Fprintln(w, f(env).Render())
		return nil
	}
}

// experimentsByName is the one table of -experiment values: realMain checks
// a name against it before the set-up and dispatches through it after.
var experimentsByName = map[string]experiment{
	"all": func(env *experiments.Env, w io.Writer, _ options) error {
		return experiments.RunAll(env, w)
	},
	"table1":   render(experiments.Table1),
	"figure1":  render(experiments.Figure1),
	"figure17": render(experiments.Figure17),
	"figure18": render(experiments.Figure18),
	"endtoend": func(env *experiments.Env, w io.Writer, _ options) error {
		sets := []struct {
			label   string
			queries []*query.Query
		}{
			{env.JoinLowLabel, env.JoinLow},
			{env.JoinHighLabel, env.JoinHigh},
			{env.JoinTinyLabel, env.JoinTiny},
		}
		for _, set := range sets {
			suite, err := env.RunSuite(set.label, set.queries)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, experiments.Figure11(suite).Render())
			fmt.Fprintln(w, experiments.Table2(suite).Render())
			fmt.Fprintln(w, experiments.Figure12(suite).Render())
			fmt.Fprintln(w, experiments.Figure13(suite).Render())
			fmt.Fprintln(w, experiments.Figure14(suite).Render())
		}
		return nil
	},
	"refinement": func(env *experiments.Env, w io.Writer, _ options) error {
		samples := env.CollectTestSamples(env.JoinHigh)
		fmt.Fprintln(w, experiments.Figure16(env, env.JoinHighLabel, samples).Render())
		fmt.Fprintln(w, experiments.Table3(env, samples).Render())
		return nil
	},
	"ablations": func(env *experiments.Env, w io.Writer, _ options) error {
		fmt.Fprintln(w, experiments.Figure19And20(env).Render())
		fmt.Fprintln(w, experiments.Figure21(env).Render())
		return nil
	},
	"joblike": func(env *experiments.Env, w io.Writer, _ options) error {
		r, err := experiments.JobSuite(env)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Render())
		return nil
	},
	"parallel": func(env *experiments.Env, w io.Writer, opts options) error {
		r, err := experiments.ParallelBench(env, opts.workers)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Render())
		return nil
	},
	"observe": func(env *experiments.Env, w io.Writer, opts options) error {
		r, err := experiments.ObservabilityWithOptions(env, experiments.ObsOptions{
			Workers: opts.workers, Timeout: opts.timeout, MaxMatRows: opts.maxMatRows,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Render())
		if opts.metricsOut == "" {
			return nil
		}
		if err := writeJSON(opts.metricsOut, r); err != nil {
			return err
		}
		fmt.Fprintf(w, "observability report written to %s\n", opts.metricsOut)
		return nil
	},
}

// experimentNames lists the -experiment values in sorted order.
func experimentNames() []string {
	names := make([]string, 0, len(experimentsByName))
	for name := range experimentsByName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
