// Command lpce-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	lpce-bench [-scale tiny|small|full] [-seed N] [-experiment all|table1|
//	           figure1|endtoend|refinement|ablations|figure17|figure18|
//	           parallel|observe|trainbench|execbench|storagebench|loadbench]
//	           [-parallel N] [-o file]
//	           [-trace] [-metrics-out file] [-bench-out file]
//	           [-timeout D] [-max-mat-rows N]
//	           [-exec-workers N] [-build-workers N]
//	           [-segment-rows N]
//	           [-models-in dir] [-train-workers N]
//	           [-cpuprofile file] [-memprofile file]
//
// The default runs every experiment at small scale and streams the rendered
// tables to stdout. "endtoend" covers Table 2 and Figures 11–15;
// "refinement" covers Figure 16 and Table 3; "ablations" covers Figures
// 19–21. "parallel" executes the test workload concurrently across -parallel
// workers (GOMAXPROCS when 0) and reports aggregate throughput with
// per-phase latency percentiles against the serial baseline.
//
// -trace (equivalently -experiment observe) runs the JOB-like named suite
// with the full observability layer on and renders per-operator runtime
// stats, re-optimization events, and the CE-evaluation q-error tables.
// -metrics-out writes the complete observability report as JSON (implies
// -trace); -bench-out writes the BENCH_e2e.json perf snapshot (per-phase
// time distributions + q-error summary per configuration).
//
// -timeout sets a per-query deadline and -max-mat-rows caps materialized
// intermediate rows per query (both for the observe experiment; zero
// disables each). A query over budget fails alone with a typed error while
// the rest of the workload keeps running; the summary table and bench JSON
// report the degraded and failed counts.
//
// -models-in loads the SGD-trained models from a versioned artifact
// directory written by `lpce-train -out=<dir>` instead of training them —
// the CI bench gate uses this to cache training across runs. The artifacts
// must match the (scale, seed) schema; a fingerprint mismatch is a hard
// error. -train-workers fans training across goroutines when models are
// trained in-process (weights are byte-identical for any value).
//
// "trainbench" (also run automatically when -bench-out is set) trains the
// teacher model twice — serially and with -train-workers workers — asserts
// the weights are bit-identical, and reports the speedup.
//
// "execbench" (also run automatically when -bench-out is set) measures the
// executor on a hash-join probe hot path and across the JOB-like suite.
//
// -exec-workers enables morsel-driven intra-query parallelism at the given
// worker count (default 4; <= 1 keeps execution strictly serial). The
// observe experiment then adds one extra "<config>/px<N>" run per
// configuration alongside the serial baselines, and execbench adds
// serial-vs-parallel measurements (asserting identical result counts), so
// the perf snapshot carries serial and parallel exec walls side by side.
// Results are byte-identical to the serial path for any worker count;
// wall-clock gains track available cores.
//
// "storagebench" (also run automatically when -bench-out is set) measures
// the segmented columnar scan path with zone-map pruning on a clustered
// synthetic table, checking its result counts against a raw-column loop and
// recording the segment skip rate that cmd/benchdiff gates. -segment-rows
// overrides the rows-per-segment granularity for tables sealed after
// startup.
//
// "loadbench" (also run automatically when -bench-out is set) measures the
// parallel build side: the partitioned hash-join build and parallel segment
// sealing against their serial oracles, asserting bitwise layout parity on
// both. -build-workers sets the sealing parallelism for every load and
// stats refresh (0 defaults to -exec-workers, matching how
// engine.Config.BuildWorkers resolves); results are byte-identical to
// serial sealing for any value.
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
	"time"

	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/experiments"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

func main() {
	scale := flag.String("scale", "small", "experiment scale: tiny, small, or full")
	seed := flag.Int64("seed", 1, "random seed for data, workload and model init")
	exp := flag.String("experiment", "all", "experiment to run")
	workers := flag.Int("parallel", 0, "worker count for the parallel experiment (0 = GOMAXPROCS)")
	out := flag.String("o", "", "write output to this file instead of stdout")
	trace := flag.Bool("trace", false, "run the observability pass over the JOB-like suite")
	metricsOut := flag.String("metrics-out", "", "write the full observability report as JSON to this file (implies -trace)")
	benchOut := flag.String("bench-out", "", "write the BENCH_e2e.json perf snapshot to this file (implies -trace)")
	timeout := flag.Duration("timeout", 0, "per-query deadline for the observe experiment (0 = none)")
	maxMatRows := flag.Int64("max-mat-rows", 0, "per-query cap on materialized intermediate rows (0 = unlimited)")
	modelsIn := flag.String("models-in", "", "load trained models from this artifact directory instead of training")
	trainWorkers := flag.Int("train-workers", 0, "training worker goroutines (0 = serial; weights are identical for any value)")
	execWorkers := flag.Int("exec-workers", 4, "morsel-parallelism worker count for observe/execbench (<= 1 = serial only)")
	buildWorkers := flag.Int("build-workers", 0, "parallel segment-sealing workers for loads and stats refresh (0 = match -exec-workers)")
	segmentRows := flag.Int("segment-rows", 0, "rows per columnar segment (0 = default; applies to data generated after startup)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the experiment to this file")
	flag.Parse()
	if *metricsOut != "" || *benchOut != "" {
		*trace = true
	}
	if *segmentRows > 0 {
		storage.SetSegmentRows(*segmentRows)
	}
	// Sealing parallelism defaults to the exec parallelism (resolved the
	// same way engine.Config does); set before setup so the initial data
	// load already seals in parallel.
	bw := engine.Config{ExecWorkers: *execWorkers, BuildWorkers: *buildWorkers}.EffectiveBuildWorkers()
	storage.SetBuildWorkers(bw)
	if *trace && *exp == "all" {
		*exp = "observe"
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
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
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "setup done in %s\n\n", time.Since(start).Round(time.Millisecond))

	opts := obsOpts{
		metricsOut: *metricsOut, benchOut: *benchOut, scale: *scale, seed: *seed,
		timeout: *timeout, maxMatRows: *maxMatRows, trainWorkers: *trainWorkers,
		execWorkers: *execWorkers, buildWorkers: bw,
	}
	// Profiles cover the experiment only; the setup phase (data generation
	// and training) would otherwise drown the executor hot spots.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if err := run(env, *exp, *workers, w, opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}
	fmt.Fprintf(w, "\ntotal wall time: %s\n", time.Since(start).Round(time.Millisecond))
}

// obsOpts carries the observability output destinations and the per-query
// resource budgets into run.
type obsOpts struct {
	metricsOut   string
	benchOut     string
	scale        string
	seed         int64
	timeout      time.Duration
	maxMatRows   int64
	trainWorkers int
	execWorkers  int
	buildWorkers int
}

func run(env *experiments.Env, exp string, workers int, w io.Writer, opts obsOpts) error {
	switch exp {
	case "all":
		return experiments.RunAll(env, w)
	case "table1":
		fmt.Fprintln(w, experiments.Table1(env).Render())
	case "figure1":
		fmt.Fprintln(w, experiments.Figure1(env).Render())
	case "endtoend":
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
	case "refinement":
		samples := env.CollectTestSamples(env.JoinHigh)
		fmt.Fprintln(w, experiments.Figure16(env, env.JoinHighLabel, samples).Render())
		fmt.Fprintln(w, experiments.Table3(env, samples).Render())
	case "ablations":
		fmt.Fprintln(w, experiments.Figure19And20(env).Render())
		fmt.Fprintln(w, experiments.Figure21(env).Render())
	case "figure17":
		fmt.Fprintln(w, experiments.Figure17(env).Render())
	case "figure18":
		fmt.Fprintln(w, experiments.Figure18(env).Render())
	case "joblike":
		r, err := experiments.JobSuite(env)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Render())
	case "parallel":
		r, err := experiments.ParallelBench(env, workers)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Render())
	case "trainbench":
		fmt.Fprintln(w, experiments.TrainBench(env, opts.trainWorkers).Render())
	case "execbench":
		r, err := experiments.ExecBench(env, opts.execWorkers)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Render())
		if !r.CountsIdentical {
			return fmt.Errorf("exec bench: parallel result counts differ from serial")
		}
	case "storagebench":
		r, err := experiments.StorageBench(opts.buildWorkers)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Render())
	case "loadbench":
		r := experiments.LoadBench(opts.buildWorkers)
		fmt.Fprintln(w, r.Render())
		if !r.BuildLayoutIdentical {
			return fmt.Errorf("load bench: parallel hash-build layout diverges from serial")
		}
		if !r.SealLayoutIdentical {
			return fmt.Errorf("load bench: parallel-sealed segments diverge from serial sealing")
		}
	case "observe":
		r, err := experiments.ObservabilityWithOptions(env, experiments.ObsOptions{
			Workers: workers, Timeout: opts.timeout, MaxMatRows: opts.maxMatRows,
			ExecWorkers: opts.execWorkers,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Render())
		if opts.metricsOut != "" {
			if err := writeJSON(opts.metricsOut, r); err != nil {
				return err
			}
			fmt.Fprintf(w, "observability report written to %s\n", opts.metricsOut)
		}
		if opts.benchOut != "" {
			snap := r.Snapshot(opts.scale, opts.seed)
			// The perf snapshot carries the training benchmark so the CI
			// gate also watches training-side regressions (determinism and
			// speedup).
			snap.Training = experiments.TrainBench(env, opts.trainWorkers)
			fmt.Fprintln(w, snap.Training.Render())
			if !snap.Training.WeightsIdentical {
				return fmt.Errorf("train bench: parallel weights differ from serial weights")
			}
			// ... and the executor benchmark, so it also watches executor
			// walls and serial/parallel count parity.
			eb, err := experiments.ExecBench(env, opts.execWorkers)
			if err != nil {
				return err
			}
			snap.Exec = eb
			fmt.Fprintln(w, eb.Render())
			if !eb.CountsIdentical {
				return fmt.Errorf("exec bench: parallel result counts differ from serial")
			}
			// ... and the serving benchmark, so it also watches the
			// multi-tenant server path (throughput, tail latency, hot-swap).
			sb, err := experiments.ServerBench(env, opts.execWorkers)
			if err != nil {
				return err
			}
			snap.Server = sb
			fmt.Fprintf(w, "server bench: %d queries, %d tenants, %d workers (bucket %.0f qps burst %d): %.0f qps, p50 %.2fms, p99 %.2fms, %d swaps, %d served, %d shed, %d retries, %d rate-limit hits, counts identical: %v\n",
				sb.Queries, sb.Tenants, sb.Workers, sb.RateQPS, sb.RateBurst,
				sb.QPS, sb.P50Millis, sb.P99Millis, sb.Swaps, sb.Served, sb.Shed,
				sb.Retries, sb.RateLimitHits, sb.CountsIdentical)
			if !sb.CountsIdentical {
				return fmt.Errorf("server bench: served results diverge from the bare engine")
			}
			if sb.RateQPS > 0 && sb.Served != sb.Queries {
				return fmt.Errorf("server bench: served %d of %d queries under rate limiting", sb.Served, sb.Queries)
			}
			// ... and the storage benchmark, so it also watches the segmented
			// scan path (counts against the raw columns and zone-map skip
			// rate).
			stb, err := experiments.StorageBench(opts.buildWorkers)
			if err != nil {
				return err
			}
			snap.Storage = stb
			fmt.Fprintln(w, stb.Render())
			// ... and the build-side benchmark, so it also watches the
			// parallel hash-join build and parallel sealing (walls and
			// bitwise layout parity against the serial oracles).
			lb := experiments.LoadBench(opts.buildWorkers)
			snap.Load = lb
			fmt.Fprintln(w, lb.Render())
			if !lb.BuildLayoutIdentical {
				return fmt.Errorf("load bench: parallel hash-build layout diverges from serial")
			}
			if !lb.SealLayoutIdentical {
				return fmt.Errorf("load bench: parallel-sealed segments diverge from serial sealing")
			}
			if err := writeJSON(opts.benchOut, snap); err != nil {
				return err
			}
			fmt.Fprintf(w, "perf snapshot written to %s\n", opts.benchOut)
		}
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
