// Command lpce-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	lpce-bench [-scale tiny|small|full] [-seed N] [-experiment all|table1|
//	           figure1|endtoend|refinement|figure17|figure18|ablations|
//	           extensions|joblike]
//	           [-o file] [-metrics-out file]
//	           [-models-in dir]
//	           [-cpuprofile file] [-memprofile file]
//
// The default runs every experiment at small scale and streams the rendered
// tables to stdout; the names are experiments.Groups, and "all" runs them in
// that order. "endtoend" covers Table 2 and Figures 11–15;
// "refinement" covers Figure 16 and Table 3; "ablations" covers Figures
// 19–21; "extensions" the re-optimization and trigger-sweep extensions. An
// unknown -experiment or -scale is rejected before the set-up starts.
//
// "joblike" runs the JOB-like named suite serially under the PostgreSQL,
// LPCE-I and LPCE-R stacks, each with its own observer, and renders the
// per-query end-to-end times followed by each stack's phase latencies,
// per-operator runtime stats and CE-evaluation q-error tables. It fails if
// the stacks' COUNT(*) differ on any query. -metrics-out writes the whole
// result as JSON; set with any other -experiment, it is rejected before the
// set-up starts.
//
// -models-in loads the SGD-trained models from the model set file that
// `lpce-train -out=<dir>` writes in dir instead of training them. The set
// must match the (scale, seed) schema; a fingerprint mismatch is a hard
// error. Models trained in-process fan each minibatch across
// GOMAXPROCS goroutines; the weights are the same on any machine size.
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
	out := fs.String("o", "", "write output to this file instead of stdout")
	metricsOut := fs.String("metrics-out", "", "write the joblike experiment's result as JSON to this file")
	modelsIn := fs.String("models-in", "", "load trained models from the model set in this directory instead of training")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the experiment to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	g, ok := group(*exp)
	if !ok {
		fmt.Fprintf(stderr, "unknown experiment %q (want one of %s)\n", *exp, strings.Join(experimentNames(), ", "))
		return 2
	}
	if *metricsOut != "" && *exp != "joblike" {
		fmt.Fprintf(stderr, "-metrics-out: only valid with -experiment joblike (got %q)\n", *exp)
		return 2
	}
	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
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
	env, err := experiments.SetupWith(sc, *seed, experiments.SetupOptions{ModelsDir: *modelsIn})
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
	if err := runExperiment(env, w, g, *metricsOut); err != nil {
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

// group returns the experiments.Groups entry named name, nil for "all",
// and false for an unknown name.
func group(name string) (*experiments.Group, bool) {
	if name == "all" {
		return nil, true
	}
	for i := range experiments.Groups {
		if experiments.Groups[i].Name == name {
			return &experiments.Groups[i], true
		}
	}
	return nil, false
}

// experimentNames lists the -experiment values in sorted order.
func experimentNames() []string {
	names := []string{"all"}
	for _, g := range experiments.Groups {
		names = append(names, g.Name)
	}
	sort.Strings(names)
	return names
}

// runExperiment renders one -experiment value: every group (g nil) or one.
// metricsOut, checked to come with joblike alone, receives that group's
// one result as JSON.
func runExperiment(env *experiments.Env, w io.Writer, g *experiments.Group, metricsOut string) error {
	if g == nil {
		return experiments.RunAll(env, w)
	}
	rs, err := g.Run(env)
	if err != nil {
		return err
	}
	for _, r := range rs {
		fmt.Fprintln(w, r.Render())
	}
	if metricsOut == "" {
		return nil
	}
	if err := writeJSON(metricsOut, rs[0]); err != nil {
		return err
	}
	fmt.Fprintf(w, "joblike result written to %s\n", metricsOut)
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
