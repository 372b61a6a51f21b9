// Command bench is the repository's benchmark: four workloads over the
// paper's end-to-end ledger T_end = T_P + T_I + T_R + T_E, embedded and
// served, reading and ingesting. It drives the system only through the root
// lpce facade and internal/server's HTTP handler, and sets no tuning knob:
// whatever the product ships as default is what is measured. README.md
// defines every workload and metric.
//
//	bash bench/run.sh --workload job_exec --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef names one metric; BENCHMARK.json lists the same names and units.
type metricDef struct{ Name, Unit string }

var workloadNames = []string{"job_exec", "deep_plan", "serve_short", "ingest_scan"}

// endToEnd is what a user of the system sees; an untraced run reports it.
var endToEnd = []metricDef{
	{"pass_ms", "ms"},
	{"op_geomean_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"setup_s", "s"},
}

// perLayer is what single layers did; a traced run reports it. Times and
// counts are per pass unless the name says otherwise, and a layer the
// workload never enters reads 0.
var perLayer = []metricDef{
	{"parse_us", "us"},
	{"t_plan_ms", "ms"},
	{"estimate_calls", "count"},
	{"t_infer_ms", "ms"},
	{"infer_us_per_call", "us"},
	{"t_reopt_ms", "ms"},
	{"reopts", "count"},
	{"reopt_ms_per_trigger", "ms"},
	{"t_exec_ms", "ms"},
	{"exec_work_units", "count"},
	{"append_ms", "ms"},
	{"reseal_ms", "ms"},
	{"segments_skipped_ratio", "ratio"},
	{"bytes_decoded", "bytes"},
	{"first_scan_after_refresh_ms", "ms"},
	{"ingest_rows_per_s", "1/s"},
	{"analyze_ms", "ms"},
	{"serve_overhead_us", "us"},
	{"prepared_hit_ratio", "ratio"},
	{"shed", "count"},
	{"datagen_s", "s"},
	{"collect_s", "s"},
	{"train_s", "s"},
	{"op_p99_ms", "ms"},
	{"trace_overhead", "ratio"},
	{"shape_share", "ratio"},
}

// shapeFloor is the least shape_share that still justifies each workload:
// the share of a pass spent where the workload is meant to put its load.
var shapeFloor = map[string]float64{
	"job_exec":    0.80, // t_exec_ms / pass_ms
	"deep_plan":   0.60, // (t_plan_ms + t_infer_ms + t_reopt_ms) / pass_ms
	"serve_short": 0.40, // serve_overhead_us / op_geomean_ms
	"ingest_scan": 0.50, // (append_ms + reseal_ms + analyze_ms) / pass_ms
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what --out appends: the result plus what produced it.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Seconds  float64        `json:"seconds"`
	Samples  map[string]int `json:"samples"` // sample count behind each timing
	Failure  string         `json:"failure,omitempty"`
	// SelfMS is, for a traced run, each layer's self time per pass: its
	// spans' durations minus what their child spans cover.
	SelfMS map[string]float64 `json:"self_ms,omitempty"`
	Env    envInfo            `json:"env"`
	result
}

type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func currentEnv() envInfo {
	e := envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// runOne sets the workload up (SetupReps times, keeping the last), measures
// it, and assembles the report. tracePath is where a traced run writes its
// spans.
func runOne(name string, seed int64, seconds float64, traced bool, sz sizes, tracePath string) (*report, error) {
	setup, ok := setups[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	var w workload
	var setupS []float64
	for i := 0; i < sz.SetupReps; i++ {
		if w != nil {
			w.close()
			w = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = setup(seed, sz); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer w.close()

	rep := &report{Workload: name, Seed: seed, Trace: traced, Seconds: seconds, Env: currentEnv(), Samples: map[string]int{}}
	rep.Metrics = map[string]metric{}
	if !traced {
		m, err := w.measure(seconds, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rep.count(m)
		ops := m.allOps()
		values := map[string]float64{
			"pass_ms":       median(m.PassMS),
			"op_geomean_ms": m.opGeomean(),
			"op_p90_ms":     quantile(ops, 0.90),
			"setup_s":       median(setupS),
		}
		rep.fill(endToEnd, values)
		rep.Samples["pass_ms"], rep.Samples["op_geomean_ms"], rep.Samples["op_p90_ms"], rep.Samples["setup_s"] = len(m.PassMS), len(ops), len(ops), len(setupS)
		return rep, nil
	}

	// A traced run measures half its time untraced, so that the overhead of
	// tracing is read within one process, then half traced.
	base, err := w.measure(seconds/2, false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	m, err := w.measure(seconds/2, true)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rep.count(base)
	rep.count(m)
	if err := writeTrace(tracePath, traceHeader{Workload: name, Seed: seed}, m.Spans); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	rep.fill(perLayer, layerValues(name, w.setupParts(), base, m))
	rep.SelfMS = map[string]float64{}
	for layer, d := range selfTimes(m.Spans) {
		rep.SelfMS[layer] = ms(d) / float64(len(m.PassMS))
	}
	rep.Samples["passes"], rep.Samples["operations"], rep.Samples["spans"] = len(m.PassMS), len(m.allOps()), len(m.Spans)
	return rep, nil
}

// count adds a block's operations to the report's totals.
func (r *report) count(m *measured) {
	r.Attempted += m.Attempted
	r.Failed += m.Failed
	if r.Failure == "" {
		r.Failure = m.FirstFailure
	}
	r.Correct = r.Failed == 0
}

func (r *report) fill(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		r.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
}

// layerValues derives every per-layer metric of a traced block from the
// block's sums; the ledger phases equal the self times of their spans.
func layerValues(name string, parts setupParts, base, m *measured) map[string]float64 {
	passes := float64(len(m.PassMS))
	l := m.Ledger
	plan, infer, reopt, exec := ms(l.Plan)/passes, ms(l.Infer)/passes, ms(l.Reopt)/passes, ms(l.Exec)/passes
	v := map[string]float64{
		"t_plan_ms":            plan,
		"estimate_calls":       float64(l.EstimateCalls) / passes,
		"t_infer_ms":           infer,
		"infer_us_per_call":    ratio(float64(l.Infer)/float64(time.Microsecond), float64(l.EstimateCalls)),
		"t_reopt_ms":           reopt,
		"reopts":               float64(l.Reopts) / passes,
		"reopt_ms_per_trigger": ratio(ms(l.Reopt), float64(l.Reopts)),
		"t_exec_ms":            exec,
		"exec_work_units":      float64(l.Work) / passes,
		"analyze_ms":           ms(parts.Analyze),
		"datagen_s":            parts.Datagen.Seconds(),
		"collect_s":            parts.Collect.Seconds(),
		"train_s":              parts.Train.Seconds(),
		"op_p99_ms":            quantile(m.allOps(), 0.99),
		"trace_overhead":       ratio(median(m.PassMS), median(base.PassMS)),
	}
	for k, x := range m.Layer {
		v[k] = x
	}
	pass := median(m.PassMS)
	switch name {
	case "job_exec":
		v["shape_share"] = ratio(exec, pass)
	case "deep_plan":
		v["shape_share"] = ratio(plan+infer+reopt, pass)
	case "serve_short":
		v["shape_share"] = ratio(v["serve_overhead_us"]/1000, m.opGeomean())
	case "ingest_scan":
		v["shape_share"] = ratio(v["append_ms"]+v["reseal_ms"]+v["analyze_ms"], pass)
	}
	return v
}

// print writes one line per metric to standard error and the result object
// as the last line of standard output.
func (r *report) print() error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("%-12s %-28s %14.4f %-6s", r.Workload, n, r.Metrics[n].Value, r.Metrics[n].Unit)
		if s, ok := r.Samples[n]; ok {
			line += fmt.Sprintf(" n=%d", s)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if r.Trace {
		layers := make([]string, 0, len(r.SelfMS))
		for l := range r.SelfMS {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(os.Stderr, "%-12s self time per pass  %-10s %12.4f ms\n", r.Workload, l, r.SelfMS[l])
		}
		share, floor := r.Metrics["shape_share"].Value, shapeFloor[r.Workload]
		verdict := "ok"
		if share < floor {
			verdict = "BELOW FLOOR: the workload no longer loads the layer it was built for"
		}
		fmt.Fprintf(os.Stderr, "%-12s shape_share %.3f, floor %.2f: %s\n", r.Workload, share, floor, verdict)
		if r.Workload == "deep_plan" {
			perPass := float64(r.Samples["operations"]) / float64(r.Samples["passes"])
			fmt.Fprintf(os.Stderr, "%-12s reopts per query %.2f, floor 0.50\n", r.Workload, r.Metrics["reopts"].Value/perPass)
		}
	}
	fmt.Fprintf(os.Stderr, "%-12s attempted %d, failed %d\n", r.Workload, r.Attempted, r.Failed)
	line, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// appendReport appends the report as one JSON line.
func appendReport(path string, r *report) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracePath is relative to the benchmark's directory, where run.sh starts
// the program.
const tracePath = "out/trace.jsonl"

func run() error {
	workloadFlag := flag.String("workload", "all", "workload to run: job_exec, deep_plan, serve_short, ingest_scan, or all")
	seed := flag.Int64("seed", 1, "seed of the data, the training workload, the appended rows and the query order")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "0 reports the end-to-end metrics; 1 records spans and reports the per-layer metrics")
	out := flag.String("out", "", "append each run's report to this file as one JSON line")
	compare := flag.Bool("compare", false, "compare two --out files given as arguments, against the bounds in ../BENCHMARK.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("--compare takes two report files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), "../BENCHMARK.json", os.Stdout)
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}

	type job struct {
		name   string
		traced bool
	}
	jobs := []job{{*workloadFlag, *trace != 0}}
	if *workloadFlag == "all" {
		jobs = nil
		for _, n := range workloadNames {
			jobs = append(jobs, job{n, false}, job{n, true})
		}
	}
	// Every traced workload of this process appends its section to the file.
	if err := os.Remove(tracePath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	var failures []string
	for _, j := range jobs {
		rep, err := runOne(j.name, *seed, *seconds, j.traced, fullSizes, tracePath)
		if err != nil {
			return err
		}
		if *out != "" {
			if err := appendReport(*out, rep); err != nil {
				return err
			}
		}
		if rep.Failed > 0 {
			// No result line: a wrong answer is not a measurement.
			failures = append(failures, fmt.Sprintf("%s: %d of %d operations failed, first: %s", j.name, rep.Failed, rep.Attempted, rep.Failure))
			continue
		}
		if err := rep.print(); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%v", failures)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
