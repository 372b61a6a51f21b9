package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// benchmarkNames reads the workload and metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (workloads, endToEndNames, perLayerNames []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		workloads = append(workloads, w.Name)
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	for _, m := range bf.EndToEnd {
		endToEndNames = append(endToEndNames, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, units[m.Name])
		}
	}
	for _, m := range bf.PerLayer {
		perLayerNames = append(perLayerNames, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, units[m.Name])
		}
	}
	return workloads, endToEndNames, perLayerNames
}

func metricNames(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// equalSorted reports whether a and b hold the same names in any order.
func equalSorted(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestSmoke runs every workload at toy size, untraced and traced twice, and
// checks the printed names against BENCHMARK.json, that no operation fails,
// and that the exact counts of the single-caller query workloads repeat.
func TestSmoke(t *testing.T) {
	workloads, e2e, layers := benchmarkNames(t)
	if !equalSorted(workloads, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", workloads, workloadNames)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, n := range append(append(append([]string(nil), workloads...), e2e...), layers...) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
	}
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	for _, wl := range workloadNames {
		rep, err := runOne(wl, 7, 0.2, false, toySizes, tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 || !rep.Correct || rep.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %s", wl, rep.Attempted, rep.Failed, rep.Failure)
		}
		if got := metricNames(rep.Metrics); !equalSorted(got, e2e) {
			t.Errorf("%s untraced metrics %v, BENCHMARK.json end_to_end %v", wl, got, e2e)
		}
		for n, m := range rep.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, n, m.Value)
			}
		}

		var traced [2]*report
		for i := range traced {
			if traced[i], err = runOne(wl, 7, 0.2, true, toySizes, tracePath); err != nil {
				t.Fatal(err)
			}
			if traced[i].Failed != 0 {
				t.Errorf("%s traced: failed %d: %s", wl, traced[i].Failed, traced[i].Failure)
			}
			if got := metricNames(traced[i].Metrics); !equalSorted(got, layers) {
				t.Errorf("%s traced metrics %v, BENCHMARK.json per_layer %v", wl, got, layers)
			}
		}
		if wl == "job_exec" || wl == "deep_plan" {
			for _, n := range exactCounts {
				// reopts may be 0 on the six toy queries
				if a, b := traced[0].Metrics[n].Value, traced[1].Metrics[n].Value; a != b || (a == 0 && n != "reopts") {
					t.Errorf("%s: %s = %v then %v, want equal and non-zero", wl, n, a, b)
				}
			}
		}
	}
	if st, err := os.Stat(tracePath); err != nil || st.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
}

// TestCompare checks the verdicts of --compare on hand-made reports.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(file string, pass float64) string {
		path := filepath.Join(dir, file)
		for seed := int64(1); seed <= 3; seed++ {
			r := &report{Workload: "job_exec", Seed: seed}
			r.Metrics = map[string]metric{"pass_ms": {Value: pass + float64(seed)/100, Unit: "ms"}}
			r.Correct = true
			if err := appendReport(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow := write("a.jsonl", 100), write("same.jsonl", 101), write("slow.jsonl", 150)
	var out bytes.Buffer
	if err := compareFiles(a, same, "../BENCHMARK.json", &out); err != nil {
		t.Errorf("1%% slower: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(a, slow, "../BENCHMARK.json", &out); err == nil {
		t.Errorf("50%% slower passed:\n%s", out.String())
	}
}
