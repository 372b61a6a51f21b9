package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactCounts must repeat exactly between two runs of one seed on the
// single-caller query workloads, whose passes do identical work.
var exactCounts = []string{"estimate_calls", "exec_work_units", "reopts"}

func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// spread is the distance between the quartiles as a share of the median.
// The quartiles are those of Python's statistics.quantiles(vals, n=4), its
// "exclusive" method, which is what judges this benchmark's steadiness.
func spread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), median(vals))
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians and spreads, how much worse b is than a, the bound, and a verdict:
// ok, regressed, or unresolved when either spread is wider than the bound.
// It fails on a regression, a failed operation, or an exact count that
// differs between runs of one seed.
func compareFiles(pathA, pathB, benchPath string, w io.Writer) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readReports(pathA)
	if err != nil {
		return err
	}
	b, err := readReports(pathB)
	if err != nil {
		return err
	}

	values := func(rs []report, workload, name string, traced bool) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == traced {
				out = append(out, m.Value)
			}
		}
		return out
	}
	bad := 0
	fmt.Fprintf(w, "%-12s %-10s %12s %7s %12s %7s %8s %6s  %s\n", "workload", "metric", "median a", "spread", "median b", "spread", "worse", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, m := range bf.EndToEnd {
			va, vb := values(a, wl, m.Name, false), values(b, wl, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				bad++
			}
			fmt.Fprintf(w, "%-12s %-10s %12.4f %6.1f%% %12.4f %6.1f%% %+7.1f%% %5.0f%%  %s (n=%d,%d)\n",
				wl, m.Name, ma, 100*spread(va), mb, 100*spread(vb), 100*worse, 100*m.Bound, verdict, len(va), len(vb))
		}
	}
	for _, rs := range [][]report{a, b} {
		for _, r := range rs {
			if r.Failed > 0 {
				fmt.Fprintf(w, "%s seed %d: %d of %d operations failed: %s\n", r.Workload, r.Seed, r.Failed, r.Attempted, r.Failure)
				bad++
			}
		}
	}
	for _, ra := range a {
		if !ra.Trace || (ra.Workload != "job_exec" && ra.Workload != "deep_plan") {
			continue
		}
		for _, rb := range b {
			if !rb.Trace || rb.Workload != ra.Workload || rb.Seed != ra.Seed {
				continue
			}
			for _, name := range exactCounts {
				if x, y := ra.Metrics[name].Value, rb.Metrics[name].Value; x != y {
					fmt.Fprintf(w, "%s seed %d: %s differs, %v against %v\n", ra.Workload, ra.Seed, name, x, y)
					bad++
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions, failures or differing counts", bad)
	}
	return nil
}
