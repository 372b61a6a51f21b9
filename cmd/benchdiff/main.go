// Command benchdiff compares two BENCH_e2e.json perf snapshots (written by
// `lpce-bench -bench-out`) and fails when the candidate regresses against
// the baseline, so CI can gate merges on end-to-end performance and
// estimator accuracy.
//
// Usage:
//
//	benchdiff -baseline BENCH_e2e.json -candidate bench_new.json
//	          [-max-regress 0.25] [-min-seconds 0.5]
//
// For every configuration present in both snapshots (matched by name) it
// compares
//
//   - end-to-end wall time: a regression beyond -max-regress (default +25%)
//     fails, unless both sides are under -min-seconds (absolute slack that
//     keeps sub-second tiny-scale runs from flapping on scheduler noise);
//   - executor wall time (the summed T_E component), under the same rule —
//     this is the number the vectorized batch executor exists to improve;
//   - CE-evaluation accuracy: each estimator's sample-weighted mean q-error
//     p50 across subset sizes, with the same relative threshold;
//   - correctness tallies: any increase in failed queries fails outright, as
//     does a training benchmark whose weights were not bit-identical;
//   - zone-map effectiveness: the storage benchmark's segment skip rate
//     (segments_skipped / segments_total) must not drop more than 20% below
//     the committed baseline's, and the segmented path must actually have
//     engaged (its result counts are checked against the raw columns when
//     the snapshot is written);
//   - build-side determinism and wall time: the load benchmark's parallel
//     hash-join build and parallel segment sealing must both report layouts
//     bitwise identical to their serial oracles, the serial build/seal walls
//     must not regress beyond -max-regress, the parallel walls must not
//     exceed serial by more than 10% (parallelism must never cost), and a
//     candidate missing the block while the baseline carries it fails;
//   - morsel-parallelism sanity, within the candidate alone: every
//     "<config>/pxN" run's executor wall must not exceed its serial
//     "<config>" run's by more than 10% or -min-seconds absolute (whichever
//     is larger; sub-min-seconds deltas on short walls are scheduler noise).
//     Speedups above 1 are expected to track available cores and are
//     reported but not gated, so single-core CI machines don't flap.
//
// Exit status 0 when everything holds, 1 on any regression, 2 on usage or
// I/O errors. The report prints every comparison, not just failures, so the
// CI log doubles as a perf changelog.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/lpce-db/lpce/internal/experiments"
	"github.com/lpce-db/lpce/internal/obs"
)

func main() {
	baseline := flag.String("baseline", "", "baseline snapshot (committed BENCH_e2e.json)")
	candidate := flag.String("candidate", "", "candidate snapshot to check")
	maxRegress := flag.Float64("max-regress", 0.25, "maximum tolerated relative regression (0.25 = +25%)")
	minSeconds := flag.Float64("min-seconds", 0.5, "ignore wall-time regressions when both runs are under this many seconds")
	flag.Parse()
	if *baseline == "" || *candidate == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -candidate are required")
		flag.Usage()
		os.Exit(2)
	}

	base, err := readSnapshot(*baseline)
	if err != nil {
		fatal(err)
	}
	cand, err := readSnapshot(*candidate)
	if err != nil {
		fatal(err)
	}

	failures := compare(os.Stdout, base, cand, *maxRegress, *minSeconds)
	if failures > 0 {
		fmt.Printf("\nFAIL: %d regression(s) beyond +%.0f%%\n", failures, *maxRegress*100)
		os.Exit(1)
	}
	fmt.Println("\nOK: no regressions")
}

func readSnapshot(path string) (*experiments.BenchSnapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s experiments.BenchSnapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("benchdiff: parse %s: %w", path, err)
	}
	return &s, nil
}

// compare prints every comparison and returns the number of regressions.
func compare(w *os.File, base, cand *experiments.BenchSnapshot, maxRegress, minSeconds float64) int {
	if base.Scale != cand.Scale {
		fmt.Fprintf(w, "note: scale differs (baseline %q, candidate %q); comparing anyway\n", base.Scale, cand.Scale)
	}
	failures := 0
	baseCfgs := make(map[string]experiments.BenchConfigSnapshot, len(base.Configs))
	for _, c := range base.Configs {
		baseCfgs[c.Name] = c
	}
	for _, c := range cand.Configs {
		b, ok := baseCfgs[c.Name]
		if !ok {
			fmt.Fprintf(w, "config %-12s new in candidate, skipped\n", c.Name)
			continue
		}
		failures += checkWall(w, c.Name, "e2e wall", b.WallSeconds, c.WallSeconds, maxRegress, minSeconds)
		failures += checkWall(w, c.Name, "exec wall", b.ExecWallSeconds, c.ExecWallSeconds, maxRegress, minSeconds)
		if c.Failed > b.Failed {
			fmt.Fprintf(w, "config %-12s failed queries %d -> %d  REGRESSION\n", c.Name, b.Failed, c.Failed)
			failures++
		}
		failures += checkCE(w, c.Name, b, c, maxRegress)
	}
	if cand.Training != nil && !cand.Training.WeightsIdentical {
		fmt.Fprintf(w, "training: parallel weights differ from serial  REGRESSION\n")
		failures++
	}
	if cand.Training != nil {
		fmt.Fprintf(w, "training: %d workers on %d cores, %.2fx speedup, weights identical: %v\n",
			cand.Training.Workers, cand.Training.Cores, cand.Training.Speedup, cand.Training.WeightsIdentical)
	}
	failures += checkParallel(w, cand, minSeconds)
	failures += checkServer(w, base.Server, cand.Server, maxRegress, minSeconds)
	failures += checkStorage(w, base.Storage, cand.Storage)
	failures += checkLoad(w, base.Load, cand.Load, maxRegress, minSeconds)
	return failures
}

// checkLoad gates the build-side benchmark: both parallel build paths — the
// partitioned hash-join build and parallel segment sealing — must have
// produced layouts bitwise identical to their serial oracles, the serial
// build walls must not regress beyond -max-regress against the baseline
// (with the usual sub-minSeconds slack), and the parallel walls must not
// exceed their serial counterparts by more than parallelOverhead within the
// candidate. A candidate that drops the block while the baseline carries it
// fails — the gate cannot be dodged by not running it.
func checkLoad(w *os.File, base, cand *experiments.LoadBenchResult, maxRegress, minSeconds float64) int {
	if cand == nil {
		if base != nil {
			fmt.Fprintf(w, "load bench: present in baseline, missing in candidate  REGRESSION\n")
			return 1
		}
		return 0
	}
	failures := 0
	if !cand.BuildLayoutIdentical {
		fmt.Fprintf(w, "load bench: parallel hash-join build layout diverged from serial  REGRESSION\n")
		failures++
	}
	if !cand.SealLayoutIdentical {
		fmt.Fprintf(w, "load bench: parallel segment sealing diverged from serial  REGRESSION\n")
		failures++
	}
	if base != nil {
		failures += checkWall(w, "load", "build wall", base.BuildSerialSeconds, cand.BuildSerialSeconds, maxRegress, minSeconds)
		failures += checkWall(w, "load", "seal wall", base.SealSerialSeconds, cand.SealSerialSeconds, maxRegress, minSeconds)
	}
	overhead := func(label string, serial, parallel float64) {
		status := "ok"
		switch {
		case serial <= 0:
			status = "no serial wall"
		case parallel <= serial*(1+parallelOverhead):
		case parallel-serial < minSeconds:
			status = "ok (under min-seconds slack)"
		default:
			status = "REGRESSION"
			failures++
		}
		speedup := 0.0
		if parallel > 0 {
			speedup = serial / parallel
		}
		fmt.Fprintf(w, "load bench: %s parallel %8.3fs vs serial %8.3fs  (%.2fx, %d workers)  %s\n",
			label, parallel, serial, speedup, cand.BuildWorkers, status)
	}
	overhead("hash build", cand.BuildSerialSeconds, cand.BuildParallelSeconds)
	overhead("segment seal", cand.SealSerialSeconds, cand.SealParallelSeconds)
	fmt.Fprintf(w, "load bench: layouts identical: build %v, seal %v (%d build rows, %d seal rows)\n",
		cand.BuildLayoutIdentical, cand.SealLayoutIdentical, cand.BuildRows, cand.SealRows)
	return failures
}

// skipRateSlack is the tolerated relative drop in the zone-map skip rate:
// the candidate's segments_skipped/segments_total must stay within 20% of
// the committed baseline's. Pruning effectiveness is a count ratio, not a
// wall time, so it is stable across CI machines and gated tightly.
const skipRateSlack = 0.20

// checkStorage gates the segment-scan benchmark: the zone-map path must
// actually have engaged (zero segments scanned means the segmented path was
// silently disabled), and must not have lost more than skipRateSlack of the
// baseline's pruning effectiveness. A candidate that drops the benchmark
// while the baseline carries it fails — the gate cannot be dodged by not
// running it.
func checkStorage(w *os.File, base, cand *experiments.StorageBenchResult) int {
	if cand == nil {
		if base != nil {
			fmt.Fprintf(w, "storage bench: present in baseline, missing in candidate  REGRESSION\n")
			return 1
		}
		return 0
	}
	failures := 0
	if cand.SegmentsTotal == 0 {
		fmt.Fprintf(w, "storage bench: segment scan path never engaged  REGRESSION\n")
		failures++
	}
	status := "ok"
	if base != nil && base.SkipRate > 0 {
		if cand.SkipRate < base.SkipRate*(1-skipRateSlack) {
			status = "REGRESSION"
			failures++
		}
		fmt.Fprintf(w, "storage bench: skip rate %.1f%% -> %.1f%%  (%+6.1f%%)  %s\n",
			base.SkipRate*100, cand.SkipRate*100, rel(base.SkipRate, cand.SkipRate)*100, status)
	} else {
		fmt.Fprintf(w, "storage bench: skip rate %.1f%% (no baseline)  %s\n", cand.SkipRate*100, status)
	}
	fmt.Fprintf(w, "storage bench: %d queries over %d rows, %d/%d segments skipped\n",
		cand.Queries, cand.Rows, cand.SegmentsSkipped, cand.SegmentsTotal)
	return failures
}

// checkServer gates the multi-tenant serving benchmark. Invariants within
// the candidate: served counts must match the bare engine, no query may
// error, the mid-run hot-swap must actually have happened, and — when the
// run used a rate-limited config (RateQPS > 0) — every submitted query must
// have been served (client backoff parity) with exact served+shed
// accounting. Against the
// baseline (when it carries the benchmark): serving wall time must not
// regress beyond the usual threshold, with the same sub-minSeconds slack as
// every other wall comparison. A candidate that silently drops the
// benchmark while the baseline has it fails — the gate cannot be dodged by
// not running it.
func checkServer(w *os.File, base, cand *experiments.ServerBenchResult, maxRegress, minSeconds float64) int {
	if cand == nil {
		if base != nil {
			fmt.Fprintf(w, "server bench: present in baseline, missing in candidate  REGRESSION\n")
			return 1
		}
		return 0
	}
	failures := 0
	if !cand.CountsIdentical {
		fmt.Fprintf(w, "server bench: served counts diverge from the bare engine  REGRESSION\n")
		failures++
	}
	if cand.Errors > 0 {
		fmt.Fprintf(w, "server bench: %d queries errored through the server  REGRESSION\n", cand.Errors)
		failures++
	}
	if cand.Swaps < 1 {
		fmt.Fprintf(w, "server bench: no mid-run hot-swap happened  REGRESSION\n")
		failures++
	}
	// Overload-control gates, armed when the run used a rate-limited config:
	// client backoff must absorb every shed (served-count parity with the
	// submitted workload), and the served/shed split must account for every
	// query exactly — a query that vanished without being served or counted
	// as shed is a bug in the admission path, not load.
	if cand.RateQPS > 0 {
		if cand.Served != cand.Queries {
			fmt.Fprintf(w, "server bench: served %d of %d queries under rate limiting (backoff failed to absorb sheds)  REGRESSION\n",
				cand.Served, cand.Queries)
			failures++
		}
		if cand.Served+cand.Shed != cand.Queries {
			fmt.Fprintf(w, "server bench: served %d + shed %d != %d queries (inexact shed accounting)  REGRESSION\n",
				cand.Served, cand.Shed, cand.Queries)
			failures++
		}
	}
	fmt.Fprintf(w, "server bench: %d queries / %d tenants / %d workers: %.0f qps, p50 %.2fms, p99 %.2fms, %d swaps, %d served, %d shed, %d retries, %d rate-limit hits (bucket %0.f qps burst %d), counts identical: %v\n",
		cand.Queries, cand.Tenants, cand.Workers, cand.QPS, cand.P50Millis, cand.P99Millis,
		cand.Swaps, cand.Served, cand.Shed, cand.Retries, cand.RateLimitHits, cand.RateQPS, cand.RateBurst, cand.CountsIdentical)
	if base != nil {
		failures += checkWall(w, "server", "serve wall", base.WallSeconds, cand.WallSeconds, maxRegress, minSeconds)
	}
	return failures
}

// parallelOverhead is the tolerated slowdown of a morsel-parallel run over
// its serial counterpart: the exchange must cost no more than +10% even when
// no extra cores are available to pay for it.
const parallelOverhead = 0.10

// checkParallel gates the candidate's own "<config>/pxN" runs against their
// serial siblings: intra-query parallelism must never make the executor wall
// more than parallelOverhead slower. The comparison is within the candidate
// snapshot — not against the baseline — so it holds on the very first
// snapshot that carries parallel runs.
func checkParallel(w *os.File, cand *experiments.BenchSnapshot, minSeconds float64) int {
	serial := make(map[string]experiments.BenchConfigSnapshot, len(cand.Configs))
	for _, c := range cand.Configs {
		if !strings.Contains(c.Name, "/px") {
			serial[c.Name] = c
		}
	}
	failures := 0
	for _, c := range cand.Configs {
		name, _, ok := strings.Cut(c.Name, "/px")
		if !ok {
			continue
		}
		s, found := serial[name]
		if !found {
			fmt.Fprintf(w, "config %-12s has no serial sibling %q, skipped\n", c.Name, name)
			continue
		}
		status := "ok"
		switch {
		case s.ExecWallSeconds <= 0:
			status = "no serial exec wall"
		case c.ExecWallSeconds <= s.ExecWallSeconds*(1+parallelOverhead):
		case c.ExecWallSeconds-s.ExecWallSeconds < minSeconds:
			// Sub-minSeconds absolute deltas on short walls are scheduler
			// noise, not exchange overhead.
			status = "ok (under min-seconds slack)"
		default:
			status = "REGRESSION"
			failures++
		}
		speedup := 0.0
		if c.ExecWallSeconds > 0 {
			speedup = s.ExecWallSeconds / c.ExecWallSeconds
		}
		fmt.Fprintf(w, "config %-12s parallel exec wall %8.3fs vs serial %8.3fs  (%.2fx)  %s\n",
			c.Name, c.ExecWallSeconds, s.ExecWallSeconds, speedup, status)
	}
	return failures
}

func checkWall(w *os.File, name, label string, base, cand, maxRegress, minSeconds float64) int {
	delta := rel(base, cand)
	status := "ok"
	fail := 0
	switch {
	case base <= 0:
		status = "no baseline"
	case cand <= base*(1+maxRegress):
	case base < minSeconds && cand < minSeconds:
		status = "ok (under min-seconds slack)"
	default:
		status = "REGRESSION"
		fail = 1
	}
	fmt.Fprintf(w, "config %-12s %-9s %8.3fs -> %8.3fs  (%+6.1f%%)  %s\n", name, label, base, cand, delta*100, status)
	return fail
}

// checkCE compares each estimator's sample-weighted mean q-error p50.
func checkCE(w *os.File, name string, base, cand experiments.BenchConfigSnapshot, maxRegress float64) int {
	baseQ := make(map[string]float64)
	for _, ce := range base.CE {
		baseQ[ce.Estimator] = meanP50(ce)
	}
	failures := 0
	for _, ce := range cand.CE {
		b, ok := baseQ[ce.Estimator]
		if !ok || b <= 0 {
			continue
		}
		c := meanP50(ce)
		status := "ok"
		if c > b*(1+maxRegress) {
			status = "REGRESSION"
			failures++
		}
		fmt.Fprintf(w, "config %-12s q-error[%s] p50 %8.3f -> %8.3f  (%+6.1f%%)  %s\n",
			name, ce.Estimator, b, c, rel(b, c)*100, status)
	}
	return failures
}

func meanP50(ce obs.CEEstimatorReport) float64 {
	var sum float64
	var n int
	for _, row := range ce.Sizes {
		sum += row.P50 * float64(row.Samples)
		n += row.Samples
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func rel(base, cand float64) float64 {
	if base <= 0 {
		return 0
	}
	return (cand - base) / base
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
