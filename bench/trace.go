package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	lpce "github.com/lpce-db/lpce"
)

// Layers are named after the module a span's time is spent in.
const (
	layerBench     = "bench"     // the benchmark's own loop, checks and client
	layerParse     = "sqlparse"  // lpce.ParseSQL
	layerEngine    = "engine"    // Engine.Execute outside its four ledger phases
	layerOptimizer = "optimizer" // Result.PlanTime (T_P)
	layerInfer     = "core"      // Result.InferTime (T_I)
	layerReopt     = "reopt"     // Result.ReoptTime (T_R)
	layerExec      = "exec"      // Result.ExecTime (T_E)
	layerStorage   = "storage"   // AppendRows, RefreshStats
	layerHistogram = "histogram" // NewHistogramEstimator
	layerServer    = "server"    // HTTP round trip outside QueryResult.Elapsed
)

// span is one interval the benchmark recorded around a call into a layer.
// Spans of one operation (query, HTTP request, ingest cycle) share Op, the
// id of their root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for the root span of an operation
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the traced block began
	End    int64  `json:"end_ns"`
	// Reported marks a duration the program reported (a Result or
	// QueryResult field) rather than one the benchmark timed; such spans are
	// laid end to end from their parent's start.
	Reported bool `json:"reported,omitempty"`
}

// tracer keeps spans in memory for one goroutine. All methods are no-ops on
// a nil tracer, so untraced runs take the same code path without recording.
type tracer struct {
	base   time.Time
	idBase int64 // keeps ids of concurrent tracers disjoint
	spans  []span
}

func newTracer(base time.Time, idBase int64) *tracer {
	return &tracer{base: base, idBase: idBase}
}

// begin opens a span under parent (the index begin returned, -1 for a root)
// and returns its index.
func (t *tracer) begin(parent int, name, layer string) int {
	if t == nil {
		return -1
	}
	id := t.idBase + int64(len(t.spans)) + 1
	s := span{ID: id, Op: id, Name: name, Layer: layer, Start: int64(time.Since(t.base))}
	if parent >= 0 {
		s.Parent, s.Op = t.spans[parent].ID, t.spans[parent].Op
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.base))
}

// reported adds program-reported durations as children of parent, laid end
// to end from the parent's start.
func (t *tracer) reported(parent int, layers []string, durs []time.Duration) {
	if t == nil {
		return
	}
	at := t.spans[parent].Start
	for i, d := range durs {
		id := t.idBase + int64(len(t.spans)) + 1
		t.spans = append(t.spans, span{
			ID: id, Parent: t.spans[parent].ID, Op: t.spans[parent].Op,
			Name: layers[i], Layer: layers[i], Start: at, End: at + int64(d), Reported: true,
		})
		at += int64(d)
	}
}

var ledgerLayers = []string{layerOptimizer, layerInfer, layerReopt, layerExec}

// ledger records a Result's T_P/T_I/T_R/T_E under the Execute span.
func (t *tracer) ledger(parent int, r lpce.Result) {
	t.reported(parent, ledgerLayers, []time.Duration{r.PlanTime, r.InferTime, r.ReoptTime, r.ExecTime})
}

// selfTimes sums, per layer, each span's duration minus the part its direct
// children cover: the time spent in the layer itself.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += time.Duration(s.End - s.Start - children[s.ID])
	}
	return out
}

// traceHeader opens one workload's section of the trace file.
type traceHeader struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
}

// writeTrace appends one section to the trace file: the header line, then
// one JSON line per span.
func writeTrace(path string, h traceHeader, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(h)
	for i := 0; i < len(spans) && err == nil; i++ {
		err = enc.Encode(&spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
