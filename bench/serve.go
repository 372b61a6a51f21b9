package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	lpce "github.com/lpce-db/lpce"
	"github.com/lpce-db/lpce/internal/server"
)

// serveTenants are the two tenants; connection i uses tenant i and holds one
// session, so its prepared statements and estimate cache stay hot.
var serveTenants = [2]string{"alpha", "beta"}

// serveWorkload is serve_short: two closed-loop connections POST the short
// JOB-like queries to /query on an in-process server over db_main. A pass is
// one connection's block of ServeBlock requests, made while the other
// connection makes its own.
type serveWorkload struct {
	env    *mainEnv
	srv    *server.Server
	ts     *httptest.Server
	qs     []namedQuery
	refs   map[string]int
	bodies [2][][]byte // request body per connection and query, encoded once
	seed   int64
	sz     sizes
	blocks int // measuring blocks run so far; seeds each block's query order
	warmed bool
}

func setupServe(seed int64, sz sizes) (workload, error) {
	env, err := buildMain(sz)
	if err != nil {
		return nil, err
	}
	// joblike.sql lists the 16 short queries of families 1-4 first.
	limit := 16
	if sz.QueryLimit > 0 {
		limit = sz.QueryLimit
	}
	qs, err := loadQueries("joblike", limit, env.DB.Schema)
	if err != nil {
		return nil, err
	}
	refs, err := referenceCounts(env.DB, env.Hist, qs, sz.ExecBudget, 0)
	if err != nil {
		return nil, err
	}
	w := &serveWorkload{env: env, qs: qs, refs: refs, seed: seed, sz: sz}
	for c, tenant := range serveTenants {
		for _, q := range qs {
			body, err := json.Marshal(map[string]string{"tenant": tenant, "session": fmt.Sprintf("conn%d", c), "sql": q.SQL})
			if err != nil {
				return nil, err
			}
			w.bodies[c] = append(w.bodies[c], body)
		}
	}
	w.srv, err = server.New(server.Config{
		DB:      env.DB,
		Enc:     env.Enc,
		Mode:    server.ModeLPCER,
		Models:  &lpce.ModelSet{LPCEI: env.Model, Refiner: env.Refiner},
		Tenants: []server.TenantConfig{{Name: serveTenants[0]}, {Name: serveTenants[1]}},
	})
	if err != nil {
		return nil, err
	}
	w.ts = httptest.NewServer(w.srv.Handler())
	return w, nil
}

func (w *serveWorkload) setupParts() setupParts { return w.env.Parts }

func (w *serveWorkload) close() {
	w.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.srv.Close(ctx) // a drain cut short by the timeout still waits for every query to unwind
}

// connResult is what one connection's loop produced.
type connResult struct {
	measured
	overhead time.Duration // sum of round trip minus QueryResult.Elapsed
	prepared int           // responses served from the session's prepared statements
	shed     int           // 429, 503 and 504 responses
}

func (w *serveWorkload) measure(seconds float64, traced bool) (*measured, error) {
	if !w.warmed {
		warm := w.runConns(0, w.sz.ServeWarmup, 1, false)
		w.warmed = true
		if warm.Failed > 0 {
			return nil, fmt.Errorf("warm-up: %s", warm.FirstFailure)
		}
	}
	var before map[string]float64
	if traced {
		var err error
		if before, err = w.engineTotals(); err != nil {
			return nil, err
		}
	}
	runtime.GC() // start every block from the same heap
	r := w.runConns(seconds, w.sz.ServeBlock, w.sz.MinPasses, traced)
	m := &r.measured
	n := float64(r.Attempted)
	m.Layer["serve_overhead_us"] = float64(r.overhead) / float64(time.Microsecond) / n
	m.Layer["prepared_hit_ratio"] = float64(r.prepared) / n
	m.Layer["shed"] = float64(r.shed)
	if traced {
		after, err := w.engineTotals()
		if err != nil {
			return nil, err
		}
		d := func(k string) float64 { return after[k] - before[k] }
		// The server's registry counts every request of the block, timed or
		// not; the timed ones are all of them here, as warm-up ran before.
		m.Ledger = ledger{
			Plan:          time.Duration(d("engine.plan_seconds") * float64(time.Second)),
			Infer:         time.Duration(d("engine.infer_seconds") * float64(time.Second)),
			Reopt:         time.Duration(d("engine.reopt_seconds") * float64(time.Second)),
			Exec:          time.Duration(d("engine.exec_seconds") * float64(time.Second)),
			EstimateCalls: int64(d("engine.estimate_calls")),
			Reopts:        int64(d("engine.reopts")),
		}
		m.Layer["segments_skipped_ratio"] = ratio(d("storage.segments_skipped"), d("storage.segments_total"))
		m.Layer["bytes_decoded"] = d("storage.bytes_decoded") / float64(len(m.PassMS))
		if err := m.traceParse(w.env.DB.Schema, w.qs); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// engineTotals reads GET /metrics and sums, over both tenants, the engine's
// phase-time histograms (count x mean) and the counters the report uses.
func (w *serveWorkload) engineTotals() (map[string]float64, error) {
	resp, err := http.Get(w.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count int64   `json:"count"`
			Mean  float64 `json:"mean"`
		} `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	out := make(map[string]float64)
	for _, tenant := range serveTenants {
		prefix := "tenant." + tenant + "."
		for k, v := range snap.Counters {
			if name, ok := strings.CutPrefix(k, prefix); ok {
				out[name] += float64(v)
			}
		}
		for k, v := range snap.Histograms {
			if name, ok := strings.CutPrefix(k, prefix); ok {
				out[name] += float64(v.Count) * v.Mean
			}
		}
	}
	return out, nil
}

// runConns drives both connections at once, each in a closed loop: a
// connection sends its next request only when the previous reply is read.
// Each makes passes of block requests until the time is up and minPasses
// are done, and the results are merged.
func (w *serveWorkload) runConns(seconds float64, block, minPasses int, traced bool) *connResult {
	w.blocks++
	base := time.Now()
	deadline := base.Add(time.Duration(seconds * float64(time.Second)))
	var results [2]*connResult
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tr *tracer
			if traced {
				tr = newTracer(base, int64(c)<<40)
			}
			results[c] = w.runConn(c, deadline, block, minPasses, tr)
		}(c)
	}
	wg.Wait()
	out := results[0]
	o := results[1]
	out.PassMS = append(out.PassMS, o.PassMS...)
	for name, lat := range o.OpMS {
		out.OpMS[name] = append(out.OpMS[name], lat...)
	}
	out.Spans = append(out.Spans, o.Spans...)
	out.Attempted += o.Attempted
	out.Failed += o.Failed
	if out.FirstFailure == "" {
		out.FirstFailure = o.FirstFailure
	}
	out.overhead += o.overhead
	out.prepared += o.prepared
	out.shed += o.shed
	return out
}

func (w *serveWorkload) runConn(c int, deadline time.Time, block, minPasses int, tr *tracer) *connResult {
	r := &connResult{measured: *newMeasured()}
	// One connection per client, kept alive across requests.
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	rng := rand.New(rand.NewSource(w.seed*1000 + int64(w.blocks)*2 + int64(c)))
	url := w.ts.URL + "/query"
	for passes := 0; passes < minPasses || time.Now().Before(deadline); passes++ {
		passStart := time.Now()
		for i := 0; i < block; i++ {
			qi := rng.Intn(len(w.qs))
			q := w.qs[qi]
			root := tr.begin(-1, "request "+q.Name, layerBench)
			rt := tr.begin(root, "POST /query", layerServer)
			t0 := time.Now()
			status, data, err := post(client, url, w.bodies[c][qi])
			roundTrip := time.Since(t0)
			tr.end(rt)
			var qr server.QueryResult
			if err == nil && status == http.StatusOK {
				err = json.Unmarshal(data, &qr)
			}
			lat := time.Since(t0)
			tr.reported(rt, []string{layerEngine}, []time.Duration{qr.Elapsed})
			tr.end(root)

			r.Attempted++
			switch {
			case err != nil:
				r.fail("%s: %v", q.Name, err)
			case status != http.StatusOK:
				r.fail("%s: HTTP %d: %s", q.Name, status, bytes.TrimSpace(data))
				if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout {
					r.shed++
				}
			case qr.TimedOut:
				r.fail("%s: timed out", q.Name)
			case qr.Count != w.refs[q.Name]:
				r.fail("%s: COUNT(*) = %d, reference %d", q.Name, qr.Count, w.refs[q.Name])
			}
			r.OpMS[q.Name] = append(r.OpMS[q.Name], ms(lat))
			r.overhead += roundTrip - qr.Elapsed
			if qr.Prepared {
				r.prepared++
			}
		}
		r.PassMS = append(r.PassMS, ms(time.Since(passStart)))
	}
	if tr != nil {
		r.Spans = tr.spans
	}
	return r
}

// post sends one request and reads the whole reply.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}
