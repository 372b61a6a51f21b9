package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/testutil"
)

// TestHTTPPanickingPrimaryFailsOneRequest: a query whose primary estimator
// panics gets a typed 500 JSON body, is counted once in
// server.query_errors, and leaves its keep-alive connection serving: the
// next request on the same connection succeeds.
func TestHTTPPanickingPrimaryFailsOneRequest(t *testing.T) {
	db := testutil.TinyDB()
	s := mustServer(t, histConfig(db))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// post sends one query and reports whether it rode a reused connection.
	post := func(sql string) (code int, body map[string]any, reused bool) {
		t.Helper()
		raw, _ := json.Marshal(queryBody{Tenant: "alpha", SQL: sql})
		trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace),
			http.MethodPost, ts.URL+"/query", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("POST /query: %v", err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("POST /query: decode: %v", err)
		}
		return resp.StatusCode, body, reused
	}
	queryErrors := func() int64 { return s.MetricsSnapshot().Counters["tenant.alpha.server.query_errors"] }

	s.installEstimator("panics", cardest.FuncEstimator{Label: "panics", Fn: func(*query.Query, query.BitSet) float64 {
		panic("primary exploded")
	}}, nil)
	before := queryErrors()
	code, body, _ := post(testSQL(0))
	if msg, _ := body["error"].(string); code != http.StatusInternalServerError || !strings.Contains(msg, "primary exploded") {
		t.Fatalf("panicking primary: status %d body %v, want 500 with the panic's error", code, body)
	}
	if got := queryErrors(); got != before+1 {
		t.Fatalf("server.query_errors rose by %d, want 1", got-before)
	}

	s.installEstimator("healthy", histogram.NewEstimator(db), nil)
	code, body, reused := post(testSQL(0))
	if code != http.StatusOK || body["count"] == nil {
		t.Fatalf("next request: status %d body %v", code, body)
	}
	if !reused {
		t.Fatal("the next request opened a new connection; the panic dropped the first")
	}
	if got := queryErrors(); got != before+1 {
		t.Fatalf("server.query_errors rose by %d after a good request, want 1", got-before)
	}
}
