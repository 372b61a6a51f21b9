package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"
)

// Handler returns the server's HTTP/JSON front-end:
//
//	POST /query             execute SQL        {tenant, session?, sql, timeout_ms?}
//	POST /explain           plan without executing (same body)
//	GET  /healthz           liveness + serving gauges
//	GET  /metrics           merged global + per-tenant metrics snapshot
//	POST /admin/models/swap hot-swap the model set in dir {dir, version?}
//
// Error mapping: parse failures 400, unknown tenant 404, rate limiting and
// admission-queue overflow 429, shutdown 503, deadline (exceeded or
// unmeetable) 504, resource-limit degradation 422, anything else 500.
// Sheds carry a Retry-After header with the server's earliest-retry hint.
// Every error body is {"error": "..."}.
//
// Requests may carry their deadline as an X-Deadline-Ms header (remaining
// milliseconds); a JSON timeout_ms takes precedence when both are present.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/admin/models/swap", s.handleSwap)
	return mux
}

// queryBody is the wire form of QueryRequest; the timeout travels as
// integer milliseconds so clients never format durations.
type queryBody struct {
	Tenant    string `json:"tenant"`
	Session   string `json:"session,omitempty"`
	SQL       string `json:"sql"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

func (b queryBody) request() QueryRequest {
	return QueryRequest{
		Tenant:  b.Tenant,
		Session: b.Session,
		SQL:     b.SQL,
		Timeout: time.Duration(b.TimeoutMS) * time.Millisecond,
	}
}

// applyDeadlineHeader folds an X-Deadline-Ms header into the request when
// the body carried no explicit timeout, so proxies and clients can attach
// deadlines without touching the JSON payload.
func applyDeadlineHeader(req *QueryRequest, r *http.Request) {
	if req.Timeout > 0 {
		return
	}
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			req.Timeout = time.Duration(ms) * time.Millisecond
		}
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var body queryBody
	if !decodeBody(w, r, &body) {
		return
	}
	req := body.request()
	applyDeadlineHeader(&req, r)
	res, err := s.Query(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var body queryBody
	if !decodeBody(w, r, &body) {
		return
	}
	req := body.request()
	applyDeadlineHeader(&req, r)
	plan, err := s.Explain(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"plan": plan})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET only"})
		return
	}
	h := s.Health()
	code := http.StatusOK
	// Degraded/overloaded still answer 200 — the server is alive and
	// serving (with reduced quality); only shutdown reads as unavailable.
	if h.Status == "closing" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Dir     string `json:"dir"`
		Version string `json:"version,omitempty"`
	}
	if !decodeBody(w, r, &body) {
		return
	}
	if body.Dir == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "dir is required"})
		return
	}
	old, cur, err := s.SwapModels(body.Dir, body.Version)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"old": old, "current": cur})
}

// decodeBody parses a POST JSON body, writing the error response itself on
// failure.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST only"})
		return false
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return false
	}
	return true
}

// writeError maps a serving error to its HTTP status. Errors carrying an
// earliest-retry hint (rate limits, queue overflow, shutdown, unmeetable
// deadlines) also get a Retry-After header, in whole seconds rounded up
// and floored at 1 per RFC 9110's delay-seconds grammar.
func writeError(w http.ResponseWriter, err error) {
	var hint interface{ RetryAfter() time.Duration }
	if errors.As(err, &hint) {
		secs := int64(math.Ceil(hint.RetryAfter().Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, statusFor(err), map[string]string{"error": err.Error()})
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadQuery):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, ErrRateLimited), errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadlineUnmeetable), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case isResourceErr(err):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
