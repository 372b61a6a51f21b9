package server

import (
	"fmt"
	"sync"
	"time"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/sqlparse"
)

// maxPreparedPerSession bounds one session's prepared-statement cache; the
// oldest statement is evicted first, mirroring the bounded estimate cache's
// FIFO discipline.
const maxPreparedPerSession = 256

// session is one client's prepared-statement namespace: SQL text is parsed
// once and the compiled *query.Query reused on every subsequent execution,
// so a workload replaying the same statements skips the parser entirely.
type session struct {
	key      string // tenant + "\x00" + id
	mu       sync.Mutex
	prepared map[string]*query.Query
	order    []string // insertion order for FIFO eviction
	lastUsed time.Time
}

// prepare returns the compiled query for sql, parsing at most once per
// session. The second return reports whether the statement was already
// prepared (a cache hit).
func (s *session) prepare(schema *catalog.Schema, sql string) (*query.Query, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.prepared[sql]; ok {
		return q, true, nil
	}
	q, err := sqlparse.Parse(schema, sql)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	for len(s.prepared) >= maxPreparedPerSession {
		oldest := s.order[0]
		s.order = s.order[1:]
		delete(s.prepared, oldest)
	}
	s.prepared[sql] = q
	s.order = append(s.order, sql)
	return q, false, nil
}

// sessionTable interns sessions by (tenant, id) and expires the idle ones.
// lastUsed is guarded by the table's mutex — the table owns expiry, the
// session only owns its prepared statements.
type sessionTable struct {
	mu sync.Mutex
	m  map[string]*session

	active  *obs.Gauge
	expired *obs.Counter
	created *obs.Counter
}

func newSessionTable(reg *obs.Registry) *sessionTable {
	return &sessionTable{
		m:       make(map[string]*session),
		active:  reg.Gauge("server.sessions.active"),
		expired: reg.Counter("server.sessions.expired"),
		created: reg.Counter("server.sessions.created"),
	}
}

// get returns the session for (tenant, id), creating it on first use and
// refreshing its TTL. An empty id yields a throwaway session that is never
// stored — stateless clients pay a parse per request and leak nothing.
func (t *sessionTable) get(tenant, id string) *session {
	if id == "" {
		return &session{prepared: make(map[string]*query.Query)}
	}
	key := tenant + "\x00" + id
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.m[key]
	if !ok {
		s = &session{key: key, prepared: make(map[string]*query.Query)}
		t.m[key] = s
		t.created.Inc()
		t.active.Set(float64(len(t.m)))
	}
	s.lastUsed = now
	return s
}

// sweep expires sessions idle beyond sessionTTL and returns how many were
// dropped.
func (t *sessionTable) sweep(now time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	// Expiry sweep: each entry is tested and deleted independently, so
	// iteration order cannot change which sessions survive.
	for key, s := range t.m { //detlint:ignore — order-independent sweep
		if now.Sub(s.lastUsed) > sessionTTL {
			delete(t.m, key)
			n++
		}
	}
	if n > 0 {
		t.expired.Add(int64(n))
		t.active.Set(float64(len(t.m)))
	}
	return n
}

// count returns the number of live sessions.
func (t *sessionTable) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
