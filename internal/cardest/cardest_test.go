package cardest

import (
	"testing"
	"time"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/query"
)

func testQuery() *query.Query {
	s := catalog.NewSchema()
	a := s.AddTable("a", catalog.PK("id"))
	b := s.AddTable("b", catalog.FK("a_id", a.Column("id")))
	return query.New([]*catalog.Table{a, b},
		[]query.Join{{Left: b.Column("a_id"), Right: a.Column("id")}}, nil)
}

func TestFixed(t *testing.T) {
	f := Fixed{Value: 42}
	if f.Name() != "fixed" {
		t.Fatalf("name = %s", f.Name())
	}
	if got := f.EstimateSubset(testQuery(), 1); got != 42 {
		t.Fatalf("estimate = %v", got)
	}
	if (Fixed{Value: 1, Label: "custom"}).Name() != "custom" {
		t.Fatal("custom label ignored")
	}
}

func TestFuncEstimator(t *testing.T) {
	q := testQuery()
	calls := 0
	f := FuncEstimator{Label: "fn", Fn: func(qq *query.Query, m query.BitSet) float64 {
		calls++
		if qq != q {
			t.Fatal("wrong query passed through")
		}
		return float64(m.Count()) * 10
	}}
	if f.Name() != "fn" {
		t.Fatal("name")
	}
	if got := f.EstimateSubset(q, query.NewBitSet().Set(0).Set(1)); got != 20 {
		t.Fatalf("estimate = %v", got)
	}
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestTimedAccumulates(t *testing.T) {
	slow := FuncEstimator{Label: "slow", Fn: func(*query.Query, query.BitSet) float64 {
		time.Sleep(time.Millisecond)
		return 7
	}}
	timed := NewTimed(slow)
	if timed.Name() != "slow" {
		t.Fatal("name should pass through")
	}
	q := testQuery()
	for i := 0; i < 3; i++ {
		if got := timed.EstimateSubset(q, 1); got != 7 {
			t.Fatalf("estimate = %v", got)
		}
	}
	if timed.Calls != 3 {
		t.Fatalf("calls = %d", timed.Calls)
	}
	if timed.Time < 3*time.Millisecond {
		t.Fatalf("time = %v, want >= 3ms", timed.Time)
	}
	timed.Reset()
	if timed.Calls != 0 || timed.Time != 0 {
		t.Fatal("reset failed")
	}
}

// sessionFake's session answers 2 where the stateless path answers 1, and
// both its BeginQuery and its session calls take a millisecond.
type sessionFake struct{ begun int }

func (f *sessionFake) Name() string                                      { return "fake" }
func (f *sessionFake) EstimateSubset(*query.Query, query.BitSet) float64 { return 1 }
func (f *sessionFake) BeginQuery(*query.Query) Estimator {
	f.begun++
	time.Sleep(time.Millisecond)
	return FuncEstimator{Label: "fake", Fn: func(*query.Query, query.BitSet) float64 {
		time.Sleep(time.Millisecond)
		return 2
	}}
}

func TestBeginQuery(t *testing.T) {
	q := testQuery()
	plain := Fixed{Value: 5}
	if s := BeginQuery(plain, q); s != Estimator(plain) {
		t.Fatal("an estimator without sessions should be its own session")
	}
	fake := &sessionFake{}
	timed := NewTimed(fake)
	s := BeginQuery(timed, q)
	if fake.begun != 1 {
		t.Fatalf("Timed forwarded BeginQuery %d times, want 1", fake.begun)
	}
	for i := 0; i < 2; i++ {
		if got := s.EstimateSubset(q, 1); got != 2 {
			t.Fatalf("estimate = %v, want the inner session's 2", got)
		}
	}
	// set-up and both calls are inference time; only the calls are calls
	if timed.Calls != 2 || timed.Time < 3*time.Millisecond {
		t.Fatalf("calls = %d, time = %v; want 2 calls and >= 3ms", timed.Calls, timed.Time)
	}
	if s.Name() != "fake" {
		t.Fatalf("name = %s", s.Name())
	}
}
