package reopt

import (
	"testing"

	"github.com/lpce-db/lpce/internal/obs"
)

func TestMaxReoptsSuppressionEventRecorded(t *testing.T) {
	qt := &obs.QueryTrace{}
	qt.NewRound()
	c := NewController(Policy{QErrThreshold: 10, MaxReopts: 2})
	c.Trace = qt
	for i := 0; i < 2; i++ {
		if err := c.OnMaterialized(twoTableNode(1), rows(1000)); err == nil {
			t.Fatalf("trigger %d should fire", i)
		}
	}
	// Budget exhausted: the checkpoint still exceeds the q-error threshold,
	// but must be suppressed — and the suppression must be auditable.
	if err := c.OnMaterialized(twoTableNode(1), rows(1000)); err != nil {
		t.Fatalf("exhausted budget must suppress, got %v", err)
	}
	if n := len(qt.Events); n != 3 {
		t.Fatalf("recorded %d events, want 3", n)
	}
	for i := 0; i < 2; i++ {
		if ev := qt.Events[i]; !ev.Triggered || ev.Suppressed != "" {
			t.Fatalf("event %d = %+v, want triggered", i, ev)
		}
	}
	last := qt.Events[2]
	if last.Triggered || last.Suppressed != "max-reopts" {
		t.Fatalf("exhaustion event = %+v, want Suppressed=max-reopts", last)
	}
	if last.QError <= 10 {
		t.Fatalf("exhaustion event q-error %v should still show the violation", last.QError)
	}
}

func TestReleaseFreesMaterializedIntermediates(t *testing.T) {
	c := NewController(Policy{QErrThreshold: 1e12, MaxReopts: 3})
	n := twoTableNode(1000)
	if err := c.OnMaterialized(n, rows(1000)); err != nil {
		t.Fatal(err)
	}
	held := c.Materialized()[n.Tables]
	if held == nil || held.Card() != 1000 {
		t.Fatalf("mat not recorded: %+v", held)
	}
	c.Release()

	if len(c.Materialized()) != 0 || c.ExecutedSubs() != nil {
		t.Fatalf("controller not cleared: mats=%d execs=%v",
			len(c.Materialized()), c.ExecutedSubs())
	}
	// The buffered rows themselves are dropped, not just the map entry, so
	// anything still pointing at the Materialized cannot pin 1000 rows.
	if held.Rows.Data != nil || held.Card() != 0 {
		t.Fatal("released intermediate still holds its rows")
	}
	// The controller stays usable after Release.
	if err := c.OnMaterialized(twoTableNode(5), rows(5)); err != nil {
		t.Fatal(err)
	}
	if len(c.Materialized()) != 1 {
		t.Fatal("controller unusable after Release")
	}
}
