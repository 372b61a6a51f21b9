package workload

import (
	"strings"
	"testing"

	"github.com/lpce-db/lpce/internal/testutil"
)

func TestGenerateOversizedJoinReturnsError(t *testing.T) {
	db := testutil.TinyDB()
	g := NewGenerator(db, 1)
	nTables := len(db.Schema.Tables)
	q, err := g.Generate(nTables) // needs nTables+1 distinct tables
	if err == nil || q != nil {
		t.Fatalf("oversized join request must fail, got q=%v err=%v", q, err)
	}
	if !strings.Contains(err.Error(), "joins") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if _, err := g.Generate(-1); err == nil {
		t.Fatal("negative join count must fail")
	}
	// The generator stays usable after a failed request.
	if q, err := g.Generate(2); err != nil || q.NumJoins() != 2 {
		t.Fatalf("generator broken after failure: q=%v err=%v", q, err)
	}
}

func TestQueryPanicsOnOversizedRequest(t *testing.T) {
	db := testutil.TinyDB()
	g := NewGenerator(db, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Query must keep its documented panic behaviour")
		}
	}()
	g.Query(len(db.Schema.Tables) + 5)
}
