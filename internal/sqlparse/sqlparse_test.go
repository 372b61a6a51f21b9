package sqlparse

import (
	"fmt"
	"strings"
	"testing"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

func TestParseSimpleQuery(t *testing.T) {
	db := testutil.TinyDB()
	q, err := Parse(db.Schema,
		"SELECT COUNT(*) FROM title, cast_info WHERE cast_info.movie_id = title.id AND title.production_year > 1980")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 2 || q.NumJoins() != 1 || len(q.Preds) != 1 {
		t.Fatalf("parsed shape wrong: %d tables, %d joins, %d preds",
			len(q.Tables), q.NumJoins(), len(q.Preds))
	}
	p := q.Preds[0]
	if p.Col.QualifiedName() != "title.production_year" || p.Op != query.OpGT || p.Operand != 1980 {
		t.Fatalf("predicate = %v", p)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	db := testutil.TinyDB()
	if _, err := Parse(db.Schema, "select count(*) from title where title.kind_id = 0;"); err != nil {
		t.Fatal(err)
	}
}

func TestParseInList(t *testing.T) {
	db := testutil.TinyDB()
	q, err := Parse(db.Schema,
		"SELECT COUNT(*) FROM title WHERE title.kind_id IN (0, 2, 4)")
	if err != nil {
		t.Fatal(err)
	}
	p := q.Preds[0]
	if p.Op != query.OpIn || len(p.InSet) != 3 || p.InSet[1] != 2 {
		t.Fatalf("IN predicate = %v", p)
	}
}

func TestParseAllOperators(t *testing.T) {
	db := testutil.TinyDB()
	ops := map[string]query.Op{
		"=": query.OpEQ, "<>": query.OpNE, "!=": query.OpNE,
		"<": query.OpLT, "<=": query.OpLE, ">": query.OpGT, ">=": query.OpGE,
	}
	for s, want := range ops {
		q, err := Parse(db.Schema,
			"SELECT COUNT(*) FROM title WHERE title.production_year "+s+" 1990")
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if q.Preds[0].Op != want {
			t.Fatalf("%s parsed to %v", s, q.Preds[0].Op)
		}
	}
}

func TestParseNegativeNumber(t *testing.T) {
	db := testutil.TinyDB()
	q, err := Parse(db.Schema, "SELECT COUNT(*) FROM title WHERE title.season_nr > -1")
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Operand != -1 {
		t.Fatalf("operand = %d", q.Preds[0].Operand)
	}
}

func TestRoundtripGeneratedQueries(t *testing.T) {
	// Parse(q.SQL()) must reproduce an equivalent query: same tables, same
	// predicate set, same join set, and — decisively — the same COUNT(*).
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 161)
	for i := 0; i < 25; i++ {
		orig := g.Query(1 + i%4)
		parsed, err := Parse(db.Schema, orig.SQL())
		if err != nil {
			t.Fatalf("roundtrip parse failed for %q: %v", orig.SQL(), err)
		}
		if parsed.SQL() != orig.SQL() {
			t.Fatalf("roundtrip SQL differs:\n%s\n%s", orig.SQL(), parsed.SQL())
		}
		want, err := exec.RunCollect(&exec.Ctx{DB: db, Q: orig}, exec.CanonicalPlan(orig, orig.AllTablesMask()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.RunCollect(&exec.Ctx{DB: db, Q: parsed}, exec.CanonicalPlan(parsed, parsed.AllTablesMask()))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("parsed query returns %d, original %d", got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	db := testutil.TinyDB()
	cases := []struct {
		sql  string
		frag string
	}{
		{"SELECT SUM(*) FROM title", "expected COUNT"},
		{"SELECT COUNT(*) FROM nosuch", "unknown table"},
		{"SELECT COUNT(*) FROM title, title", "listed twice"},
		{"SELECT COUNT(*) FROM title WHERE title.nosuch = 1", "no column"},
		{"SELECT COUNT(*) FROM title WHERE cast_info.movie_id = 1", "not in FROM"},
		{"SELECT COUNT(*) FROM title WHERE title.id < title.kind_id", "only equi-joins"},
		{"SELECT COUNT(*) FROM title WHERE title.id IN (1, x)", "expected number"},
		{"SELECT COUNT(*) FROM title WHERE", "expected column reference"},
		{"SELECT COUNT(*) FROM title extra", "trailing"},
		{"SELECT COUNT(*) FROM title WHERE title.id @ 3", "unexpected character"},
	}
	for _, c := range cases {
		_, err := Parse(db.Schema, c.sql)
		if err == nil {
			t.Fatalf("%q: expected error", c.sql)
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Fatalf("%q: error %q missing %q", c.sql, err, c.frag)
		}
	}
}

// TestParseRejectsTooManyTables pins the table limit: a FROM list of
// query.MaxTables tables parses, one more is an error positioned at the
// first table past the limit, not a query that silently drops a table.
func TestParseRejectsTooManyTables(t *testing.T) {
	s := catalog.NewSchema()
	var names []string
	for i := 0; i <= query.MaxTables; i++ {
		names = append(names, fmt.Sprintf("t%d", i))
		s.AddTable(names[i], catalog.PK("id"))
	}
	atLimit := "SELECT COUNT(*) FROM " + strings.Join(names[:query.MaxTables], ", ")
	q, err := Parse(s, atLimit)
	if err != nil {
		t.Fatalf("%d tables: %v", query.MaxTables, err)
	}
	if got := q.AllTablesMask().Count(); got != query.MaxTables {
		t.Fatalf("%d tables parsed into a %d-table mask", query.MaxTables, got)
	}
	over := atLimit + ", " + names[query.MaxTables]
	_, err = Parse(s, over)
	if err == nil {
		t.Fatalf("%d tables parsed without error", query.MaxTables+1)
	}
	want := fmt.Sprintf("offset %d:", strings.LastIndex(over, names[query.MaxTables]))
	if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), fmt.Sprintf("at most %d tables", query.MaxTables)) {
		t.Fatalf("error %q, want it at %q naming the limit", err, want)
	}
}

func TestLexerTokens(t *testing.T) {
	toks, err := lex("a.b >= 10, (x)")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokIdent, tokSymbol, tokIdent, tokOperator, tokNumber, tokSymbol, tokSymbol, tokIdent, tokSymbol, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("tokens = %d, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Fatalf("token %d kind = %d, want %d (%q)", i, toks[i].kind, k, toks[i].text)
		}
	}
}

func TestRoundtripDerivedEdgeQueries(t *testing.T) {
	// fact-to-fact join queries (FK = FK) must also roundtrip through SQL.
	db := testutil.TinyDB()
	g := workload.NewGeneratorDerived(db, 162)
	for i := 0; i < 15; i++ {
		orig := g.Query(2 + i%3)
		parsed, err := Parse(db.Schema, orig.SQL())
		if err != nil {
			t.Fatalf("derived roundtrip failed for %q: %v", orig.SQL(), err)
		}
		if parsed.SQL() != orig.SQL() {
			t.Fatalf("roundtrip differs:\n%s\n%s", orig.SQL(), parsed.SQL())
		}
	}
}
