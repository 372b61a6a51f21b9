package sqlparse_test

import (
	"os"
	"strings"
	"testing"

	"github.com/lpce-db/lpce/internal/joblike"
	"github.com/lpce-db/lpce/internal/sqlparse"
	"github.com/lpce-db/lpce/internal/testutil"
)

// FuzzParse feeds arbitrary text to the parser: it must never panic, and
// any query it accepts must print back to SQL that parses to the same SQL.
// The seed corpus is the JOB-like suite and the deep_plan benchmark queries;
// it runs under plain `go test`, and `go test -fuzz FuzzParse
// ./internal/sqlparse` searches further.
func FuzzParse(f *testing.F) {
	schema := testutil.TinyDB().Schema
	queries, err := joblike.Queries(schema)
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range joblike.Names() {
		f.Add(queries[name].SQL())
	}
	raw, err := os.ReadFile("../../bench/queries/deep_plan.sql")
	if err != nil {
		f.Fatal(err)
	}
	for _, stmt := range strings.Split(string(raw), ";") {
		f.Add(stmt + ";")
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := sqlparse.Parse(schema, sql)
		if err != nil {
			return
		}
		again, err := sqlparse.Parse(schema, q.SQL())
		if err != nil {
			t.Fatalf("%q parsed, but its SQL %q does not: %v", sql, q.SQL(), err)
		}
		if again.SQL() != q.SQL() {
			t.Fatalf("%q: SQL %q reparses to %q", sql, q.SQL(), again.SQL())
		}
	})
}
