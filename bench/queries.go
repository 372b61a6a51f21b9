package main

import (
	"embed"
	"fmt"
	"strings"

	lpce "github.com/lpce-db/lpce"
)

//go:embed queries/*.sql
var queryFS embed.FS

// namedQuery is one statement of a committed query file.
type namedQuery struct {
	Name string
	SQL  string
	Q    *lpce.Query
}

// loadSQL reads queries/<file>.sql: a "-- name: property" comment opens a
// statement and ";" closes it; comment lines without a colon are prose.
func loadSQL(file string) ([]namedQuery, error) {
	raw, err := queryFS.ReadFile("queries/" + file + ".sql")
	if err != nil {
		return nil, err
	}
	var out []namedQuery
	var name string
	var body strings.Builder
	for _, line := range strings.Split(string(raw), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "--") {
			if head, _, ok := strings.Cut(strings.TrimSpace(trimmed[2:]), ":"); ok && isQueryName(head) {
				name = head
			}
			continue
		}
		if trimmed == "" {
			continue
		}
		body.WriteString(trimmed)
		body.WriteByte(' ')
		if strings.HasSuffix(trimmed, ";") {
			if name == "" {
				return nil, fmt.Errorf("%s.sql: statement without a \"-- name: property\" line: %s", file, body.String())
			}
			sql := strings.TrimSuffix(strings.TrimSpace(body.String()), ";")
			out = append(out, namedQuery{Name: name, SQL: sql})
			name = ""
			body.Reset()
		}
	}
	if body.Len() > 0 {
		return nil, fmt.Errorf("%s.sql: unterminated statement %q", file, name)
	}
	return out, nil
}

// isQueryName accepts the lower-case alphanumeric names the query files use,
// so a prose comment that happens to contain a colon is not taken for one.
func isQueryName(s string) bool {
	for _, r := range s {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') {
			return false
		}
	}
	return s != ""
}

// loadQueries reads a query file, keeps its first limit statements (all of
// them when limit is 0) and compiles them against the schema.
func loadQueries(file string, limit int, schema *lpce.Schema) ([]namedQuery, error) {
	qs, err := loadSQL(file)
	if err != nil {
		return nil, err
	}
	if limit > 0 && len(qs) > limit {
		qs = qs[:limit]
	}
	for i := range qs {
		q, err := lpce.ParseSQL(schema, qs[i].SQL)
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", qs[i].Name, err)
		}
		qs[i].Q = q
	}
	return qs, nil
}
