package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/query"
)

// Parse compiles a SQL string against the schema into the engine's query
// representation. Supported grammar (keywords case-insensitive):
//
//	query    := SELECT COUNT ( * ) FROM tables [WHERE conds] [;]
//	tables   := ident ("," ident)*
//	conds    := cond (AND cond)*
//	cond     := colref op (number | colref)
//	         |  colref IN "(" number ("," number)* ")"
//	colref   := table "." column
//	op       := "=" | "<>" | "!=" | "<" | "<=" | ">" | ">="
//
// A condition comparing columns of two different tables with "=" becomes an
// equi-join; a condition comparing a column to a number becomes a filter
// predicate. Comparing two columns of one table is rejected, like a table
// listed twice: the executor has no per-row column-to-column filter.
func Parse(schema *catalog.Schema, sql string) (*query.Query, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{schema: schema, toks: toks}
	return p.parseQuery()
}

type parser struct {
	schema *catalog.Schema
	toks   []token
	i      int

	tables map[string]*catalog.Table
	order  []*catalog.Table
	joins  []query.Join
	preds  []query.Predicate
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errf(t token, format string, args ...interface{}) error {
	return fmt.Errorf("sqlparse: offset %d: %s", t.pos, fmt.Sprintf(format, args...))
}

// expectKeyword consumes an identifier token matching kw (case-insensitive).
func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return p.errf(t, "expected %s, found %q", kw, t.text)
	}
	return nil
}

// expectSymbol consumes the exact symbol.
func (p *parser) expectSymbol(sym string) error {
	t := p.next()
	if t.kind != tokSymbol || t.text != sym {
		return p.errf(t, "expected %q, found %q", sym, t.text)
	}
	return nil
}

func (p *parser) parseQuery() (*query.Query, error) {
	p.tables = make(map[string]*catalog.Table)
	for _, kw := range []string{"SELECT", "COUNT"} {
		if err := p.expectKeyword(kw); err != nil {
			return nil, err
		}
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("*"); err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if err := p.parseTables(); err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind == tokIdent && strings.EqualFold(t.text, "WHERE") {
		p.next()
		if err := p.parseConds(); err != nil {
			return nil, err
		}
	}
	if t := p.cur(); t.kind == tokSymbol && t.text == ";" {
		p.next()
	}
	if t := p.cur(); t.kind != tokEOF {
		return nil, p.errf(t, "unexpected trailing input %q", t.text)
	}
	return query.New(p.order, p.joins, p.preds), nil
}

func (p *parser) parseTables() error {
	for {
		t := p.next()
		if t.kind != tokIdent {
			return p.errf(t, "expected table name, found %q", t.text)
		}
		meta := p.schema.Table(t.text)
		if meta == nil {
			return p.errf(t, "unknown table %q", t.text)
		}
		if _, dup := p.tables[meta.Name]; dup {
			return p.errf(t, "table %q listed twice (self-joins are not supported)", t.text)
		}
		if len(p.order) == query.MaxTables {
			return p.errf(t, "table %q is one too many: a query joins at most %d tables", t.text, query.MaxTables)
		}
		p.tables[meta.Name] = meta
		p.order = append(p.order, meta)
		if c := p.cur(); c.kind == tokSymbol && c.text == "," {
			p.next()
			continue
		}
		return nil
	}
}

func (p *parser) parseConds() error {
	for {
		if err := p.parseCond(); err != nil {
			return err
		}
		if t := p.cur(); t.kind == tokIdent && strings.EqualFold(t.text, "AND") {
			p.next()
			continue
		}
		return nil
	}
}

func (p *parser) parseCond() error {
	col, err := p.parseColRef()
	if err != nil {
		return err
	}
	t := p.next()
	switch {
	case t.kind == tokIdent && strings.EqualFold(t.text, "IN"):
		set, err := p.parseNumberList()
		if err != nil {
			return err
		}
		p.preds = append(p.preds, query.Predicate{Col: col, Op: query.OpIn, InSet: set})
		return nil
	case t.kind == tokOperator:
		op, err := parseOp(t.text)
		if err != nil {
			return p.errf(t, "%v", err)
		}
		rhs := p.cur()
		if rhs.kind == tokNumber {
			p.next()
			v, err := strconv.ParseInt(rhs.text, 10, 64)
			if err != nil {
				return p.errf(rhs, "bad number %q", rhs.text)
			}
			p.preds = append(p.preds, query.Predicate{Col: col, Op: op, Operand: v})
			return nil
		}
		// column = column: an equi-join
		right, err := p.parseColRef()
		if err != nil {
			return err
		}
		if op != query.OpEQ {
			return p.errf(t, "only equi-joins are supported between columns (found %q)", t.text)
		}
		if right.Table == col.Table {
			return p.errf(rhs, "%s and %s are columns of one table (same-table comparisons are not supported)",
				col.QualifiedName(), right.QualifiedName())
		}
		p.joins = append(p.joins, query.Join{Left: col, Right: right})
		return nil
	default:
		return p.errf(t, "expected comparison operator or IN, found %q", t.text)
	}
}

func parseOp(s string) (query.Op, error) {
	switch s {
	case "=":
		return query.OpEQ, nil
	case "<>", "!=":
		return query.OpNE, nil
	case "<":
		return query.OpLT, nil
	case "<=":
		return query.OpLE, nil
	case ">":
		return query.OpGT, nil
	case ">=":
		return query.OpGE, nil
	default:
		return 0, fmt.Errorf("unknown operator %q", s)
	}
}

func (p *parser) parseColRef() (*catalog.Column, error) {
	t := p.next()
	if t.kind != tokIdent {
		return nil, p.errf(t, "expected column reference, found %q", t.text)
	}
	tab, ok := p.tables[t.text]
	if !ok {
		if p.schema.Table(t.text) != nil {
			return nil, p.errf(t, "table %q referenced but not in FROM list", t.text)
		}
		return nil, p.errf(t, "unknown table %q", t.text)
	}
	if err := p.expectSymbol("."); err != nil {
		return nil, err
	}
	c := p.next()
	if c.kind != tokIdent {
		return nil, p.errf(c, "expected column name, found %q", c.text)
	}
	col := tab.Column(c.text)
	if col == nil {
		return nil, p.errf(c, "table %q has no column %q", tab.Name, c.text)
	}
	return col, nil
}

func (p *parser) parseNumberList() ([]int64, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var out []int64
	for {
		t := p.next()
		if t.kind != tokNumber {
			return nil, p.errf(t, "expected number in IN list, found %q", t.text)
		}
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf(t, "bad number %q", t.text)
		}
		out = append(out, v)
		s := p.next()
		if s.kind == tokSymbol && s.text == "," {
			continue
		}
		if s.kind == tokSymbol && s.text == ")" {
			return out, nil
		}
		return nil, p.errf(s, "expected ',' or ')' in IN list, found %q", s.text)
	}
}
