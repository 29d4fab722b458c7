package minidb

import (
	"strings"

	"repro/internal/expr"
	"repro/internal/parse"
	"repro/internal/schema"
)

// ParseStmt parses a single SQL statement (an optional trailing ';' is
// allowed).
func ParseStmt(src string) (Stmt, error) {
	p, err := parse.NewParser(src)
	if err != nil {
		return nil, err
	}
	InstallHook(p)
	st, err := parseStmt(p)
	if err != nil {
		return nil, err
	}
	p.AcceptPunct(";")
	if !p.AtEOF() {
		return nil, p.Errf("unexpected trailing input")
	}
	return st, nil
}

// InstallHook extends p's expression grammar with the productions SQL
// and PaQL share: aggregate calls (expr.Agg) and scalar sub-queries
// (Subquery). It is the one grammar extension, so one rule holds in both
// languages:
//   - COUNT(*) is the only star aggregate;
//   - an aggregate's argument or filter holds no aggregate;
//   - a sub-query may stand wherever an expression can, aggregate
//     arguments included;
//   - an aggregate may carry a per-tuple filter, FN(arg WHERE pred),
//     which PaQL evaluates and the SQL planner refuses.
func InstallHook(p *parse.Parser) {
	inAgg := false // parsing an aggregate's argument or filter
	p.PrimaryHook = func(p *parse.Parser) (expr.Expr, bool, error) {
		t := p.Peek()
		if t.Kind == parse.TIdent && p.PeekAt(1).Kind == parse.TPunct && p.PeekAt(1).Text == "(" {
			fn := strings.ToUpper(t.Text)
			switch fn {
			case "COUNT", "SUM", "AVG", "MIN", "MAX":
				if inAgg {
					return nil, true, p.Errf("aggregate %s nested inside another aggregate", fn)
				}
				p.Next() // fn
				p.Next() // (
				inAgg = true
				defer func() { inAgg = false }()
				agg := &expr.Agg{Fn: fn}
				var err error
				if p.AcceptPunct("*") {
					if fn != "COUNT" {
						return nil, true, p.Errf("%s(*) is not valid; only COUNT(*)", fn)
					}
					agg.Star = true
				} else if agg.Arg, err = p.ParseExpr(); err != nil {
					return nil, true, err
				}
				if p.AcceptKeyword("WHERE") {
					if agg.Filter, err = p.ParseExpr(); err != nil {
						return nil, true, err
					}
				}
				if err := p.ExpectPunct(")"); err != nil {
					return nil, true, err
				}
				return agg, true, nil
			}
		}
		// Scalar sub-query: '(' SELECT ... — its own statement, where
		// aggregates are allowed again.
		if t.Kind == parse.TPunct && t.Text == "(" {
			nxt := p.PeekAt(1)
			if nxt.Kind == parse.TIdent && strings.EqualFold(nxt.Text, "SELECT") {
				p.Next() // (
				start := p.Peek().Pos
				outer := inAgg
				inAgg = false
				sub, err := parseSelect(p)
				inAgg = outer
				if err != nil {
					return nil, true, err
				}
				end := p.Peek().Pos
				if err := p.ExpectPunct(")"); err != nil {
					return nil, true, err
				}
				return &Subquery{Stmt: sub, Text: sliceSrc(p, start, end)}, true, nil
			}
		}
		return nil, false, nil
	}
}

// sliceSrc extracts the source text between two token offsets, used to
// preserve sub-query text for rendering.
func sliceSrc(p *parse.Parser, start, end int) string {
	src := p.Src()
	if start < 0 || end > len(src) || start > end {
		return ""
	}
	return strings.TrimSpace(src[start:end])
}

func parseStmt(p *parse.Parser) (Stmt, error) {
	switch {
	case p.PeekKeyword("CREATE"):
		return parseCreate(p)
	case p.PeekKeyword("INSERT"):
		return parseInsert(p)
	case p.PeekKeyword("DELETE"):
		return parseDelete(p)
	case p.PeekKeyword("SELECT"):
		return parseSelect(p)
	}
	return nil, p.Errf("expected CREATE, INSERT, DELETE or SELECT")
}

func parseCreate(p *parse.Parser) (Stmt, error) {
	_ = p.ExpectKeyword("CREATE")
	if !p.AcceptKeyword("TABLE") {
		return nil, p.Errf("expected TABLE after CREATE")
	}
	name, err := p.ParseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectPunct("("); err != nil {
		return nil, err
	}
	var cols []schema.Column
	for {
		cn, err := p.ParseIdent()
		if err != nil {
			return nil, err
		}
		tn, err := p.ParseIdent()
		if err != nil {
			return nil, err
		}
		ty, err := schema.TypeFromName(tn)
		if err != nil {
			return nil, p.Errf("%v", err)
		}
		cols = append(cols, schema.Column{Name: cn, Type: ty})
		if !p.AcceptPunct(",") {
			break
		}
	}
	if err := p.ExpectPunct(")"); err != nil {
		return nil, err
	}
	return &CreateTableStmt{Name: name, Schema: schema.Schema{Cols: cols}}, nil
}

func parseInsert(p *parse.Parser) (Stmt, error) {
	_ = p.ExpectKeyword("INSERT")
	if err := p.ExpectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ParseIdent()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	if p.AcceptPunct("(") {
		for {
			c, err := p.ParseIdent()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, c)
			if !p.AcceptPunct(",") {
				break
			}
		}
		if err := p.ExpectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.ExpectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.ExpectPunct("("); err != nil {
			return nil, err
		}
		var row []expr.Expr
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.AcceptPunct(",") {
				break
			}
		}
		if err := p.ExpectPunct(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.AcceptPunct(",") {
			break
		}
	}
	return st, nil
}

func parseDelete(p *parse.Parser) (Stmt, error) {
	_ = p.ExpectKeyword("DELETE")
	if err := p.ExpectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ParseIdent()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table}
	if p.AcceptKeyword("WHERE") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

// statement keywords that terminate a select item / table ref alias.
// The clauses minidb refuses stay reserved too, so none is read as an
// alias.
var reservedAfterItem = map[string]bool{
	"FROM": true, "WHERE": true, "GROUP": true, "HAVING": true,
	"ORDER": true, "LIMIT": true, "OFFSET": true, "ON": true,
	"JOIN": true, "INNER": true, "AS": true, "ASC": true, "DESC": true,
	"UNION": true, "BY": true, "AND": true, "OR": true, "NOT": true,
}

// refused names the SQL clauses minidb does not run that may follow a
// SELECT's FROM list, by their leading keyword (DISTINCT and derived
// tables are refused where they stand). No caller's queries use them; a
// query that does fails at parse time with the clause's name rather
// than a generic syntax error.
var refused = map[string]string{
	"JOIN": "JOIN ... ON", "INNER": "JOIN ... ON", "GROUP": "GROUP BY",
	"HAVING": "HAVING", "ORDER": "ORDER BY", "OFFSET": "OFFSET",
}

// parseSelect parses SELECT items FROM ref, ref... [WHERE pred] [LIMIT n].
func parseSelect(p *parse.Parser) (*SelectStmt, error) {
	if err := p.ExpectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if p.PeekKeyword("DISTINCT") {
		return nil, p.Errf("minidb does not support DISTINCT")
	}
	st := &SelectStmt{}
	for {
		item, err := parseSelectItem(p)
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.AcceptPunct(",") {
			break
		}
	}
	if err := p.ExpectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		r, err := parseTableRef(p)
		if err != nil {
			return nil, err
		}
		st.From = append(st.From, r)
		if !p.AcceptPunct(",") {
			break
		}
	}
	if p.AcceptKeyword("WHERE") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.AcceptKeyword("LIMIT") {
		n, err := p.ParseInt()
		if err != nil {
			return nil, err
		}
		st.Limit = &n
	}
	if t := p.Peek(); t.Kind == parse.TIdent {
		if clause, ok := refused[strings.ToUpper(t.Text)]; ok {
			return nil, p.Errf("minidb does not support %s", clause)
		}
	}
	return st, nil
}

func parseSelectItem(p *parse.Parser) (SelectItem, error) {
	// "*" or "alias.*"
	if p.AcceptPunct("*") {
		return SelectItem{Star: true}, nil
	}
	if p.Peek().Kind == parse.TIdent &&
		p.PeekAt(1).Kind == parse.TPunct && p.PeekAt(1).Text == "." &&
		p.PeekAt(2).Kind == parse.TPunct && p.PeekAt(2).Text == "*" {
		qual := p.Next().Text
		p.Next()
		p.Next()
		return SelectItem{Star: true, StarQual: qual}, nil
	}
	e, err := p.ParseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.AcceptKeyword("AS") {
		a, err := p.ParseIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if t := p.Peek(); t.Kind == parse.TIdent && !reservedAfterItem[strings.ToUpper(t.Text)] {
		// bare alias
		item.Alias = p.Next().Text
	}
	return item, nil
}

func parseTableRef(p *parse.Parser) (TableRef, error) {
	if p.PeekPunct("(") {
		return TableRef{}, p.Errf("minidb does not support derived tables (FROM (SELECT ...))")
	}
	name, err := p.ParseIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.AcceptKeyword("AS") {
		a, err := p.ParseIdent()
		if err != nil {
			return ref, err
		}
		ref.Alias = a
	} else if t := p.Peek(); t.Kind == parse.TIdent && !reservedAfterItem[strings.ToUpper(t.Text)] {
		ref.Alias = p.Next().Text
	}
	return ref, nil
}
