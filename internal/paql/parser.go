package paql

import (
	"fmt"
	"strings"

	"repro/internal/minidb"
	"repro/internal/parse"
)

// Parse parses a PaQL query.
func Parse(src string) (*Query, error) {
	p, err := parse.NewParser(src)
	if err != nil {
		return nil, err
	}
	// Aggregates and sub-queries are SQL's productions (minidb's
	// grammar): a sub-query is parsed here, as SQL, not at evaluation.
	minidb.InstallHook(p)
	q := &Query{Raw: strings.TrimSpace(src), Repeat: 0}
	// [EXPLAIN] SELECT PACKAGE(R) [AS P]
	if p.AcceptKeyword("EXPLAIN") {
		q.Explain = true
		// Raw keeps the query proper so plans and round-trips print it
		// without the prefix.
		if len(q.Raw) >= 7 && strings.EqualFold(q.Raw[:7], "EXPLAIN") {
			q.Raw = strings.TrimSpace(q.Raw[7:])
		}
	}
	if err := p.ExpectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("PACKAGE"); err != nil {
		return nil, err
	}
	if err := p.ExpectPunct("("); err != nil {
		return nil, err
	}
	relVar, err := p.ParseIdent()
	if err != nil {
		return nil, err
	}
	q.RelVar = relVar
	if err := p.ExpectPunct(")"); err != nil {
		return nil, err
	}
	q.PkgVar = "P"
	if p.AcceptKeyword("AS") {
		pv, err := p.ParseIdent()
		if err != nil {
			return nil, err
		}
		q.PkgVar = pv
	}
	// FROM table [alias] [REPEAT k]
	if err := p.ExpectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ParseIdent()
	if err != nil {
		return nil, err
	}
	q.Table = table
	if t := p.Peek(); t.Kind == parse.TIdent && !isPaqlKeyword(t.Text) {
		alias := p.Next().Text
		if !strings.EqualFold(alias, q.RelVar) {
			return nil, fmt.Errorf("paql: FROM binds %q but PACKAGE(%s) references %q", alias, q.RelVar, q.RelVar)
		}
	} else if !strings.EqualFold(q.RelVar, q.Table) {
		// PACKAGE(R) with "FROM Recipes" and no alias: accept when the
		// package variable matches the table name, otherwise the alias
		// is required.
		return nil, fmt.Errorf("paql: PACKAGE(%s) does not match FROM relation %q (missing alias?)", q.RelVar, q.Table)
	}
	if p.AcceptKeyword("REPEAT") {
		n, err := p.ParseInt()
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("paql: REPEAT must be non-negative, got %d", n)
		}
		q.Repeat = int(n)
	}
	// WHERE <base constraints>. Aggregates and sub-queries parse here
	// too, so that Analyze can reject them with a targeted message
	// ("aggregates belong in SUCH THAT").
	if p.AcceptKeyword("WHERE") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	// SUCH THAT <global formula> — aggregate-bearing expressions.
	if p.PeekKeyword("SUCH") {
		p.Next()
		if err := p.ExpectKeyword("THAT"); err != nil {
			return nil, err
		}
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		q.SuchThat = e
	}
	// MAXIMIZE / MINIMIZE
	if p.PeekKeyword("MAXIMIZE") || p.PeekKeyword("MINIMIZE") {
		sense := Maximize
		if p.AcceptKeyword("MINIMIZE") {
			sense = Minimize
		} else {
			p.Next()
		}
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		q.Objective = &Objective{Sense: sense, Expr: e}
	}
	if p.AcceptKeyword("LIMIT") {
		n, err := p.ParseInt()
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("paql: LIMIT must be at least 1, got %d", n)
		}
		q.Limit = int(n)
	}
	p.AcceptPunct(";")
	if !p.AtEOF() {
		return nil, p.Errf("unexpected trailing input")
	}
	return q, nil
}

func isPaqlKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "REPEAT", "WHERE", "SUCH", "THAT", "MAXIMIZE", "MINIMIZE", "LIMIT", "AS", "FROM", "SELECT":
		return true
	}
	return false
}
