package paql

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/minidb"
	"repro/internal/schema"
)

// Analysis is the result of semantic analysis: a query validated and
// bound against its relation schema, with its aggregate inventory. It
// carries no linearity verdict: whether a query admits the exact MILP
// translation is decided by the translation's own lowering
// (translate.Nonlinear), the one place that can know.
type Analysis struct {
	Query  *Query
	Schema schema.Schema // relation schema qualified by the relation variable
	Aggs   []*expr.Agg   // distinct aggregates across SUCH THAT and objective
}

// Analyze validates and binds q against the relation schema (columns
// must be unqualified, as stored in the minidb catalog). It rewrites
// package-variable qualifiers (P.col) to the relation variable, binds
// every column reference, and verifies aggregate argument types. The
// aggregates' shapes are the grammar's (minidb.InstallHook). Sub-queries
// must already be folded to constants (the engine folds them with
// minidb.DB.FoldSubqueries); any remaining sub-query is an error.
func Analyze(q *Query, relSchema schema.Schema) (*Analysis, error) {
	qualified := relSchema.WithQualifier(q.RelVar)
	a := &Analysis{Query: q, Schema: qualified}

	normalize := func(e expr.Expr) {
		expr.Walk(e, func(n expr.Expr) {
			if c, ok := n.(*expr.Col); ok {
				if strings.EqualFold(c.Table, q.PkgVar) || strings.EqualFold(c.Table, q.Table) {
					c.Table = q.RelVar
				}
			}
		})
	}

	// Base constraints: plain tuple predicates, no aggregates.
	if q.Where != nil {
		if len(expr.Aggregates(q.Where)) > 0 {
			return nil, fmt.Errorf("paql: WHERE holds base constraints; aggregates belong in SUCH THAT")
		}
		if len(Subqueries(q.Where)) > 0 {
			return nil, fmt.Errorf("paql: sub-queries are supported in SUCH THAT, not WHERE")
		}
		normalize(q.Where)
		if err := expr.Bind(q.Where, qualified); err != nil {
			return nil, fmt.Errorf("paql: WHERE: %w", err)
		}
	}

	bindGlobal := func(clause string, e expr.Expr) error {
		var firstErr error
		expr.Walk(e, func(n expr.Expr) {
			if firstErr != nil {
				return
			}
			switch node := n.(type) {
			case *minidb.Subquery:
				firstErr = fmt.Errorf("paql: %s: sub-query not folded: %s", clause, node)
			case *expr.Agg:
				for _, part := range node.Children() {
					normalize(part)
					if err := expr.Bind(part, qualified); err != nil {
						firstErr = fmt.Errorf("paql: %s: %w", clause, err)
						return
					}
				}
			case *expr.Col:
				// A bare column outside any aggregate cannot be a
				// package-level value.
				if !insideAgg(e, node) {
					firstErr = fmt.Errorf("paql: %s: bare column %s outside an aggregate (global constraints aggregate over the package)", clause, node)
				}
			}
		})
		return firstErr
	}
	if q.SuchThat != nil {
		if err := bindGlobal("SUCH THAT", q.SuchThat); err != nil {
			return nil, err
		}
		if err := checkArgTypes("SUCH THAT", q.SuchThat, qualified); err != nil {
			return nil, err
		}
	}
	if q.Objective != nil {
		if err := bindGlobal(q.Objective.Sense.String(), q.Objective.Expr); err != nil {
			return nil, err
		}
		if err := checkArgTypes(q.Objective.Sense.String(), q.Objective.Expr, qualified); err != nil {
			return nil, err
		}
	}

	// Aggregate inventory: SUCH THAT's, then what only the objective adds.
	var objective expr.Expr
	if q.Objective != nil {
		objective = q.Objective.Expr
	}
	a.Aggs = expr.Aggregates(q.SuchThat, objective)
	return a, nil
}

// checkArgTypes rejects, naming the atom, SUM, AVG, MIN or MAX over a
// column whose declared type is not numeric: global constraints compare
// aggregates with numbers and objectives optimize one. COUNT takes any
// argument. e is a bound SUCH THAT formula or objective expression.
func checkArgTypes(clause string, e expr.Expr, s schema.Schema) error {
	switch n := e.(type) {
	case *expr.Binary:
		if n.Op == expr.OpAnd || n.Op == expr.OpOr {
			return cmp.Or(checkArgTypes(clause, n.L, s), checkArgTypes(clause, n.R, s))
		}
	case *expr.Not:
		return checkArgTypes(clause, n.X, s)
	}
	for _, a := range expr.Aggregates(e) {
		if c, bare := a.Arg.(*expr.Col); bare && a.Fn != "COUNT" && !s.Cols[c.Idx].Type.Numeric() {
			return fmt.Errorf("paql: %s: %s: %s needs a numeric argument, %s is %s", clause, e, a.Fn, c, s.Cols[c.Idx].Type)
		}
	}
	return nil
}

// insideAgg reports whether the column node appears within some
// aggregate's argument or filter in the tree rooted at e.
func insideAgg(e expr.Expr, target *expr.Col) bool {
	found := false
	expr.Walk(e, func(n expr.Expr) {
		if a, ok := n.(*expr.Agg); ok {
			for _, child := range a.Children() {
				expr.Walk(child, func(m expr.Expr) {
					if m == expr.Expr(target) {
						found = true
					}
				})
			}
		}
	})
	return found
}
