// Package paql implements PaQL, the declarative SQL-based package query
// language of the PackageBuilder paper (§2). A PaQL query selects a
// *package* — a multiset of tuples from one base relation — subject to
// per-tuple base constraints (WHERE), collective global constraints
// (SUCH THAT) and an optional per-package objective
// (MAXIMIZE/MINIMIZE):
//
//	SELECT PACKAGE(R) AS P
//	FROM   Recipes R REPEAT 0
//	WHERE  R.gluten = 'free'
//	SUCH THAT COUNT(*) = 3
//	      AND SUM(P.calories) BETWEEN 2000 AND 2500
//	MAXIMIZE SUM(P.protein)
//
// Extensions beyond the paper's examples, motivated by its §1 scenarios
// and §5 future work:
//   - filtered aggregates, e.g. COUNT(* WHERE P.kind = 'car') — the
//     vacation planner's "unless the budget fits a rental car";
//   - scalar SQL sub-queries in SUCH THAT (mentioned in §2), evaluated
//     against the backing DBMS and folded to constants;
//   - LIMIT n requesting n distinct packages (§5 "solver limitations").
//
// The package parses, analyzes (Analyze) and evaluates a formula over a
// concrete package (Satisfies, EvalGlobal). Whether a query is linear —
// which strategies may run it — is not an analysis result: the PaQL→ILP
// lowering in internal/translate decides it (translate.Nonlinear).
package paql

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/value"
)

// Sense is the objective direction.
type Sense int

const (
	Maximize Sense = iota // MAXIMIZE
	Minimize              // MINIMIZE
)

// String renders the sense as its PaQL keyword.
func (s Sense) String() string {
	if s == Minimize {
		return "MINIMIZE"
	}
	return "MAXIMIZE"
}

// Query is a parsed PaQL query.
type Query struct {
	PkgVar    string     // package variable (AS P); defaults to "P"
	RelVar    string     // relation binding in FROM (e.g. R)
	Table     string     // base relation name
	Repeat    int        // allowed repetitions per tuple: multiplicity ≤ Repeat+1; -1 = unlimited
	Where     expr.Expr  // base constraints (may be nil)
	SuchThat  expr.Expr  // global constraint formula with Agg leaves (may be nil)
	Objective *Objective // may be nil
	Limit     int        // number of packages requested; 0 means 1
	Raw       string     // original query text
	// Explain marks an EXPLAIN-prefixed query: the engine plans it (the
	// decision trail, a reason per decision) but does not execute it.
	Explain bool
}

// Objective is the optimization clause.
type Objective struct {
	Sense Sense
	Expr  expr.Expr // numeric global expression with Agg leaves
}

// MaxMultiplicity returns the maximum number of times one tuple may
// appear in the package (Repeat+1), or 0 for unlimited.
func (q *Query) MaxMultiplicity() int {
	if q.Repeat < 0 {
		return 0
	}
	return q.Repeat + 1
}

// String renders the query as PaQL text.
func (q *Query) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT PACKAGE(%s) AS %s\nFROM %s %s", q.RelVar, q.PkgVar, q.Table, q.RelVar)
	if q.Repeat >= 0 {
		fmt.Fprintf(&b, " REPEAT %d", q.Repeat)
	}
	if q.Where != nil {
		fmt.Fprintf(&b, "\nWHERE %s", q.Where)
	}
	if q.SuchThat != nil {
		fmt.Fprintf(&b, "\nSUCH THAT %s", q.SuchThat)
	}
	if q.Objective != nil {
		fmt.Fprintf(&b, "\n%s %s", q.Objective.Sense, q.Objective.Expr)
	}
	if q.Limit > 1 {
		fmt.Fprintf(&b, "\nLIMIT %d", q.Limit)
	}
	return b.String()
}

// Agg is a package-level aggregate appearing in SUCH THAT or the
// objective: COUNT(*), SUM(P.col), MIN/MAX/AVG(P.col), optionally with a
// per-tuple filter (COUNT(* WHERE pred), SUM(P.x WHERE pred)). It
// implements expr.Expr so global formulas reuse the shared expression
// machinery, and expr.Container so traversal descends into Arg/Filter.
type Agg struct {
	Fn     string    // COUNT, SUM, MIN, MAX, AVG
	Star   bool      // COUNT(*)
	Arg    expr.Expr // over the relation schema; nil when Star
	Filter expr.Expr // optional per-tuple predicate
}

// Eval reports an error: aggregates are evaluated per package by
// EvalGlobal or by the evaluation strategies.
func (a *Agg) Eval(schema.Row) (value.V, error) {
	return value.Null(), fmt.Errorf("paql: aggregate %s evaluated outside a package context", a)
}

// Term is the aggregate's view of one tuple, and the only place its
// filter, argument and NULL rule are applied: present reports that the
// filter passes and (COUNT(*) aside) the argument is not NULL — the tuple
// belongs to the aggregate's selection — and v is then the argument's
// value (1 for COUNT(*)). Every evaluator is a fold over it.
func (a *Agg) Term(row schema.Row) (v value.V, present bool, err error) {
	if a.Filter != nil {
		if ok, err := expr.EvalBool(a.Filter, row); err != nil || !ok {
			return value.Null(), false, err
		}
	}
	if a.Star {
		return value.Int(1), true, nil
	}
	v, err = a.Arg.Eval(row)
	return v, err == nil && !v.IsNull(), err
}

// String renders the aggregate in PaQL syntax.
func (a *Agg) String() string {
	var inner string
	if a.Star {
		inner = "*"
	} else {
		inner = a.Arg.String()
	}
	if a.Filter != nil {
		inner += " WHERE " + a.Filter.String()
	}
	return a.Fn + "(" + inner + ")"
}

// Children implements expr.Container.
func (a *Agg) Children() []expr.Expr {
	var out []expr.Expr
	if a.Arg != nil {
		out = append(out, a.Arg)
	}
	if a.Filter != nil {
		out = append(out, a.Filter)
	}
	return out
}

// CloneWith implements expr.Container.
func (a *Agg) CloneWith(children []expr.Expr) expr.Expr {
	c := &Agg{Fn: a.Fn, Star: a.Star}
	i := 0
	if a.Arg != nil {
		c.Arg = children[i]
		i++
	}
	if a.Filter != nil {
		c.Filter = children[i]
	}
	return c
}

// Subquery is a scalar SQL sub-query inside a global expression. The
// engine evaluates SQL against the backing database and folds the node
// to a constant before analysis.
type Subquery struct {
	SQL string
}

// Eval reports an error: sub-queries must be folded first.
func (s *Subquery) Eval(schema.Row) (value.V, error) {
	return value.Null(), fmt.Errorf("paql: unfolded sub-query (%s)", s.SQL)
}

// String renders the sub-query.
func (s *Subquery) String() string { return "(" + s.SQL + ")" }

// Children implements expr.Container.
func (s *Subquery) Children() []expr.Expr { return nil }

// CloneWith implements expr.Container.
func (s *Subquery) CloneWith([]expr.Expr) expr.Expr { return &Subquery{SQL: s.SQL} }

// Aggregates returns the distinct Agg nodes (by rendered text) in an
// expression, in first-appearance order.
func Aggregates(e expr.Expr) []*Agg {
	var out []*Agg
	seen := map[string]bool{}
	expr.Walk(e, func(n expr.Expr) {
		if a, ok := n.(*Agg); ok {
			k := a.String()
			if !seen[k] {
				seen[k] = true
				out = append(out, a)
			}
		}
	})
	return out
}

// Subqueries returns the Subquery nodes in an expression.
func Subqueries(e expr.Expr) []*Subquery {
	var out []*Subquery
	expr.Walk(e, func(n expr.Expr) {
		if s, ok := n.(*Subquery); ok {
			out = append(out, s)
		}
	})
	return out
}
