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
// PaQL is SQL-based in its vocabulary too: aggregates are expr.Agg, the
// node minidb's aggregate queries use, and a sub-query is minidb's Subquery, parsed
// by minidb's grammar (minidb.InstallHook) while the PaQL text is.
//
// The package parses, analyzes (Analyze) and evaluates a formula over
// concrete packages (CompileGlobal once for many; Satisfies and
// ObjectiveValue for one). Whether a query is linear — which strategies
// may run it — is not an analysis result: the PaQL→ILP lowering in
// internal/translate decides it (translate.Nonlinear).
package paql

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/minidb"
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
	Repeat    int        // allowed repetitions per tuple (≥ 0): multiplicity ≤ Repeat+1
	Where     expr.Expr  // base constraints (may be nil)
	SuchThat  expr.Expr  // global constraint formula with expr.Agg leaves (may be nil)
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
	Expr  expr.Expr // numeric global expression with expr.Agg leaves
}

// MaxMultiplicity returns the maximum number of times one tuple may
// appear in the package: Repeat+1, so 1 for a query without REPEAT.
func (q *Query) MaxMultiplicity() int { return q.Repeat + 1 }

// String renders the query as PaQL text.
func (q *Query) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT PACKAGE(%s) AS %s\nFROM %s %s", q.RelVar, q.PkgVar, q.Table, q.RelVar)
	fmt.Fprintf(&b, " REPEAT %d", q.Repeat)
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

// Subqueries returns the scalar SQL sub-queries in an expression.
func Subqueries(e expr.Expr) []*minidb.Subquery {
	var out []*minidb.Subquery
	expr.Walk(e, func(n expr.Expr) {
		if s, ok := n.(*minidb.Subquery); ok {
			out = append(out, s)
		}
	})
	return out
}
