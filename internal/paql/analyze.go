package paql

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/schema"
)

// Analysis is the result of semantic analysis: a query validated and
// bound against its relation schema, with aggregate inventory and a
// linearity verdict that drives evaluation-strategy selection (§5:
// "solvers cannot usually handle non-linear global constraints; hence
// evaluating such queries requires different methods").
type Analysis struct {
	Query  *Query
	Schema schema.Schema // relation schema qualified by the relation variable
	Aggs   []*Agg        // distinct aggregates across SUCH THAT and objective

	// Linear reports whether the whole query (constraints and
	// objective) admits an exact mixed-integer linear translation.
	Linear bool
	// NonlinearReasons explains each linearity obstruction.
	NonlinearReasons []string
}

// Analyze validates and binds q against the relation schema (columns
// must be unqualified, as stored in the minidb catalog). It rewrites
// package-variable qualifiers (P.col) to the relation variable, binds
// every column reference, verifies aggregate shapes, and classifies
// linearity. Sub-queries must already be folded to constants (see
// FoldSubqueries in the engine); any remaining Subquery is an error.
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
		if len(Aggregates(q.Where)) > 0 {
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
			case *Subquery:
				firstErr = fmt.Errorf("paql: %s: sub-query not folded: %s", clause, node)
			case *Agg:
				switch node.Fn {
				case "COUNT", "SUM", "MIN", "MAX", "AVG":
				default:
					firstErr = fmt.Errorf("paql: %s: unknown aggregate %s", clause, node.Fn)
					return
				}
				if !node.Star && node.Arg == nil {
					firstErr = fmt.Errorf("paql: %s: aggregate %s lacks an argument", clause, node.Fn)
					return
				}
				for _, part := range []expr.Expr{node.Arg, node.Filter} {
					if part == nil {
						continue
					}
					if len(Aggregates(part)) > 0 {
						firstErr = fmt.Errorf("paql: %s: aggregate nested inside %s", clause, node)
						return
					}
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
	inventory := q.SuchThat
	if q.Objective != nil {
		inventory = expr.AndAll(q.SuchThat, q.Objective.Expr)
	}
	a.Aggs = Aggregates(inventory)

	// Linearity.
	a.Linear = true
	if q.SuchThat != nil {
		checkFormulaLinear(q.SuchThat, false, a)
	}
	if q.Objective != nil {
		if cls := classify(q.Objective.Expr); cls != classConst && cls != classAffine {
			a.Linear = false
			a.NonlinearReasons = append(a.NonlinearReasons,
				fmt.Sprintf("objective %s is not affine in SUM/COUNT aggregates", q.Objective.Expr))
		}
	}
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
	for _, a := range Aggregates(e) {
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
		if a, ok := n.(*Agg); ok {
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

// expression classes for linearity analysis
type exprClass int

const (
	classConst    exprClass = iota // no aggregates
	classAffine                    // affine combination of SUM/COUNT aggregates
	classRatio                     // AVG alone (linearizable only vs a constant)
	classExtremal                  // MIN/MAX alone (rewritable only vs a constant)
	classNonlin                    // anything else
)

// classify assigns a class to a numeric global expression.
func classify(e expr.Expr) exprClass {
	switch n := e.(type) {
	case *expr.Const:
		return classConst
	case *Agg:
		switch n.Fn {
		case "COUNT", "SUM":
			return classAffine
		case "AVG":
			return classRatio
		case "MIN", "MAX":
			return classExtremal
		}
		return classNonlin
	case *expr.Neg:
		c := classify(n.X)
		if c == classConst || c == classAffine {
			return c
		}
		return classNonlin
	case *expr.Binary:
		l, r := classify(n.L), classify(n.R)
		switch n.Op {
		case expr.OpAdd, expr.OpSub:
			switch {
			case l == classConst && r == classConst:
				return classConst
			case (l == classConst || l == classAffine) && (r == classConst || r == classAffine):
				return classAffine
			}
			return classNonlin
		case expr.OpMul:
			switch {
			case l == classConst && r == classConst:
				return classConst
			case l == classConst && r == classAffine, l == classAffine && r == classConst:
				return classAffine
			}
			return classNonlin
		case expr.OpDiv:
			switch {
			case l == classConst && r == classConst:
				return classConst
			case l == classAffine && r == classConst:
				return classAffine
			}
			return classNonlin
		}
		return classNonlin
	case *expr.Call:
		// Scalar functions of constants stay constant; of aggregates,
		// they are nonlinear.
		for _, arg := range n.Args {
			if classify(arg) != classConst {
				return classNonlin
			}
		}
		return classConst
	}
	return classNonlin
}

// checkFormulaLinear walks a boolean global formula, recording
// obstructions to an exact MILP translation. neg tracks negation depth
// parity (NOT over comparisons is linear because comparisons negate;
// NOT over other shapes is handled by De Morgan pushing in translate).
func checkFormulaLinear(e expr.Expr, neg bool, a *Analysis) {
	fail := func(format string, args ...any) {
		a.Linear = false
		a.NonlinearReasons = append(a.NonlinearReasons, fmt.Sprintf(format, args...))
	}
	switch n := e.(type) {
	case *expr.Binary:
		if n.Op == expr.OpAnd || n.Op == expr.OpOr {
			checkFormulaLinear(n.L, neg, a)
			checkFormulaLinear(n.R, neg, a)
			return
		}
		if !n.Op.Comparison() {
			fail("global constraint %s is not a comparison or boolean combination", n)
			return
		}
		l, r := classify(n.L), classify(n.R)
		op := n.Op
		if neg {
			op, _ = op.Negate()
		}
		switch {
		case (l == classConst || l == classAffine) && (r == classConst || r == classAffine):
			if op == expr.OpNe {
				fail("constraint %s: <> over aggregates needs a disjunction of strict inequalities (handled by search strategies only)", n)
			}
		case l == classRatio && r == classConst, l == classConst && r == classRatio:
			if op == expr.OpEq || op == expr.OpNe {
				fail("constraint %s: AVG equality does not linearize exactly", n)
			}
		case l == classExtremal && r == classConst, l == classConst && r == classExtremal:
			if op == expr.OpEq || op == expr.OpNe {
				fail("constraint %s: MIN/MAX equality does not linearize exactly", n)
			}
		default:
			fail("constraint %s mixes aggregates non-linearly", n)
		}
	case *expr.Not:
		checkFormulaLinear(n.X, !neg, a)
	case *expr.Between:
		lo := classify(n.Lo)
		hi := classify(n.Hi)
		x := classify(n.X)
		if lo != classConst || hi != classConst {
			fail("BETWEEN bounds in %s must be constants", n)
			return
		}
		switch x {
		case classConst, classAffine, classRatio, classExtremal:
			// expands to two comparisons vs constants
		default:
			fail("BETWEEN subject in %s is non-linear", n)
		}
	case *expr.Const:
		// TRUE/FALSE literal: fine.
	case *Agg:
		fail("aggregate %s used as a boolean", n)
	default:
		fail("global constraint %s has no linear form", e)
	}
}
