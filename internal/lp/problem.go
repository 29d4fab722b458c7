// Package lp implements a bounded-variable, two-phase primal simplex
// solver for linear programs, with a bounded dual simplex restart. It is the foundation of the MILP
// branch-and-bound in internal/milp, which PackageBuilder uses as its
// "state-of-the-art constraint solver" substitute: PaQL queries are
// translated to integer programs whose LP relaxations this package
// solves, and internal/bound solves the certified-bound relaxations
// (a handful of rows over thousands of bounded columns) on it.
//
// The solver handles
//
//	minimize    cᵀx
//	subject to  Σⱼ aᵢⱼ xⱼ  {≤,=,≥}  bᵢ      for each row i
//	            loⱼ ≤ xⱼ ≤ upⱼ               for each variable j
//
// with finite lower bounds (default 0) and optionally infinite upper
// bounds. Variable bounds are handled natively by the simplex (nonbasic
// variables sit at either bound and can "bound-flip"), which keeps the
// working matrix small: branch-and-bound tightens bounds without adding
// rows.
//
// The kernel works on one flat row-major matrix B⁻¹[A | I] held in a
// Workspace that callers solving many problems reuse: a solve on a
// workspace that has seen the shape before allocates only its Solution.
// An iteration prices the carried reduced-cost row (O(n)), runs the
// ratio test down one column (O(m)), and pivots the matrix and the
// reduced-cost row together (O(m·n)); basic values move by the step
// rather than being rebuilt. Reduced costs and basic values are rebuilt
// from the matrix when a phase starts and again before it declares
// optimality, so the carried quantities never decide the final answer.
// Optimal solves report the row prices (Solution.Duals) read off the
// B⁻¹ block; Multiplier and Lagrangian turn prices into a weak-duality
// certificate, L(y) under its rounding margin, for internal/bound's pass
// and internal/milp's LP-first root and limit-path bound.
//
// A branch-and-bound child differs from its parent in one bound, so the
// parent's optimal basis (Workspace.Basis) stays dual feasible for it.
// Workspace.SolveFrom pivots that basis in (at most one pivot per row),
// runs the bounded dual simplex until every basic value is inside its
// bounds, and ends in the primal loop's own optimality test: a child
// costs a few pivots and no phase 1. The restart reports "infeasible"
// only on a row whose range over the nonbasic columns' box misses the
// violated bound; whatever else it cannot settle it solves cold.
package lp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Inf is the upper bound meaning "unbounded above".
var Inf = math.Inf(1)

// Sense selects the optimization direction.
type Sense int

// The two optimization directions.
const (
	Minimize Sense = iota
	Maximize
)

// Op is a constraint relation.
type Op int

const (
	LE Op = iota // Σ aᵢⱼxⱼ ≤ b
	GE           // Σ aᵢⱼxⱼ ≥ b
	EQ           // Σ aᵢⱼxⱼ = b
)

// String renders the relation as its PaQL/SQL operator.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Coef is one term of a constraint row.
type Coef struct {
	Var int
	Val float64
}

// Constraint is one linear constraint.
type Constraint struct {
	Coefs []Coef
	Op    Op
	RHS   float64
}

// Problem is a linear program under construction. The zero value has no
// variables; call NewProblem, or Reset to reuse one.
type Problem struct {
	n     int
	obj   []float64
	sense Sense
	rows  []Constraint
	lo    []float64
	up    []float64
}

// NewProblem creates a problem with n variables, all with bounds
// [0, +inf) and zero objective coefficients.
func NewProblem(n int) *Problem {
	p := &Problem{}
	p.Reset(n)
	return p
}

// Reset empties the problem and re-dimensions it to n variables, as
// NewProblem leaves one, keeping its storage: a caller that assembles a
// problem of similar shape every round (the master LPs of
// internal/bound's pricing rounds) reuses one Problem and allocates
// nothing. Rows added after a Reset overwrite the old rows' storage,
// which a Clone taken before it still points into, so such a clone must
// no longer be used.
func (p *Problem) Reset(n int) {
	p.n = n
	p.obj = resize(p.obj, n)
	p.lo = resize(p.lo, n)
	p.up = resize(p.up, n)
	for j := range p.up {
		p.up[j] = Inf
	}
	p.sense = Minimize
	p.rows = p.rows[:0]
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return p.n }

// NumRows returns the number of constraints.
func (p *Problem) NumRows() int { return len(p.rows) }

// SetObjective sets the objective coefficients and sense. The slice
// must have one entry per variable.
func (p *Problem) SetObjective(coefs []float64, sense Sense) error {
	if len(coefs) != p.n {
		return fmt.Errorf("lp: objective has %d coefficients for %d variables", len(coefs), p.n)
	}
	copy(p.obj, coefs)
	p.sense = sense
	return nil
}

// SetObjectiveCoef sets a single objective coefficient.
func (p *Problem) SetObjectiveCoef(j int, c float64) error {
	if j < 0 || j >= p.n {
		return fmt.Errorf("lp: variable %d out of range", j)
	}
	p.obj[j] = c
	return nil
}

// SetSense sets the optimization direction.
func (p *Problem) SetSense(s Sense) { p.sense = s }

// Sense returns the optimization direction.
func (p *Problem) Sense() Sense { return p.sense }

// SetBounds sets [lo, up] for a variable. lo must be finite and ≤ up;
// up may be Inf.
func (p *Problem) SetBounds(j int, lo, up float64) error {
	if j < 0 || j >= p.n {
		return fmt.Errorf("lp: variable %d out of range", j)
	}
	if math.IsInf(lo, 0) || math.IsNaN(lo) || math.IsNaN(up) {
		return fmt.Errorf("lp: lower bound of variable %d must be finite", j)
	}
	if lo > up {
		return fmt.Errorf("lp: variable %d has empty bound range [%g, %g]", j, lo, up)
	}
	p.lo[j] = lo
	p.up[j] = up
	return nil
}

// Bounds returns [lo, up] of a variable.
func (p *Problem) Bounds(j int) (lo, up float64) { return p.lo[j], p.up[j] }

// ObjectiveCoef returns the objective coefficient of variable j.
func (p *Problem) ObjectiveCoef(j int) float64 { return p.obj[j] }

// Row returns constraint i (shared slice; do not modify).
func (p *Problem) Row(i int) Constraint { return p.rows[i] }

// Feasible reports whether x satisfies every constraint and bound
// within tolerance tol (integrality is not checked).
func (p *Problem) Feasible(x []float64, tol float64) bool {
	if len(x) != p.n {
		return false
	}
	for j := 0; j < p.n; j++ {
		if x[j] < p.lo[j]-tol || x[j] > p.up[j]+tol {
			return false
		}
	}
	for _, row := range p.rows {
		lhs := 0.0
		for _, c := range row.Coefs {
			lhs += c.Val * x[c.Var]
		}
		switch row.Op {
		case LE:
			if lhs > row.RHS+tol {
				return false
			}
		case GE:
			if lhs < row.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(lhs-row.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// AddConstraint appends a constraint row and returns its index.
// Duplicate variable entries are summed (in the order given) and zero
// coefficients dropped; the stored row is sorted by variable.
func (p *Problem) AddConstraint(coefs []Coef, op Op, rhs float64) (int, error) {
	sorted := true
	for i, c := range coefs {
		if c.Var < 0 || c.Var >= p.n {
			return 0, fmt.Errorf("lp: constraint references variable %d out of range", c.Var)
		}
		if i > 0 && c.Var <= coefs[i-1].Var {
			sorted = false
		}
	}
	row := Constraint{Op: op, RHS: rhs}
	if i := len(p.rows); i < cap(p.rows) {
		row.Coefs = p.rows[:i+1][i].Coefs[:0] // a row Reset left behind
	}
	row.Coefs = slices.Grow(row.Coefs, len(coefs))
	if sorted {
		for _, c := range coefs {
			if c.Val != 0 {
				row.Coefs = append(row.Coefs, c)
			}
		}
	} else {
		byVar := slices.Clone(coefs)
		slices.SortStableFunc(byVar, func(a, b Coef) int { return cmp.Compare(a.Var, b.Var) })
		for i := 0; i < len(byVar); {
			sum := Coef{Var: byVar[i].Var}
			for ; i < len(byVar) && byVar[i].Var == sum.Var; i++ {
				sum.Val += byVar[i].Val
			}
			if sum.Val != 0 {
				row.Coefs = append(row.Coefs, sum)
			}
		}
	}
	p.rows = append(p.rows, row)
	return len(p.rows) - 1, nil
}

// Clone deep-copies the problem (used by branch-and-bound to tighten
// bounds per node without mutating the parent).
func (p *Problem) Clone() *Problem {
	q := &Problem{
		n:     p.n,
		obj:   append([]float64(nil), p.obj...),
		sense: p.sense,
		lo:    append([]float64(nil), p.lo...),
		up:    append([]float64(nil), p.up...),
		rows:  make([]Constraint, len(p.rows)),
	}
	// Constraint coefficient slices are never mutated after AddConstraint,
	// so sharing them is safe and keeps node cloning cheap.
	copy(q.rows, p.rows)
	return q
}

// Status reports the outcome of a solve.
type Status int

const (
	// StatusOptimal means an optimal basic solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible means no point satisfies the constraints.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded in the
	// optimization direction.
	StatusUnbounded
	// StatusIterLimit means the iteration limit was hit first.
	StatusIterLimit
)

// String names the status for logs and error messages.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	X         []float64 // variable values (length NumVars), valid when Optimal
	Objective float64   // objective value in the problem's sense
	// Duals holds one row price per constraint, valid when Optimal:
	// ∂Objective/∂RHSᵢ in the problem's sense. Minimizing, a ≥ row's
	// price is ≥ 0 and a ≤ row's ≤ 0; maximizing, the signs mirror;
	// equality rows are free. A row with slack prices at 0.
	Duals      []float64
	Iterations int
}
