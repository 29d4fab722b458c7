package translate

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/lp"
	"repro/internal/paql"
	"repro/internal/schema"
)

// LinearAtom is one linear constraint Σᵢ W[i]·x_i (Op) RHS over the
// candidate tuples. Search strategies consume these for incremental
// feasibility checks and for generating the §4.2 replacement SQL.
type LinearAtom struct {
	W      []float64
	Op     lp.Op
	RHS    float64
	Source string // rendered source atom, for SQL generation and logs
}

// Check evaluates the atom against a multiplicity vector.
func (la *LinearAtom) Check(mult []int) bool {
	s := 0.0
	for i, m := range mult {
		if m != 0 {
			s += la.W[i] * float64(m)
		}
	}
	return la.CheckSum(s)
}

// CheckSum evaluates the atom given a precomputed Σ W·x.
func (la *LinearAtom) CheckSum(s float64) bool {
	const tol = 1e-9
	switch la.Op {
	case lp.LE:
		return s <= la.RHS+tol
	case lp.GE:
		return s >= la.RHS-tol
	case lp.EQ:
		return s >= la.RHS-tol && s <= la.RHS+tol
	}
	return false
}

// ConjunctiveAtoms extracts the linear SUM/COUNT comparison atoms that
// appear as top-level conjuncts of the query's SUCH THAT formula,
// weighted over the given candidates. The boolean result reports
// whether the atoms are EXACTLY the formula (pure): when false (the
// formula also has disjunctions, AVG/MIN/MAX atoms, non-linear parts,
// or a strict comparison), the atoms are still necessary conditions
// usable for sound pruning, but candidates must be re-validated with
// paql.Satisfies.
//
// Strict comparisons relax to their closed forms (sound for pruning);
// the closed row admits the boundary the comparison excludes, so a
// relaxed atom is never pure.
func ConjunctiveAtoms(a *paql.Analysis, candidates []schema.Row) ([]*LinearAtom, bool, error) {
	if a.Query.SuchThat == nil {
		return nil, true, nil
	}
	pure := true
	var atoms []*LinearAtom
	var visit func(n bnode)
	visit = func(n bnode) {
		switch node := n.(type) {
		case *bAnd:
			for _, k := range node.kids {
				visit(k)
			}
		case *bOr:
			pure = false
		case *bAtom:
			// AVG/MIN/MAX rewrites are not usable for incremental sums.
			lowered, err := lowerAtom(node.e)
			if err != nil || lowered[0].Kind != SketchLinear {
				pure = false
				return
			}
			at := lowered[0]
			rows, err := at.linearRows(candidates, true)
			if err != nil {
				pure = false
				return
			}
			if at.op == expr.OpLt || at.op == expr.OpGt {
				pure = false
			}
			atoms = append(atoms, rows...)
		}
	}
	visit(nnf(a.Query.SuchThat, false))
	return atoms, pure, nil
}

// ObjectiveWeights linearizes the query objective over the candidates:
// value(pkg) = Σ W[i]·mult[i] + Const. An error is returned for
// non-affine objectives.
func ObjectiveWeights(a *paql.Analysis, candidates []schema.Row) (w []float64, konst float64, err error) {
	if a.Query.Objective == nil {
		return make([]float64, len(candidates)), 0, nil
	}
	form, err := affineForm(a.Query.Objective.Expr)
	if err != nil {
		return nil, 0, fmt.Errorf("translate: objective: %w", err)
	}
	if w, err = weigh(form, candidates); err != nil {
		return nil, 0, err
	}
	return w, form.konst, nil
}

// ExclusionAtom is the §5 cut that forbids one exact 0/1 package:
// Σ_{i∈S} x_i − Σ_{i∉S} x_i ≤ |S| − 1, S the tuples mult selects.
func ExclusionAtom(mult []int) *LinearAtom {
	w := make([]float64, len(mult))
	in := 0
	for i, m := range mult {
		if m > 0 {
			w[i] = 1
			in++
		} else {
			w[i] = -1
		}
	}
	return &LinearAtom{W: w, Op: lp.LE, RHS: float64(in - 1), Source: "exclusion cut"}
}
