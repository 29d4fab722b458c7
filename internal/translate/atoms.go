package translate

import (
	"context"
	"fmt"
	"slices"

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
// appear as top-level conjuncts of the query's SUCH THAT formula, with
// the guards they and the objective imply, weighted over the store's
// candidates as one conjunction — and, from the same passes, the
// objective's weights (value(pkg) = Σ objW[i]·mult[i] + objK; nil when it
// is not affine). pure reports that the atoms are EXACTLY the query: a
// package passes them if and only if it satisfies the formula and its
// objective is not NULL. Otherwise (disjunctions, AVG/MIN/MAX atoms,
// non-linear parts, or a strict comparison, which relaxes to its closed
// form and so admits the boundary it excludes) the atoms are still
// necessary conditions usable for sound pruning, but candidates must be
// re-validated with paql.Satisfies. ctx, which may be nil, cancels a fold.
func (ps *Passes) ConjunctiveAtoms(ctx context.Context, a *paql.Analysis) (atoms []*LinearAtom, pure bool, objW []float64, objK float64, err error) {
	sels := newSelections(ps)
	objective, objGuards, err := compileObjective(a, sels)
	if pure = err == nil; pure { // a non-affine objective is evaluated per package
		if objW, err = objective.weigh(ctx, ps.rows); err != nil {
			return nil, false, nil, 0, err
		}
		objK = objective.konst
	}
	var conj []*SketchAtom
	if a.Query.SuchThat != nil {
		for _, e := range topAtoms(nnf(a.Query.SuchThat, false), &pure) {
			// AVG/MIN/MAX rewrites are not usable for incremental sums.
			lowered, err := lowerAtom(e, sels)
			if err != nil || lowered[0].Kind != SketchLinear {
				pure = false
				continue
			}
			if op := lowered[0].op; op == expr.OpLt || op == expr.OpGt {
				pure = false
			}
			conj = conjoin(conj, lowered)
		}
	}
	_, rows, err := weighConjunction(ctx, conjoin(conj, objGuards), ps.rows, true)
	return slices.Concat(rows...), pure, objW, objK, err
}

// topAtoms returns the comparisons that must hold unconditionally: the
// atoms of the NNF tree not under any disjunction, in formula order
// (constants aside — Translate and CompileSketch read those themselves).
// whole is cleared when the tree holds anything else.
func topAtoms(n bnode, whole *bool) []expr.Expr {
	switch node := n.(type) {
	case *bAnd:
		var out []expr.Expr
		for _, k := range node.kids {
			out = append(out, topAtoms(k, whole)...)
		}
		return out
	case *bAtom:
		if _, isConst := constBool(node.e); !isConst {
			return []expr.Expr{node.e}
		}
	}
	*whole = false
	return nil
}

// compileObjective compiles the query objective's affine form over sels
// (the zero form without an objective) and, with it, the guards a
// package needs for that objective not to be NULL.
func compileObjective(a *paql.Analysis, sels selections) (*linear, []*SketchAtom, error) {
	o := a.Query.Objective
	if o == nil {
		return &linear{}, nil, nil
	}
	form, err := affineForm(o.Expr)
	if err != nil {
		return nil, nil, fmt.Errorf("translate: objective: %w", err)
	}
	lin := sels.compile(form)
	return lin, lin.guards(o.Sense.String() + " " + o.Expr.String()), nil
}

// ObjectiveNeedsTuple reports whether the query's affine objective is
// NULL over the empty package — it brings a non-empty guard — so that no
// answer is empty, whatever SUCH THAT allows.
func ObjectiveNeedsTuple(a *paql.Analysis) bool {
	_, guards, err := compileObjective(a, newSelections(nil))
	return err == nil && len(guards) > 0
}

// ObjectiveWeights linearizes the query objective over the candidates:
// value(pkg) = Σ W[i]·mult[i] + Const. An error is returned for
// non-affine objectives.
func ObjectiveWeights(a *paql.Analysis, candidates []schema.Row) (w []float64, konst float64, err error) {
	lin, _, err := compileObjective(a, newSelections(nil))
	if err != nil {
		return nil, 0, err
	}
	w, err = lin.weigh(nil, candidates)
	return w, lin.konst, err
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
