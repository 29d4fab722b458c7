// Package translate compiles analyzed PaQL queries into mixed-integer
// linear programs, the paper's §7 "PaQL query is translated into a
// linear program and then solved using existing constraint solvers".
//
// There is one translation, and every strategy's linear rows come out of
// it: SUCH THAT formula → negation normal form (nnf: NOT pushed into the
// comparisons, BETWEEN expanded) → comparison atoms → compiled SketchAtoms
// (lowerAtom) → Weigh over a set of rows → LinearAtoms Σ W[i]·x_i ⋚ RHS,
// x_i the multiplicity of tuple i (bounded by REPEAT+1). The lowering:
//
//   - an affine SUM/COUNT comparison keeps its form L − R ⋚ 0: one row
//     (two for an equality);
//   - AVG(x) ⋚ c becomes SUM(x·w) − c·COUNT_w ⋚ 0 plus a non-empty
//     guard (AVG over an empty package is NULL, which fails the atom);
//   - MIN(x) ≥ c eliminates tuples below c and requires one survivor;
//     MIN(x) ≤ c requires at least one tuple at or below c (MAX is
//     symmetric);
//   - strict comparisons are tightened by a small epsilon scaled to the
//     constant (eps in encode.go).
//
// Who consumes the rows, and how:
//
//   - Translate (the exact MILP) walks the NNF tree and adds each atom's
//     rows weighed over the candidates; under a disjunction addRow links
//     them by big-M to one 0/1 indicator per branch with implication rows
//     (OR: y ≤ y_a + y_b), sound and complete because only the root must
//     hold;
//   - ConjunctiveAtoms (search.Instance.Atoms) keeps the top-level affine
//     conjuncts with strict comparisons closed instead of tightened:
//     necessary conditions for pruning, pure only when nothing was
//     relaxed or left out;
//   - CompileSketch (SketchRefine, the certified bound) expands the tree
//     to DNF branches of the same atoms, which internal/sketch weighs
//     over real tuples for refine and the final check, over
//     representative rows at each sketch level, and — for the MIN/MAX
//     selector kinds — re-weights over partition nodes from envelopes.
package translate

import (
	"fmt"
	"math"

	"repro/internal/expr"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/paql"
	"repro/internal/schema"
)

// Model is a compiled query: the MILP plus the mapping back to tuples.
type Model struct {
	MILP         *milp.Problem
	Query        *paql.Query
	Candidates   []schema.Row // candidate tuples (those passing WHERE)
	CandidateIDs []int        // base-table row ids, parallel to Candidates
	NumTupleVars int          // tuple variables come first; indicators follow
	MaxMult      int          // per-tuple multiplicity cap (0 = unlimited)

	lpp        *lp.Problem
	indicators int
}

// Translate compiles an analyzed, linear query over the given candidate
// tuples. candidates[i] must be full relation rows (aggregate arguments
// are bound against the relation schema). ids are the matching
// base-table row ids.
func Translate(a *paql.Analysis, candidates []schema.Row, ids []int) (*Model, error) {
	if !a.Linear {
		return nil, fmt.Errorf("translate: query is not linear: %v", a.NonlinearReasons)
	}
	if len(ids) != len(candidates) {
		return nil, fmt.Errorf("translate: %d candidates but %d ids", len(candidates), len(ids))
	}
	q := a.Query
	maxMult := q.MaxMultiplicity()
	n := len(candidates)

	// Count the indicator variables needed: one per atom plus one per
	// internal AND/OR node under a disjunction. We discover them during
	// encoding, so build the LP in two passes: first count, then emit.
	// Simpler: over-allocate by counting formula nodes.
	extra := 0
	if q.SuchThat != nil {
		expr.Walk(q.SuchThat, func(expr.Expr) { extra++ })
		extra *= 2 // Between expansion can double atom count
	}
	p := lp.NewProblem(n + extra)
	m := &Model{
		MILP: milp.NewProblem(p), Query: q,
		Candidates: candidates, CandidateIDs: ids,
		NumTupleVars: n, MaxMult: maxMult, lpp: p,
	}
	for i := 0; i < n; i++ {
		up := lp.Inf
		if maxMult > 0 {
			up = float64(maxMult)
		}
		if err := p.SetBounds(i, 0, up); err != nil {
			return nil, err
		}
		m.MILP.SetInteger(i)
	}
	// Unused indicator slots are pinned to zero at the end.

	// Objective: the tuple weights, widened over the indicator slots.
	if q.Objective != nil {
		w, _, err := ObjectiveWeights(a, candidates)
		if err != nil {
			return nil, err
		}
		obj := make([]float64, p.NumVars())
		copy(obj, w)
		sense := lp.Maximize
		if q.Objective.Sense == paql.Minimize {
			sense = lp.Minimize
		}
		if err := p.SetObjective(obj, sense); err != nil {
			return nil, err
		}
	}

	// Constraints.
	if q.SuchThat != nil {
		if err := m.encodeFormula(nnf(q.SuchThat, false), -1); err != nil {
			return nil, err
		}
	}
	// Pin unused indicator slots.
	for j := n + m.indicators; j < p.NumVars(); j++ {
		if err := p.SetBounds(j, 0, 0); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Solve runs the MILP and decodes the package.
func (m *Model) Solve(opts ...milp.Options) (*Result, error) {
	sol := milp.Solve(m.MILP, opts...)
	res := &Result{Solution: sol}
	if sol.X != nil {
		res.Multiplicities = m.Multiplicities(sol.X)
	}
	return res, nil
}

// Result pairs the raw MILP solution with decoded multiplicities.
type Result struct {
	Solution       *milp.Solution
	Multiplicities []int // per candidate index
}

// NumIndicators returns the number of 0/1 indicator variables the
// formula encoding allocated (0 for purely conjunctive queries).
func (m *Model) NumIndicators() int { return m.indicators }

// RequireTuple forces candidate i into every solution (multiplicity ≥ 1)
// — the solver side of §3.3 adaptive exploration, where the user pins
// the tuples they want to keep.
func (m *Model) RequireTuple(i int) error {
	if i < 0 || i >= m.NumTupleVars {
		return fmt.Errorf("translate: candidate %d out of range", i)
	}
	_, up := m.lpp.Bounds(i)
	return m.lpp.SetBounds(i, 1, up)
}

// Multiplicities decodes a solution vector into per-candidate counts.
func (m *Model) Multiplicities(x []float64) []int {
	out := make([]int, m.NumTupleVars)
	for i := 0; i < m.NumTupleVars; i++ {
		out[i] = int(math.Round(x[i]))
	}
	return out
}

// AddExclusionCut forbids an exact 0/1 package so the next solve yields
// a different one — the paper's §5 "retrieving more packages requires
// modifying and re-evaluating the query". Only defined for REPEAT 0
// queries (0/1 multiplicities).
func (m *Model) AddExclusionCut(mult []int) error {
	if m.MaxMult != 1 {
		return fmt.Errorf("translate: exclusion cuts require REPEAT 0 (0/1 multiplicities), REPEAT is %d", m.MaxMult-1)
	}
	if len(mult) != m.NumTupleVars {
		return fmt.Errorf("translate: cut has %d entries for %d tuple variables", len(mult), m.NumTupleVars)
	}
	cut := ExclusionAtom(mult)
	return m.addRow(cut.W, cut.Op, cut.RHS, -1)
}

// --- affine forms -------------------------------------------------------------

type affine struct {
	coeffs map[string]float64
	aggs   map[string]*paql.Agg
	konst  float64
}

func newAffine() *affine {
	return &affine{coeffs: map[string]float64{}, aggs: map[string]*paql.Agg{}}
}

func (f *affine) addScaled(o *affine, s float64) {
	for k, c := range o.coeffs {
		f.coeffs[k] += c * s
		f.aggs[k] = o.aggs[k]
	}
	f.konst += o.konst * s
}

func (f *affine) isConst() bool {
	for _, c := range f.coeffs {
		if c != 0 {
			return false
		}
	}
	return true
}

// affineForm decomposes a numeric global expression into Σ coef·agg +
// const. Only COUNT and SUM aggregates may appear (AVG/MIN/MAX are
// handled at the comparison level).
func affineForm(e expr.Expr) (*affine, error) {
	switch n := e.(type) {
	case *expr.Const:
		f := newAffine()
		v, ok := n.Val.AsFloat()
		if !ok {
			if n.Val.IsNull() {
				return nil, fmt.Errorf("translate: NULL constant in linear expression")
			}
			return nil, fmt.Errorf("translate: non-numeric constant %s", n.Val)
		}
		f.konst = v
		return f, nil
	case *paql.Agg:
		if n.Fn != "COUNT" && n.Fn != "SUM" {
			return nil, fmt.Errorf("translate: %s cannot appear inside arithmetic (only SUM/COUNT)", n)
		}
		f := newAffine()
		key := n.String()
		f.coeffs[key] = 1
		f.aggs[key] = n
		return f, nil
	case *expr.Neg:
		f, err := affineForm(n.X)
		if err != nil {
			return nil, err
		}
		out := newAffine()
		out.addScaled(f, -1)
		return out, nil
	case *expr.Binary:
		l, err := affineForm(n.L)
		if err != nil {
			return nil, err
		}
		r, err := affineForm(n.R)
		if err != nil {
			return nil, err
		}
		out := newAffine()
		switch n.Op {
		case expr.OpAdd:
			out.addScaled(l, 1)
			out.addScaled(r, 1)
			return out, nil
		case expr.OpSub:
			out.addScaled(l, 1)
			out.addScaled(r, -1)
			return out, nil
		case expr.OpMul:
			switch {
			case l.isConst():
				out.addScaled(r, l.konst)
				return out, nil
			case r.isConst():
				out.addScaled(l, r.konst)
				return out, nil
			}
			return nil, fmt.Errorf("translate: product of aggregates in %s", n)
		case expr.OpDiv:
			if !r.isConst() {
				return nil, fmt.Errorf("translate: division by aggregate in %s", n)
			}
			if r.konst == 0 {
				return nil, fmt.Errorf("translate: division by zero in %s", n)
			}
			out.addScaled(l, 1/r.konst)
			return out, nil
		}
		return nil, fmt.Errorf("translate: operator %s is not affine", n.Op)
	case *expr.Call:
		// constant-only calls were folded by classify; evaluate.
		v, err := n.Eval(nil)
		if err != nil {
			return nil, err
		}
		f := newAffine()
		fv, ok := v.AsFloat()
		if !ok {
			return nil, fmt.Errorf("translate: non-numeric call %s", n)
		}
		f.konst = fv
		return f, nil
	}
	return nil, fmt.Errorf("translate: expression %s is not affine", e)
}

// weigh evaluates the aggregate part of an affine form per candidate:
// w[i] = Σ coef·aggWeights(agg)[i], the coefficient of x_i in every row
// and objective the form appears in.
func weigh(f *affine, rows []schema.Row) ([]float64, error) {
	w := make([]float64, len(rows))
	for key, coef := range f.coeffs {
		if coef == 0 {
			continue
		}
		aw, err := aggWeights(rows, f.aggs[key])
		if err != nil {
			return nil, err
		}
		for i, wi := range aw {
			w[i] += coef * wi
		}
	}
	return w, nil
}

// aggWeights computes the per-candidate contribution of a SUM/COUNT
// aggregate: 0 when the filter rejects the tuple or the argument is
// NULL, otherwise 1 (COUNT) or the argument value (SUM).
func aggWeights(rows []schema.Row, a *paql.Agg) ([]float64, error) {
	w := make([]float64, len(rows))
	for i, row := range rows {
		if a.Filter != nil {
			ok, err := expr.EvalBool(a.Filter, row)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		if a.Star {
			w[i] = 1
			continue
		}
		v, err := a.Arg.Eval(row)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			continue
		}
		if a.Fn == "COUNT" {
			w[i] = 1
			continue
		}
		f, ok := v.AsFloat()
		if !ok {
			return nil, fmt.Errorf("translate: non-numeric value %s under %s", v, a)
		}
		w[i] = f
	}
	return w, nil
}
