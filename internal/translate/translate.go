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
//     (two for an equality), plus a non-empty guard Σ_present x ≥ 1 per
//     SUM (SUM over an empty selection is NULL, which fails the atom); the
//     objective's SUMs bring the same (a NULL objective is not an answer);
//   - AVG(x) ⋚ c becomes SUM(x·w) − c·COUNT_w ⋚ 0 plus the same guard;
//   - MIN(x) ≥ c eliminates tuples below c and requires one survivor (the
//     guard again); MIN(x) ≤ c requires at least one tuple at or below c
//     (MAX is symmetric);
//   - strict comparisons are tightened by a small epsilon scaled to the
//     constant (eps in encode.go).
//
// What each aggregate answers over nothing is the table in
// internal/paql/semantics_test.go; tuples reach an aggregate only through
// expr.Agg.Term. Guards are one per (argument, filter) selection and
// conjunction, and where a conjunction's rows are assembled
// (weighConjunction) a guard is dropped when another ≥ row of the
// conjunction implies it for every x ≥ 0 — LP-safe by construction, so no
// relaxation loosens and a query with COUNT(*) = k pays no row for them.
//
// Who consumes the rows, and how:
//
//   - Nonlinear (the linearity verdict the planner routes by) lowers every
//     comparison and the objective and weighs nothing: a query is linear
//     exactly when the lowering — so Translate — can encode it, and each
//     obstruction is reported in the lowering's own words;
//   - Translate (the exact MILP) weighs the unconditional comparisons and
//     the objective's guards as one conjunction, then walks the NNF tree
//     for the disjunctions: addRow links each disjunct's rows (guards
//     kept) by big-M to one 0/1 indicator per branch with implication
//     rows (OR: y ≤ y_a + y_b), sound and complete because only the root
//     must hold;
//   - ConjunctiveAtoms (search.Instance.Atoms) keeps the top-level affine
//     conjuncts and their guards with strict comparisons closed instead
//     of tightened: necessary conditions for pruning, pure only when
//     nothing was relaxed or left out;
//   - CompileSketch (SketchRefine, the certified bound) expands the tree
//     to DNF branches of the same atoms, which internal/sketch weighs
//     over real tuples (SketchBranch.Weigh) for refine and the final
//     check, over representative rows at each sketch level, and — for the
//     selector kinds — re-weights over partition nodes from how many of
//     each node's tuples the selector selects.
//
// What the last three read of the candidates is a selection's pass — per
// (argument, filter) pair, one fold of expr.Agg.Term over the rows — and
// the weight vector of each affine form composed from those passes. A
// Passes store keeps both per candidate set: the three are its methods,
// so one query's compilations share each fold and each vector, and so do
// all the queries the engine prepares over one candidate snapshot. The
// package-level Translate and CompileSketch compile with passes of their
// own.
package translate

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

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
	MaxMult      int          // per-tuple multiplicity cap (REPEAT + 1)

	lpp        *lp.Problem
	indicators int
}

// Translate compiles an analyzed, linear query over the given candidate
// tuples. candidates[i] must be full relation rows (aggregate arguments
// are bound against the relation schema). ids are the matching
// base-table row ids. Its passes are its own; a query whose candidates
// have a pass store translates through (*Passes).Translate.
func Translate(a *paql.Analysis, candidates []schema.Row, ids []int) (*Model, error) {
	return NewPasses(candidates).Translate(nil, a, ids)
}

// Translate compiles an analyzed, linear query over the store's
// candidates into the exact MILP, folding only the selections no earlier
// compilation against the store has. ids are the candidates' base-table
// row ids; ctx, which may be nil, cancels a fold.
func (ps *Passes) Translate(ctx context.Context, a *paql.Analysis, ids []int) (*Model, error) {
	candidates := ps.rows
	if len(ids) != len(candidates) {
		return nil, fmt.Errorf("translate: %d candidates but %d ids", len(candidates), len(ids))
	}
	q := a.Query
	maxMult := q.MaxMultiplicity()
	n := len(candidates)

	// Indicator variables (one per disjunct) are discovered during
	// encoding: over-allocate by counting formula nodes.
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
		if err := p.SetBounds(i, 0, float64(maxMult)); err != nil {
			return nil, err
		}
		m.MILP.SetInteger(i)
	}
	// Objective: the tuple weights, widened over the indicator slots.
	sels := newSelections(ps)
	objective, objGuards, err := compileObjective(a, sels)
	if err != nil {
		return nil, err
	}
	if q.Objective != nil {
		w, err := objective.weigh(ctx, candidates)
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

	// Constraints: the comparisons that hold unconditionally and the
	// objective's guards are one conjunction, weighed together; what sits
	// under a disjunction follows, linked to indicators.
	var root bnode = &bAnd{}
	if q.SuchThat != nil {
		root = nnf(q.SuchThat, false)
	}
	var conj []*SketchAtom
	for _, e := range topAtoms(root, new(bool)) {
		lowered, err := lowerAtom(e, sels)
		if err != nil {
			return nil, atomError(e, err)
		}
		conj = conjoin(conj, lowered)
	}
	_, rows, err := weighConjunction(ctx, conjoin(conj, objGuards), candidates, false)
	if err != nil {
		return nil, err
	}
	for _, row := range slices.Concat(rows...) {
		if err := m.addRow(row.W, row.Op, row.RHS, -1); err != nil {
			return nil, err
		}
	}
	if err := m.encodeFormula(ctx, root, -1, sels); err != nil {
		return nil, err
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
	aggs   map[string]*expr.Agg
	konst  float64
}

func newAffine() *affine {
	return &affine{coeffs: map[string]float64{}, aggs: map[string]*expr.Agg{}}
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
	case *expr.Agg:
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
		// A scalar function of constants is a constant; of an aggregate,
		// it has no value to evaluate and so no affine form.
		v, err := n.Eval(nil)
		if err != nil {
			return nil, fmt.Errorf("translate: %s has no affine form: %w", n, err)
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

// selection is one (argument, filter) pair of a compiled query: the
// tuples an aggregate ranges over, whatever its function. Every atom
// lowered from the pair — a SUM row, its guard, both rows of a BETWEEN —
// shares one, and so shares its pass: they cost one fold over
// expr.Agg.Term between them, a guard's presence being its aggregate's
// by-product. Over the candidate set of the compilation's pass store the
// fold is the store's, made once for every query compiled against it;
// over any other rows (a sketch level's representatives) the selection
// keeps the pass of the set last weighed. Candidate sets are told apart by
// identity; nobody edits rows between weighings.
type selection struct {
	agg    *expr.Agg // Fn is not read
	key    string
	shared *Passes // nil: nothing outlives the compilation

	mu   sync.Mutex
	over []schema.Row
	last *pass
}

// selectionKey renders an aggregate's (argument, filter) pair, the name
// its pass is kept under: the aggregate's key without its function, or
// for a bare column with no filter the column's ordinal, which is how
// Spread asks for the same pass.
func selectionKey(a *expr.Agg) string {
	if c, ok := a.Arg.(*expr.Col); ok && a.Filter == nil && c.Idx >= 0 {
		return columnKey(c.Idx)
	}
	return expr.Key(a)[len(a.Fn):]
}

// columnKey names a bare column's selection. A rendered key starts with
// "(", so the two never meet.
func columnKey(col int) string { return "#" + strconv.Itoa(col) }

// selections interns the selections of one compilation by key, each bound
// to the pass store the compilation weighs against.
type selections struct {
	shared *Passes
	byKey  map[string]*selection
}

func newSelections(shared *Passes) selections {
	return selections{shared: shared, byKey: map[string]*selection{}}
}

func (ss selections) of(a *expr.Agg) *selection {
	key := selectionKey(a)
	if ss.byKey[key] == nil {
		ss.byKey[key] = &selection{agg: a, key: key, shared: ss.shared}
	}
	return ss.byKey[key]
}

// pass folds Term over the candidates: per tuple, whether it is in the
// selection and the number its argument contributes. numeric asks for the
// numbers and so fails on an argument that is present and not a number.
// The slices are shared: read-only.
func (s *selection) pass(ctx context.Context, rows []schema.Row, numeric bool) (num []float64, present []bool, err error) {
	var p *pass
	if s.shared.over(rows) {
		p, err = s.shared.pass(ctx, s.key, s.agg)
	} else {
		s.mu.Lock()
		if p = s.last; p == nil || !sameRows(rows, s.over) {
			if p, err = foldTerms(ctx, s.agg, rows); err == nil {
				s.over, s.last = rows, p
			}
		}
		s.mu.Unlock()
	}
	if err != nil {
		return nil, nil, err
	}
	if numeric && p.nonNum != nil {
		return nil, nil, fmt.Errorf("%w under %s", p.nonNum, s.agg)
	}
	return p.num, p.present, nil
}

// linear is a compiled affine form Σ coef·agg + konst: its aggregates
// resolved to selections, in the order of their rendered text so that
// the floating-point sum of a weight does not depend on map iteration.
type linear struct {
	terms []term
	konst float64
	// key renders the terms — coefficient, function and selection each —
	// when the form came out of selections.compile: the name its weight
	// vector is kept under in the compilation's pass store (shared). A
	// form built around a query's constant (AVG's −c·COUNT) has none and
	// is composed per weighing.
	key    string
	shared *Passes
}

type term struct {
	coef  float64
	count bool // COUNT: the term weighs 1 per present tuple, SUM its number
	sel   *selection
}

func (ss selections) compile(f *affine) *linear {
	l := &linear{konst: f.konst, shared: ss.shared}
	var key strings.Builder
	for _, k := range slices.Sorted(maps.Keys(f.coeffs)) {
		agg := f.aggs[k]
		l.terms = append(l.terms, term{coef: f.coeffs[k], count: agg.Fn == "COUNT", sel: ss.of(agg)})
		fmt.Fprintf(&key, "%s*%s;", strconv.FormatFloat(f.coeffs[k], 'g', -1, 64), expr.Key(agg))
	}
	l.key = key.String()
	return l
}

// weigh evaluates the form's aggregate part per candidate: w[i] is the
// coefficient of x_i in every row and objective the form appears in —
// per term, SUM → the term's number, COUNT → 1, absent → 0. Over the
// store's own candidates a compiled form's vector is the store's, shared
// by every query over them: read-only, like every weight vector.
func (l *linear) weigh(ctx context.Context, rows []schema.Row) ([]float64, error) {
	if l.key != "" && l.shared.over(rows) {
		return l.shared.weights(ctx, l)
	}
	return l.compose(ctx, rows)
}

// compose is weigh's arithmetic. A lone SUM with coefficient 1 is its
// selection's numbers as they are: 0 + 1·v is v for every v but −0.
func (l *linear) compose(ctx context.Context, rows []schema.Row) ([]float64, error) {
	if len(l.terms) == 1 && l.terms[0].coef == 1 && !l.terms[0].count {
		num, _, err := l.terms[0].sel.pass(ctx, rows, true)
		if err != nil || !slices.ContainsFunc(num, func(v float64) bool { return v == 0 && math.Signbit(v) }) {
			return num, err
		}
	}
	w := make([]float64, len(rows))
	for _, t := range l.terms {
		if t.coef == 0 {
			continue
		}
		if t.count && t.sel.agg.Star && t.sel.agg.Filter == nil { // COUNT(*): nothing to evaluate
			for i := range w {
				w[i] += t.coef
			}
			continue
		}
		num, present, err := t.sel.pass(ctx, rows, !t.count)
		if err != nil {
			return nil, err
		}
		for i := range w {
			if t.count {
				if present[i] {
					w[i] += t.coef
				}
			} else {
				w[i] += t.coef * num[i]
			}
		}
	}
	return w, nil
}

// guards returns one non-empty guard per SUM of the form: SUM over an
// empty selection is NULL, which fails a comparison and disqualifies an
// objective (a zero coefficient does not un-NULL it).
func (l *linear) guards(src string) []*SketchAtom {
	var out []*SketchAtom
	for _, t := range l.terms {
		if !t.count {
			out = append(out, &SketchAtom{Kind: SketchAtLeast, sel: t.sel, all: true, src: src + " [non-empty guard]"})
		}
	}
	return out
}
