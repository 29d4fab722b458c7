package translate

import (
	"errors"
	"fmt"

	"repro/internal/expr"
	"repro/internal/lp"
	"repro/internal/paql"
	"repro/internal/schema"
)

// DefaultMaxSketchBranches caps the disjunctive-normal-form expansion
// CompileSketch performs: a SUCH THAT formula whose DNF has more
// branches than this is rejected as not sketchable (each branch costs
// one full sketch descent, so the cap bounds SketchRefine's work).
const DefaultMaxSketchBranches = 8

// SketchAtomKind classifies one lowered atom of a sketch branch.
type SketchAtomKind int

const (
	// SketchLinear is an affine SUM/COUNT comparison: one (or, for
	// equality, two) exact linear rows at every level.
	SketchLinear SketchAtomKind = iota
	// SketchAvg is an AVG(arg) ⋚ c atom rewritten to its linear form
	// SUM(arg·w) − c·COUNT_w ⋚ 0 (the PVLDB 2016 linearization); the
	// non-empty guard is emitted as a separate SketchAtLeast atom.
	SketchAvg
	// SketchElim is a MIN/MAX elimination row: tuples violating the
	// bound may not enter the package (Σ_bad x ≤ 0). Exact over real
	// tuples; relaxed over partition nodes via min/max envelopes.
	SketchElim
	// SketchAtLeast is an at-least-one row (Σ_good x ≥ 1): the
	// MIN/MAX witness requirement and the AVG/MIN/MAX non-empty
	// guards. Exact over real tuples; relaxed over partition nodes.
	SketchAtLeast
)

// SketchAtom is one compiled atom: a comparison lowered far enough that
// it weighs to exact linear rows over any candidate set. The same atom
// weighs over real tuples (the exact MILP, refine) and over
// representative rows (the sketch levels); selector kinds
// (SketchElim/SketchAtLeast) are instead re-weighted over partition
// nodes from subtree envelopes, which is why they expose their predicate
// through Selector.
type SketchAtom struct {
	// Kind drives how the atom is weighted at each level.
	Kind SketchAtomKind

	form *affine    // SketchLinear: L − R, compared against 0
	agg  *paql.Agg  // SketchAvg/SketchElim/SketchAtLeast: the aggregate
	op   expr.BinOp // SketchLinear/SketchAvg: comparison op; selectors: predicate op
	c    float64    // threshold constant (aggregate on the left)
	all  bool       // SketchAtLeast: select every present tuple (guard)
	src  string     // rendered source atom, for rows and diagnostics
}

// Source returns the rendered source atom the lowering came from.
func (at *SketchAtom) Source() string { return at.src }

// IsSelector reports whether the atom carries 0/1 selector weights
// (SketchElim/SketchAtLeast) that partition levels must re-weight from
// subtree envelopes rather than from representative rows.
func (at *SketchAtom) IsSelector() bool {
	return at.Kind == SketchElim || at.Kind == SketchAtLeast
}

// SketchBranch is one DNF branch: a conjunction of sketch atoms. A
// package satisfying every atom of any branch satisfies the SUCH THAT
// formula.
type SketchBranch struct {
	// Atoms is the branch's conjunction, in formula order.
	Atoms []*SketchAtom
}

// CompileSketch lowers the query's SUCH THAT formula into
// disjunctive-normal-form branches of sketch atoms, the form
// SketchRefine descends one branch at a time: affine SUM/COUNT
// comparisons stay single rows, AVG atoms are linearized as
// SUM − c·COUNT plus a non-empty guard, and MIN/MAX atoms lower to
// elimination and at-least-one selector rows. maxBranches caps the DNF
// expansion (0 = DefaultMaxSketchBranches). rewrites counts the
// AVG/MIN/MAX source atoms that were rewritten.
//
// A nil SUCH THAT yields one empty branch (everything is feasible); a
// constant-false formula yields zero branches. Errors name the atom
// that blocks sketch evaluation.
func CompileSketch(a *paql.Analysis, maxBranches int) (branches []SketchBranch, rewrites int, err error) {
	if maxBranches <= 0 {
		maxBranches = DefaultMaxSketchBranches
	}
	if a.Query.SuchThat == nil {
		return []SketchBranch{{}}, 0, nil
	}
	raw, err := dnfBranches(nnf(a.Query.SuchThat, false), maxBranches)
	if err != nil {
		return nil, 0, err
	}
	rewritten := map[*bAtom]bool{}
	for _, rb := range raw {
		atoms := make([]*SketchAtom, 0, len(rb))
		drop := false
		for _, ba := range rb {
			if v, ok := constBool(ba.e); ok {
				if !v {
					drop = true // constant false: the branch is unsatisfiable
					break
				}
				continue
			}
			lowered, err := lowerAtom(ba.e)
			if err != nil {
				return nil, 0, fmt.Errorf("atom %s blocks SketchRefine: %w", ba.e, err)
			}
			if lowered[0].Kind != SketchLinear && !rewritten[ba] {
				rewritten[ba] = true
				rewrites++
			}
			atoms = append(atoms, lowered...)
		}
		if !drop {
			branches = append(branches, SketchBranch{Atoms: atoms})
		}
	}
	return branches, rewrites, nil
}

// dnfBranches expands a negation-normal-form tree into DNF: a list of
// branches, each a conjunction of atoms. cap bounds the branch count.
func dnfBranches(n bnode, cap int) ([][]*bAtom, error) {
	switch node := n.(type) {
	case *bAtom:
		return [][]*bAtom{{node}}, nil
	case *bOr:
		var out [][]*bAtom
		for _, k := range node.kids {
			kb, err := dnfBranches(k, cap)
			if err != nil {
				return nil, err
			}
			out = append(out, kb...)
			if len(out) > cap {
				return nil, fmt.Errorf("SUCH THAT expands to more than %d disjunctive branches; SketchRefine caps the DNF blow-up (simplify the formula or use -strategy solver)", cap)
			}
		}
		return out, nil
	case *bAnd:
		out := [][]*bAtom{nil}
		for _, k := range node.kids {
			kb, err := dnfBranches(k, cap)
			if err != nil {
				return nil, err
			}
			next := make([][]*bAtom, 0, len(out)*len(kb))
			for _, pre := range out {
				for _, suf := range kb {
					branch := make([]*bAtom, 0, len(pre)+len(suf))
					branch = append(append(branch, pre...), suf...)
					next = append(next, branch)
					if len(next) > cap {
						return nil, fmt.Errorf("SUCH THAT expands to more than %d disjunctive branches; SketchRefine caps the DNF blow-up (simplify the formula or use -strategy solver)", cap)
					}
				}
			}
			out = next
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown formula node %T", n)
}

// lowerAtom lowers one comparison of the NNF formula into compiled atoms
// — the one translation every strategy's rows come from: an affine
// SUM/COUNT comparison keeps its form L − R, AVG is linearized with a
// non-empty guard, MIN/MAX become selector rows (a first atom of any kind
// but SketchLinear marks such a rewrite). The check is by shape only;
// nothing is weighed before Weigh. Errors say why there is no linear form
// and leave naming the atom to the caller.
func lowerAtom(e expr.Expr) ([]*SketchAtom, error) {
	b, ok := e.(*expr.Binary)
	if !ok || !b.Op.Comparison() {
		return nil, errors.New("not a comparison over aggregates")
	}
	agg, c, op, special, err := specialAtom(b)
	if err != nil {
		return nil, err
	}
	src := e.String()
	if special {
		if agg.Fn != "AVG" {
			return lowerMinMax(agg, op, c, src)
		}
		switch op {
		case expr.OpLe, expr.OpLt, expr.OpGe, expr.OpGt:
		default:
			return nil, fmt.Errorf("AVG with %s has no exact linear form", op)
		}
		return []*SketchAtom{
			{Kind: SketchAvg, agg: agg, op: op, c: c, src: src},
			{Kind: SketchAtLeast, agg: agg, all: true, src: src + " [non-empty guard]"},
		}, nil
	}
	if b.Op == expr.OpNe {
		return nil, errors.New("<> over aggregates has no exact linear form")
	}
	diff, err := affineForm(&expr.Binary{Op: expr.OpSub, L: b.L, R: b.R})
	if err != nil {
		return nil, fmt.Errorf("not an affine SUM/COUNT comparison: %w", err)
	}
	return []*SketchAtom{{Kind: SketchLinear, form: diff, op: b.Op, src: src}}, nil
}

// lowerMinMax lowers a MIN/MAX comparison into selector atoms: bounds
// that constrain every package member eliminate the violating tuples and
// require a surviving witness; bounds that only need one witness require
// a tuple on the right side of the threshold.
func lowerMinMax(agg *paql.Agg, op expr.BinOp, c float64, src string) ([]*SketchAtom, error) {
	isMin := agg.Fn == "MIN"
	switch {
	case (isMin && (op == expr.OpGe || op == expr.OpGt)) || (!isMin && (op == expr.OpLe || op == expr.OpLt)):
		var badOp expr.BinOp
		switch {
		case isMin && op == expr.OpGe:
			badOp = expr.OpLt
		case isMin && op == expr.OpGt:
			badOp = expr.OpLe
		case !isMin && op == expr.OpLe:
			badOp = expr.OpGt
		default: // MAX <
			badOp = expr.OpGe
		}
		return []*SketchAtom{
			{Kind: SketchElim, agg: agg, op: badOp, c: c, src: src},
			{Kind: SketchAtLeast, agg: agg, all: true, src: src + " [witness guard]"},
		}, nil
	case (isMin && (op == expr.OpLe || op == expr.OpLt)) || (!isMin && (op == expr.OpGe || op == expr.OpGt)):
		return []*SketchAtom{
			{Kind: SketchAtLeast, agg: agg, op: op, c: c, src: src},
		}, nil
	}
	return nil, fmt.Errorf("%s with %s has no exact linear form", agg.Fn, op)
}

// Weigh compiles the atom into exact linear rows over the given
// candidate rows. Calling it with the instance's real tuples yields the
// rows the exact MILP, the refine MILPs and the final feasibility check
// enforce; calling it with representative rows yields a sketch level's
// approximation for the non-selector kinds (selector kinds weigh their
// 0/1 predicate over whatever rows they are given — partition levels
// should re-weight them from subtree envelopes instead).
func (at *SketchAtom) Weigh(cands []schema.Row) ([]*LinearAtom, error) {
	switch at.Kind {
	case SketchLinear:
		return at.linearRows(cands, false)
	case SketchAvg:
		sw, err := aggWeights(cands, &paql.Agg{Fn: "SUM", Arg: at.agg.Arg, Filter: at.agg.Filter})
		if err != nil {
			return nil, err
		}
		// COUNT over the argument: a NULL argument contributes to neither
		// the sum nor the count, so its weight must be 0 — COUNT(*)
		// weights would let NULL tuples shift the rewritten average.
		cw, err := aggWeights(cands, &paql.Agg{Fn: "COUNT", Arg: at.agg.Arg, Filter: at.agg.Filter})
		if err != nil {
			return nil, err
		}
		w := make([]float64, len(cands))
		for i := range w {
			w[i] = sw[i] - at.c*cw[i]
		}
		row := &LinearAtom{W: w, Source: at.src}
		switch at.op {
		case expr.OpLe:
			row.Op, row.RHS = lp.LE, 0
		case expr.OpLt:
			row.Op, row.RHS = lp.LE, -eps(at.c)
		case expr.OpGe:
			row.Op, row.RHS = lp.GE, 0
		case expr.OpGt:
			row.Op, row.RHS = lp.GE, eps(at.c)
		default:
			return nil, fmt.Errorf("AVG with %s has no exact linear form", at.op)
		}
		return []*LinearAtom{row}, nil
	case SketchElim, SketchAtLeast:
		sel, err := at.Selector(cands)
		if err != nil {
			return nil, err
		}
		return []*LinearAtom{sel.TupleAtom()}, nil
	}
	return nil, fmt.Errorf("unknown sketch atom kind %d", at.Kind)
}

// linearRows weighs a SketchLinear atom into Σ w·x ⋛ −konst (an equality
// yields LE+GE over one weight vector). A strict comparison is tightened
// by the shared epsilon — a sufficient condition, what the MILP and the
// sketch branches need — unless closed, which relaxes it to its closed
// form: the necessary condition ConjunctiveAtoms prunes with.
func (at *SketchAtom) linearRows(cands []schema.Row, closed bool) ([]*LinearAtom, error) {
	w, err := weigh(at.form, cands)
	if err != nil {
		return nil, err
	}
	rhs := -at.form.konst // Σ w·x + konst ⋛ 0  →  Σ w·x ⋛ −konst
	if !closed {
		switch at.op {
		case expr.OpLt:
			rhs -= eps(rhs)
		case expr.OpGt:
			rhs += eps(rhs)
		}
	}
	switch at.op {
	case expr.OpLe, expr.OpLt:
		return []*LinearAtom{{W: w, Op: lp.LE, RHS: rhs, Source: at.src}}, nil
	case expr.OpGe, expr.OpGt:
		return []*LinearAtom{{W: w, Op: lp.GE, RHS: rhs, Source: at.src}}, nil
	case expr.OpEq:
		return []*LinearAtom{
			{W: w, Op: lp.LE, RHS: rhs, Source: at.src},
			{W: w, Op: lp.GE, RHS: rhs, Source: at.src},
		}, nil
	}
	return nil, fmt.Errorf("comparison %s has no exact linear form", at.op)
}

// Selector is the per-candidate view of a selector atom
// (SketchElim/SketchAtLeast): which tuples are present under the
// aggregate's filter, their argument values, and the predicate that
// selects them (bad tuples for an elimination row, good tuples for an
// at-least-one row). Partition levels use it to re-weight the atom over
// nodes from subtree envelopes; Col names the bare unfiltered argument
// column when the envelope fast path applies (-1 otherwise).
type Selector struct {
	Kind    SketchAtomKind
	Present []bool    // filter passes and the argument is non-NULL
	Vals    []float64 // argument value per candidate (0 when absent)
	Col     int       // bare argument column ordinal, or -1
	All     bool      // predicate selects every present tuple (guards)
	Op      expr.BinOp
	C       float64
	Source  string
}

// Selector computes the selector view of the atom over the candidates.
// It errors on non-selector kinds.
func (at *SketchAtom) Selector(cands []schema.Row) (*Selector, error) {
	if !at.IsSelector() {
		return nil, fmt.Errorf("atom %s is not a selector", at.src)
	}
	present, err := filterPresence(cands, at.agg)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, len(cands))
	if at.agg.Arg != nil {
		for i, row := range cands {
			if !present[i] {
				continue
			}
			v, err := at.agg.Arg.Eval(row)
			if err != nil {
				return nil, err
			}
			f, _ := v.AsFloat()
			vals[i] = f
		}
	}
	col := -1
	if at.agg.Filter == nil && at.agg.Arg != nil {
		if c, ok := at.agg.Arg.(*expr.Col); ok {
			col = c.Idx
		}
	}
	return &Selector{
		Kind: at.Kind, Present: present, Vals: vals, Col: col,
		All: at.all, Op: at.op, C: at.c, Source: at.src,
	}, nil
}

// Match reports whether a present tuple with the given argument value
// is selected by the predicate.
func (s *Selector) Match(v float64) bool {
	if s.All {
		return true
	}
	switch s.Op {
	case expr.OpLe:
		return v <= s.C
	case expr.OpLt:
		return v < s.C
	case expr.OpGe:
		return v >= s.C
	case expr.OpGt:
		return v > s.C
	}
	return false
}

// TupleAtom is the exact tuple-level row of the selector: Σ_bad x ≤ 0
// for eliminations, Σ_good x ≥ 1 for at-least-one rows.
func (s *Selector) TupleAtom() *LinearAtom {
	w := make([]float64, len(s.Present))
	for i := range w {
		if s.Present[i] && s.Match(s.Vals[i]) {
			w[i] = 1
		}
	}
	if s.Kind == SketchElim {
		return &LinearAtom{W: w, Op: lp.LE, RHS: 0, Source: s.Source}
	}
	return &LinearAtom{W: w, Op: lp.GE, RHS: 1, Source: s.Source}
}
