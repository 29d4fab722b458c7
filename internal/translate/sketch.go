package translate

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/lifecycle"
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
	// tuples; relaxed over partition nodes to the nodes whose every
	// tuple violates the bound.
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
// nodes from how many of each subtree's tuples they select, which is why
// they expose their predicate through Selector.
type SketchAtom struct {
	// Kind drives how the atom is weighted at each level.
	Kind SketchAtomKind

	lin *linear    // SketchLinear: L − R; SketchAvg: SUM − c·COUNT; compared against 0
	sel *selection // SketchElim/SketchAtLeast: the aggregate's (argument, filter)
	op  expr.BinOp // SketchLinear/SketchAvg: comparison op; selectors: predicate op
	c   float64    // threshold constant (aggregate on the left)
	all bool       // SketchAtLeast: select every present tuple (guard)
	src string     // rendered source atom, for rows and diagnostics
}

// isGuard reports whether the atom is a non-empty guard: the one kind of
// row a conjunction may drop when another row already implies it.
func (at *SketchAtom) isGuard() bool { return at.Kind == SketchAtLeast && at.all }

// Source returns the rendered source atom the lowering came from.
func (at *SketchAtom) Source() string { return at.src }

// IsSelector reports whether the atom carries 0/1 selector weights
// (SketchElim/SketchAtLeast) that partition levels must re-weight from
// their subtrees' selected-tuple counts rather than from representative
// rows.
func (at *SketchAtom) IsSelector() bool {
	return at.Kind == SketchElim || at.Kind == SketchAtLeast
}

// SketchBranch is one DNF branch: a conjunction of sketch atoms. A
// package satisfying every atom of any branch satisfies the SUCH THAT
// formula and has a non-NULL objective.
type SketchBranch struct {
	// Atoms is the branch's conjunction, in formula order, then the
	// objective's guards.
	Atoms []*SketchAtom
}

// Weigh compiles the branch over real candidate tuples as one conjunction
// (weighConjunction): the atoms kept — a guard another row implies is
// dropped — and, per kept atom, its exact rows. Each atom's weighing is
// linear in the candidates; ctx is checked between atoms.
func (br SketchBranch) Weigh(ctx context.Context, cands []schema.Row) (SketchBranch, [][]*LinearAtom, error) {
	atoms, rows, err := weighConjunction(ctx, br.Atoms, cands, false)
	return SketchBranch{Atoms: atoms}, rows, err
}

// conjoin appends lowered atoms to a conjunction, a guard only the first
// time one of its atoms asks for that selection's.
func conjoin(conj, lowered []*SketchAtom) []*SketchAtom {
	for _, at := range lowered {
		if !at.isGuard() || !slices.ContainsFunc(conj, func(c *SketchAtom) bool { return c.isGuard() && c.sel == at.sel }) {
			conj = append(conj, at)
		}
	}
	return conj
}

// weighConjunction weighs one conjunction over real candidate tuples —
// where every consumer's rows are assembled: a DNF branch, the exact
// MILP's unconditional rows, the search atoms (closed, see linearRows) —
// and applies the one rule for guards: a guard Σ_present x ≥ 1 is dropped
// when another row Σ w·x ≥ b of the conjunction, b ≥ 1, has w ≤ b on the
// guard's present tuples and w ≤ 0 on the rest, since then Σ_present x ≥
// Σ w·x / b ≥ 1 for every x ≥ 0: the LP relaxation, hence every bound and
// every answer, is unchanged. Only the rows' own weights decide. A guard
// falls to an earlier kept guard, never a later one, so two equal guards
// do not drop each other.
func weighConjunction(ctx context.Context, atoms []*SketchAtom, cands []schema.Row, closed bool) (kept []*SketchAtom, keptRows [][]*LinearAtom, err error) {
	rows := make([][]*LinearAtom, len(atoms)) // a guard's stay nil unless it is kept
	for i, at := range atoms {
		if err = lifecycle.ContextErr(ctx); err != nil {
			return nil, nil, err
		}
		switch {
		case at.isGuard():
			_, _, err = at.sel.pass(ctx, cands, false) // judged below, from its presence alone
		case at.Kind == SketchLinear:
			rows[i], err = at.linearRows(ctx, cands, closed)
		default:
			rows[i], err = at.weigh(ctx, cands)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	for i, at := range atoms {
		if at.isGuard() {
			_, present, err := at.sel.pass(ctx, cands, false)
			if err != nil {
				return nil, nil, err
			}
			if slices.ContainsFunc(slices.Concat(rows...), func(r *LinearAtom) bool { return implies(r, present) }) {
				continue
			}
			if rows[i], err = at.weigh(ctx, cands); err != nil {
				return nil, nil, err
			}
		}
		kept, keptRows = append(kept, at), append(keptRows, rows[i])
	}
	return kept, keptRows, nil
}

// implies reports whether row r forces Σ_present x ≥ 1 for every x ≥ 0.
func implies(r *LinearAtom, present []bool) bool {
	if r.Op != lp.GE || r.RHS < 1 {
		return false
	}
	for i, w := range r.W {
		if w > 0 && (!present[i] || w > r.RHS) {
			return false
		}
	}
	return true
}

// CompileSketch lowers the query's SUCH THAT formula into
// disjunctive-normal-form branches of sketch atoms (see lowerAtom), the
// form SketchRefine descends one branch at a time; every branch ends
// with the objective's guards. maxBranches caps the DNF expansion (0 =
// DefaultMaxSketchBranches). rewrites counts the AVG/MIN/MAX source
// atoms that were rewritten.
//
// A nil SUCH THAT yields one branch of the objective's guards alone; a
// constant-false formula yields zero branches. Errors name the atom that
// blocks sketch evaluation.
//
// The branches' passes are their own: each selection keeps the pass of the
// rows last weighed and nothing outlives the branches. A query whose
// candidates have a pass store compiles through (*Passes).CompileSketch.
func CompileSketch(a *paql.Analysis, maxBranches int) (branches []SketchBranch, rewrites int, err error) {
	return (*Passes)(nil).CompileSketch(a, maxBranches)
}

// CompileSketch is the package's CompileSketch with the branches bound to
// the store: weighed over the store's candidates they fold only the
// selections no earlier compilation against it has, and share every fold
// they make; weighed over other rows they behave as unbound ones.
func (ps *Passes) CompileSketch(a *paql.Analysis, maxBranches int) (branches []SketchBranch, rewrites int, err error) {
	if maxBranches <= 0 {
		maxBranches = DefaultMaxSketchBranches
	}
	sels := newSelections(ps)
	// A non-affine objective has no guards to give; whoever runs the
	// branches rejects it (sketch.lower).
	_, objGuards, _ := compileObjective(a, sels)
	raw := [][]*bAtom{nil}
	if a.Query.SuchThat != nil {
		if raw, err = dnfBranches(nnf(a.Query.SuchThat, false), maxBranches); err != nil {
			return nil, 0, err
		}
	}
	rewritten := map[*bAtom]bool{}
	for _, rb := range raw {
		var conj []*SketchAtom
		drop := false
		for _, ba := range rb {
			if v, ok := constBool(ba.e); ok {
				if !v {
					drop = true // constant false: the branch is unsatisfiable
					break
				}
				continue
			}
			lowered, err := lowerAtom(ba.e, sels)
			if err != nil {
				return nil, 0, fmt.Errorf("atom %s blocks SketchRefine: %w", ba.e, err)
			}
			if lowered[0].Kind != SketchLinear && !rewritten[ba] {
				rewritten[ba] = true
				rewrites++
			}
			conj = conjoin(conj, lowered)
		}
		if !drop {
			branches = append(branches, SketchBranch{Atoms: conjoin(conj, objGuards)})
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
// SUM/COUNT comparison keeps its form L − R, AVG is linearized, MIN/MAX
// become selector rows (a first atom of any kind but SketchLinear marks
// such a rewrite), each followed by the non-empty guards of the
// selections whose emptiness would make it NULL. Atoms lowered over one
// sels share their passes. The check is by shape only; nothing is weighed
// before Weigh. Errors say why there is no linear form and leave naming
// the atom to the caller.
func lowerAtom(e expr.Expr, sels selections) ([]*SketchAtom, error) {
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
		sel := sels.of(agg)
		guard := &SketchAtom{Kind: SketchAtLeast, sel: sel, all: true, src: src + " [non-empty guard]"}
		switch lower := op == expr.OpGe || op == expr.OpGt; {
		case op == expr.OpEq || op == expr.OpNe:
			return nil, fmt.Errorf("%s with %s has no exact linear form", agg.Fn, op)
		case agg.Fn == "AVG":
			// SUM − c·COUNT over the argument: a tuple outside the selection
			// (filtered out, or a NULL argument) adds to neither, so it
			// weighs 0 and cannot shift the rewritten average.
			lin := &linear{terms: []term{{coef: -c, count: true, sel: sel}, {coef: 1, sel: sel}}}
			return []*SketchAtom{{Kind: SketchAvg, lin: lin, op: op, c: c, src: src}, guard}, nil
		case (agg.Fn == "MIN") == lower:
			// MIN ≥ c, MAX ≤ c: no member may sit on the other side, and
			// one must be there (the guard).
			bad, _ := op.Negate()
			return []*SketchAtom{{Kind: SketchElim, sel: sel, op: bad, c: c, src: src}, guard}, nil
		}
		// MIN ≤ c, MAX ≥ c: one member must reach the threshold.
		return []*SketchAtom{{Kind: SketchAtLeast, sel: sel, op: op, c: c, src: src}}, nil
	}
	if b.Op == expr.OpNe {
		return nil, errors.New("<> over aggregates has no exact linear form")
	}
	diff, err := affineForm(&expr.Binary{Op: expr.OpSub, L: b.L, R: b.R})
	if err != nil {
		return nil, fmt.Errorf("not an affine SUM/COUNT comparison: %w", err)
	}
	lin := sels.compile(diff)
	return append([]*SketchAtom{{Kind: SketchLinear, lin: lin, op: b.Op, src: src}}, lin.guards(src)...), nil
}

// Weigh compiles the atom into exact linear rows over the given
// candidate rows. Calling it with the instance's real tuples yields the
// rows the exact MILP, the refine MILPs and the final feasibility check
// enforce; calling it with representative rows yields a sketch level's
// approximation for the non-selector kinds (selector kinds weigh their
// 0/1 predicate over whatever rows they are given — partition levels
// should re-weight them from their subtrees' selected-tuple counts
// instead).
func (at *SketchAtom) Weigh(cands []schema.Row) ([]*LinearAtom, error) {
	return at.weigh(nil, cands)
}

// weigh is Weigh under a context, which cancels a fold over the rows.
func (at *SketchAtom) weigh(ctx context.Context, cands []schema.Row) ([]*LinearAtom, error) {
	switch at.Kind {
	case SketchLinear, SketchAvg:
		return at.linearRows(ctx, cands, false)
	case SketchElim, SketchAtLeast:
		sel, err := at.selector(ctx, cands)
		if err != nil {
			return nil, err
		}
		return []*LinearAtom{sel.TupleAtom()}, nil
	}
	return nil, fmt.Errorf("unknown sketch atom kind %d", at.Kind)
}

// linearRows weighs a SketchLinear or SketchAvg atom into Σ w·x ⋛ −konst
// (an equality yields LE+GE over one weight vector). A strict comparison
// is tightened by the shared epsilon, scaled to the constant the source
// atom names — a sufficient condition, what the MILP and the sketch
// branches need — unless closed, which relaxes it to its closed form: the
// necessary condition ConjunctiveAtoms prunes with.
func (at *SketchAtom) linearRows(ctx context.Context, cands []schema.Row, closed bool) ([]*LinearAtom, error) {
	w, err := at.lin.weigh(ctx, cands)
	if err != nil {
		return nil, err
	}
	rhs := -at.lin.konst // Σ w·x + konst ⋛ 0  →  Σ w·x ⋛ −konst
	if !closed {
		e := eps(rhs)
		if at.Kind == SketchAvg {
			e = eps(at.c)
		}
		switch at.op {
		case expr.OpLt:
			rhs -= e
		case expr.OpGt:
			rhs += e
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
// nodes from how many of each node's tuples it selects. Present and
// Vals are the selection's own: read-only.
type Selector struct {
	Kind    SketchAtomKind
	Present []bool    // filter passes and the argument is non-NULL
	Vals    []float64 // argument value per candidate (0 when absent)
	All     bool      // predicate selects every present tuple (guards)
	Op      expr.BinOp
	C       float64
	Source  string
}

// Selector computes the selector view of the atom over the candidates.
// It errors on non-selector kinds and on a threshold over a non-number.
func (at *SketchAtom) Selector(cands []schema.Row) (*Selector, error) {
	return at.selector(nil, cands)
}

func (at *SketchAtom) selector(ctx context.Context, cands []schema.Row) (*Selector, error) {
	if !at.IsSelector() {
		return nil, fmt.Errorf("atom %s is not a selector", at.src)
	}
	vals, present, err := at.sel.pass(ctx, cands, !at.all)
	if err != nil {
		return nil, err
	}
	return &Selector{
		Kind: at.Kind, Present: present, Vals: vals,
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
