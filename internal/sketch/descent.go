package sketch

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/lifecycle"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/schema"
	"repro/internal/translate"
)

// descent is what one DNF branch's run through the tree produced: the
// package refine assembled (nil when the sketch never got that far), the
// shape of the tree it ran over, and the refine tallies. The winning
// branch's becomes the Result's.
type descent struct {
	Mult       []int   `json:"-"`          // multiplicity per candidate
	Objective  float64 `json:"-"`          // objective of Mult (0 when the query has none)
	Feasible   bool    `json:"-"`          // Mult satisfies the full SUCH THAT formula (and pins)
	Partitions int     `json:"partitions"` // leaf partitions produced by the offline step
	Levels     int     `json:"sketchLevels"`
	TopVars    int     `json:"sketchTopVars"` // variables in the top-level sketch MILP
	Active     int     `json:"-"`             // leaf partitions the sketch solution touched
	Refined    int     `json:"-"`             // partitions refined via their sub-MILP
	Repaired   int     `json:"-"`             // partitions that fell back to greedy repair
	notes      []string
}

func (d *descent) note(format string, args ...any) {
	d.notes = append(d.notes, fmt.Sprintf(format, args...))
}

// tally counts solver work: branch-and-bound nodes and simplex
// iterations across every MILP a run solves (the bound pass's Lagrangian
// rounds run no simplex and add none).
type tally struct {
	Nodes   int64 `json:"-"`
	LPIters int   `json:"-"`
}

func (t *tally) merge(o tally) {
	t.Nodes += o.Nodes
	t.LPIters += o.LPIters
}

// subMILPNodes caps branch-and-bound nodes per descent and refine
// sub-MILP.
const subMILPNodes = 50000

// solveBranch runs the classic SketchRefine pipeline — acquire tree,
// descend, refine — for one DNF branch. A branch whose top-level sketch
// is infeasible retries flat over the same leaves, then once more at
// τ/4, exactly like the conjunctive engine always has.
func (s *solver) solveBranch(ba *branchAtoms) (*descent, error) {
	d := &descent{}
	tau := s.opts.tau()
	depth := s.opts.depth()
	reducedTau := false
	var flatFrom *Tree // a hierarchical tree whose leaves the flat retry reuses
	for {
		if err := lifecycle.ContextErr(s.opts.Ctx); err != nil {
			return nil, err
		}
		var tree *Tree
		if flatFrom != nil {
			// The flat retry shares the previous tree's leaf level: same
			// τ and seed mean the leaves are identical, so re-running the
			// offline partitioning (the dominant cost at scale) would
			// only rebuild what is already in memory.
			tree = flatFrom.flatten()
			flatFrom = nil
		} else {
			var err error
			if tree, err = s.tree(tau, depth); err != nil {
				return nil, err
			}
		}
		d.Partitions, d.Levels, d.TopVars = len(tree.Leaves()), tree.Depth, len(tree.Levels[0])
		y, leafAtoms, infeasible, err := s.descend(tree, ba)
		if err != nil {
			return nil, err
		}
		switch {
		case infeasible && tree.Depth > 1:
			// Coarse top-level representatives can be infeasible where
			// the flat sketch is not; retry over the same leaves as a
			// single level before shrinking τ. (Keyed on the tree
			// actually built: a depth request the builder early-stopped
			// to 1 level must not re-try the same flat tree.)
			depth = 1
			flatFrom = tree
			d.note("hierarchical sketch infeasible at the top level; retrying flat over the same leaves")
			continue
		case infeasible && !reducedTau && tau > 1:
			reducedTau = true
			tau = max(1, tau/4)
			d.note("sketch over representatives infeasible; retrying with partition size %d", tau)
			continue
		case infeasible:
			d.note("sketch over representatives is infeasible; the query may have no package")
		case y == nil:
			d.note("sketch solver hit its limits without an incumbent")
		default:
			s.refine(d, tree, ba, leafAtoms, y)
		}
		return d, nil
	}
}

// nodeExclusionAtoms re-weights the run's tuple-level exclusion atoms
// over a level's nodes: a node's weight is its subtree's mean tuple
// weight, the same per-unit approximation the representative carries for
// SUM atoms.
func (s *solver) nodeExclusionAtoms(nodes []Node) []*translate.LinearAtom {
	out := make([]*translate.LinearAtom, len(s.exAtoms))
	for k, ex := range s.exAtoms {
		w := make([]float64, len(nodes))
		for g := range nodes {
			sum := 0.0
			for _, i := range nodes[g].Tuples {
				sum += ex.W[i]
			}
			w[g] = sum / float64(len(nodes[g].Tuples))
		}
		out[k] = &translate.LinearAtom{W: w, Op: ex.Op, RHS: ex.RHS, Source: ex.Source}
	}
	return out
}

// pinCount counts the pinned candidates a node's subtree covers: the
// node's multiplicity lower bound at every sketch level.
func (s *solver) pinCount(tuples []int) int {
	if len(s.pins) == 0 {
		return 0
	}
	c := 0
	for _, i := range tuples {
		if s.pins[i] {
			c++
		}
	}
	return c
}

// level is one tree level as the sketch MILPs see it: the branch's atoms
// and the objective weighed over the level's nodes, and each node's
// admissible tuple supply (nil when the branch eliminates nothing).
type level struct {
	nodes []Node
	atoms []*translate.LinearAtom
	objW  []float64
	adm   []int
}

// descend runs the sketch at every level of the tree: one MILP over the
// root representatives first, then each selected node's multiplicity is
// re-solved over its children's representatives against residual
// constraint right-hand sides — the same residual scheme refine applies
// to real tuples, applied to representatives level by level. Only nodes
// chosen at the level above are descended into. Returns the leaf
// multiplicities together with the branch atoms weighted over the leaf
// level (what refine consumes): representative rows for affine and AVG
// atoms, envelope relaxations for the MIN/MAX selector rows.
func (s *solver) descend(tree *Tree, ba *branchAtoms) (y []int, leafAtoms []*translate.LinearAtom, infeasible bool, err error) {
	levels := make([]level, tree.Depth)
	for l, nodes := range tree.Levels {
		reps := make([]schema.Row, len(nodes))
		for i := range nodes {
			reps[i] = nodes[i].Rep
		}
		atoms, err := ba.levelAtoms(nodes, tree.Attrs, reps)
		if err != nil {
			return nil, nil, false, err
		}
		w, _, err := translate.ObjectiveWeights(s.inst.Analysis, reps)
		if err != nil {
			return nil, nil, false, err
		}
		levels[l] = level{nodes, append(atoms, s.nodeExclusionAtoms(nodes)...), w, ba.admissibleCounts(nodes)}
	}
	y, infeasible, err = s.rootSolve(&levels[0])
	if err != nil || infeasible || y == nil {
		return nil, nil, infeasible, err
	}
	for l := 1; l < tree.Depth; l++ {
		y = s.pushLevel(tree.Attrs, &levels[l-1], &levels[l], y)
	}
	return y, levels[tree.Depth-1].atoms, false, nil
}

// jointCap bounds the variable count of a joint per-level MILP (the
// union of all active nodes' children); beyond it pushLevel falls back
// to per-parent residual solves, which stay tiny regardless of how
// many nodes the level above selected.
const jointCap = 4096

// rootSolve builds and solves the top-level sketch MILP: one integer
// variable per root node (the representative's multiplicity, capped at
// the subtree's tuple capacity and floored at the subtree's pinned
// count), the query's linear atoms re-weighted over the root
// representatives, and the affine objective likewise.
func (s *solver) rootSolve(top *level) (y []int, infeasible bool, err error) {
	G := len(top.nodes)
	p := lp.NewProblem(G)
	for g := 0; g < G; g++ {
		lo, up := s.nodeBound(top, g)
		if lo > up {
			// A pinned tuple inside a fully-eliminated subtree: no
			// package on this branch can honor both.
			return nil, true, nil
		}
		if err := p.SetBounds(g, lo, up); err != nil {
			return nil, false, err
		}
	}
	if err := p.SetObjective(top.objW, objSense(s.inst)); err != nil {
		return nil, false, err
	}
	for _, at := range top.atoms {
		var coefs []lp.Coef
		for g, w := range at.W {
			if w != 0 {
				coefs = append(coefs, lp.Coef{Var: g, Val: w})
			}
		}
		if _, err := p.AddConstraint(coefs, at.Op, at.RHS); err != nil {
			return nil, false, err
		}
	}
	mp := milp.NewProblem(p)
	for g := 0; g < G; g++ {
		mp.SetInteger(g)
	}
	sol := milp.Solve(mp, milp.Options{MaxNodes: subMILPNodes, TimeLimit: timeShare(s.deadline, 2), Ctx: s.opts.Ctx})
	s.res.tally.merge(tally{int64(sol.Nodes), sol.LPIters})
	switch sol.Status {
	case milp.StatusInfeasible:
		return nil, true, nil
	case milp.StatusUnbounded:
		return nil, false, fmt.Errorf("sketch: objective is unbounded over representatives (add constraints or REPEAT)")
	}
	if sol.X == nil {
		return nil, false, nil
	}
	y = make([]int, G)
	for g := 0; g < G; g++ {
		y[g] = int(math.Round(sol.X[g]))
	}
	return y, false, nil
}

// pushLevel distributes the multiplicities chosen over the parents one
// level down, descending only into subtrees the level above selected. It
// first attempts one joint MILP over the union of every active parent's
// children against the full constraints — the highest-quality push-down,
// and still tiny because the union is bounded by the active count times
// the fanout. When that union exceeds jointCap or the joint solve fails,
// the active parents are pushed down as a concurrent wave (see
// solveWave): each parent gets its own MILP over its children whose
// constraint right-hand sides are the query atoms minus every other
// parent's representative contribution, the solves fan out across
// workers (parents own disjoint child sets), and the merge walks the
// parents in fixed order (largest multiplicity first). A parent whose
// sub-MILP fails falls back to a greedy spread over its children (see
// greedyFill), nearest representative first, honoring pinned lower bounds.
// Cross-parent error left by the shared snapshot is absorbed a level
// deeper — ultimately by refine's validation and repair sweeps.
func (s *solver) pushLevel(attrs []int, up, down *level, parentMult []int) []int {
	parents := up.nodes
	childMult := make([]int, len(down.nodes))
	sub := &residual{
		bound: func(ci int) (float64, float64) { return s.nodeBound(down, ci) },
		atoms: down.atoms, objW: down.objW, out: childMult,
	}

	active := activeGroups(parentMult)
	var union []int
	for _, g := range active {
		union = append(union, parents[g].Children...)
	}
	if len(union) <= jointCap {
		sort.Ints(union)
		rhs := make([]float64, len(down.atoms))
		for k, at := range down.atoms {
			rhs[k] = at.RHS
		}
		ok, t := s.residualSolve(sub, union, rhs)
		s.res.tally.merge(t)
		if ok {
			return childMult
		}
		for _, ci := range union {
			childMult[ci] = 0
		}
	}

	cur, grpSum := contributions(up.atoms, parentMult)
	oks := s.solveWave(sub, active, func(g int) []int { return parents[g].Children }, cur, grpSum)
	near := &metric{ctx: s.opts.Ctx, passes: s.inst.Passes, attrs: attrs}
	for ai, g := range active {
		if !oks[ai] {
			// Nearest representative to the parent's first.
			sub.greedyFill(parents[g].Children, parentMult[g], func(ci int) float64 {
				return near.dist(down.nodes[ci].Rep, parents[g].Rep)
			})
		}
	}
	return childMult
}

// activeGroups lists the groups with a positive multiplicity in the
// order every wave and merge walks them: largest multiplicity first,
// group id on ties.
func activeGroups(mult []int) []int {
	var active []int
	for g, m := range mult {
		if m > 0 {
			active = append(active, g)
		}
	}
	sort.SliceStable(active, func(i, j int) bool {
		if mult[active[i]] != mult[active[j]] {
			return mult[active[i]] > mult[active[j]]
		}
		return active[i] < active[j]
	})
	return active
}

// contributions is the shared snapshot a wave's residuals are taken
// against: grpSum[g][k] is what group g, at its representative and its
// multiplicity, adds to atom k, and cur[k] the sum over every group.
func contributions(atoms []*translate.LinearAtom, mult []int) (cur []float64, grpSum [][]float64) {
	cur = make([]float64, len(atoms))
	grpSum = make([][]float64, len(mult))
	for g, m := range mult {
		grpSum[g] = make([]float64, len(atoms))
		if m == 0 {
			continue
		}
		for k := range atoms {
			grpSum[g][k] = atoms[k].W[g] * float64(m)
			cur[k] += grpSum[g][k]
		}
	}
	return cur, grpSum
}

// nodeBound bounds node g's multiplicity at a sketch level: floored at
// the subtree's pinned count; capped at the subtree's tuple count times
// the REPEAT cap, shrunk to the admissible supply when the branch
// carries elimination rows — units the refine MILP could never place
// must not be promised by the sketch. A node whose whole subtree is
// eliminated caps at 0 (the envelope prune as a bound).
func (s *solver) nodeBound(lv *level, g int) (lo, up float64) {
	lo = float64(s.pinCount(lv.nodes[g].Tuples))
	tuples := len(lv.nodes[g].Tuples)
	if lv.adm != nil && lv.adm[g] < tuples {
		tuples = lv.adm[g]
	}
	switch {
	case tuples == 0:
		return lo, 0
	case s.inst.MaxMult > 0:
		return lo, float64(tuples * s.inst.MaxMult)
	}
	return lo, lp.Inf
}

// metric is the greedy fallbacks' and the insert router's distance:
// squared distance in attribute space, each attribute normalized by its
// spread over the candidates, read off their pass store
// ((*translate.Passes).Spread) on first use — the fold of the attribute's
// plain SUM selection, which a query summing it has already made.
type metric struct {
	ctx    context.Context
	passes *translate.Passes
	attrs  []int
	scales []float64
}

// spreads reads every attribute's scale, ending with the context's error
// when a fold it needs is canceled.
func (m *metric) spreads() error {
	if m.scales != nil {
		return nil
	}
	scales := make([]float64, len(m.attrs))
	for ai, col := range m.attrs {
		var err error
		if scales[ai], err = m.passes.Spread(m.ctx, col); err != nil {
			return err
		}
	}
	m.scales = scales
	return nil
}

func (m *metric) dist(a, b schema.Row) float64 {
	if m.spreads() != nil {
		// Canceled: the solve this distance steers ends at its next poll,
		// and any scale serves until then.
		m.scales = slices.Repeat([]float64{1}, len(m.attrs))
	}
	d := 0.0
	for ai, col := range m.attrs {
		diff := (numAt(a, col) - numAt(b, col)) / m.scales[ai]
		d += diff * diff
	}
	return d
}
