package sketch

import (
	"context"

	"repro/internal/lp"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/translate"
)

// branchAtoms is one DNF branch of the SUCH THAT formula weighted at
// every granularity the descent needs: exact tuple-level rows for the
// refine MILPs and the final feasibility check, plus the per-atom
// selector views the partition levels re-weight over nodes.
//
// Non-selector atoms (affine SUM/COUNT rows and AVG rewrites) weigh
// over a level's representative rows exactly like the classic sketch.
// Selector atoms (MIN/MAX eliminations, at-least-one witnesses, AVG
// guards) carry 0/1 tuple weights a representative cannot express — a
// mean row says nothing about whether ANY tuple in the subtree crosses
// a threshold — so they are re-weighted per node from how many of its
// covered tuples they select, counted at the leaves and folded up
// (see nodeFacts and selectorNodeAtom).
type branchAtoms struct {
	branch translate.SketchBranch
	tuple  []*translate.LinearAtom     // exact rows over the instance's candidates
	sels   map[int]*translate.Selector // selector view per branch-atom index
	// eliminated[i] reports that some elimination row of the branch
	// excludes candidate i — such a tuple can enter no feasible package.
	// nil when the branch has no eliminations.
	eliminated []bool
}

// newBranchAtoms weighs a compiled branch over the instance's candidates
// as one conjunction (translate.SketchBranch.Weigh): the guards another
// row implies are dropped there, so ba.branch is what the descent
// carries. At 1M rows one atom's weighing is low hundreds of milliseconds;
// Weigh checks the context between atoms.
func newBranchAtoms(ctx context.Context, inst *search.Instance, br translate.SketchBranch) (*branchAtoms, error) {
	kept, rows, err := br.Weigh(ctx, inst.Rows)
	if err != nil {
		return nil, err
	}
	ba := &branchAtoms{branch: kept, sels: map[int]*translate.Selector{}}
	for i, at := range kept.Atoms {
		ba.tuple = append(ba.tuple, rows[i]...)
		if !at.IsSelector() {
			continue
		}
		sel, err := at.Selector(inst.Rows)
		if err != nil {
			return nil, err
		}
		ba.sels[i] = sel
		if sel.Kind == translate.SketchElim {
			if ba.eliminated == nil {
				ba.eliminated = make([]bool, len(inst.Rows))
			}
			for j, bad := range rows[i][0].W {
				if bad != 0 {
					ba.eliminated[j] = true
				}
			}
		}
	}
	return ba, nil
}

// nodeFacts is what a sketch level knows of each node's covered tuples:
// how many there are, how many are pinned, how many survive every
// elimination row of the branch (the admissible supply, which caps the
// node's multiplicity, so the sketch never routes more units into a
// subtree than its refine MILP could place), how many each selector
// selects, and each exclusion cut's weight sum over them. The leaves'
// facts are a scan of their tuples (leafFacts); a level above folds its
// children's (fold). Every fact is a count or a sum of ±1 weights, so
// the fold adds up exactly what a scan of the node's covered tuples
// would, in any order: each level's atoms, bounds and MILPs are the
// scan's, bit for bit.
type nodeFacts struct {
	size []int
	pins []int         // nil without pins
	adm  []int         // nil when the branch eliminates nothing
	sel  map[int][]int // per selector (branch-atom index); nil in the bound pass's facts
	ex   [][]float64   // per exclusion cut; nil in the bound pass's facts
}

// treeFacts computes every level's facts for the branch: one scan of the
// leaves, folded up level by level.
func (s *solver) treeFacts(ba *branchAtoms, tree *Tree) []*nodeFacts {
	facts := make([]*nodeFacts, tree.Depth)
	facts[tree.Depth-1] = s.leafFacts(ba, tree.Leaves(), true)
	for l := tree.Depth - 2; l >= 0; l-- {
		facts[l] = facts[l+1].fold(tree.Levels[l])
	}
	return facts
}

// leafFacts scans each leaf's tuples. The bound pass reads only the
// supply (size, pins, admissible count); withAtoms adds the selector
// counts and exclusion sums the descent's level atoms read.
func (s *solver) leafFacts(ba *branchAtoms, leaves []Node, withAtoms bool) *nodeFacts {
	f := &nodeFacts{size: make([]int, len(leaves))}
	for g := range leaves {
		f.size[g] = len(leaves[g].Tuples)
	}
	if len(s.pins) > 0 {
		f.pins = countLeaves(leaves, func(i int) bool { return s.pins[i] })
	}
	if ba.eliminated != nil {
		f.adm = countLeaves(leaves, func(i int) bool { return !ba.eliminated[i] })
	}
	if !withAtoms {
		return f
	}
	f.sel = make(map[int][]int, len(ba.sels))
	for k, sel := range ba.sels {
		f.sel[k] = countLeaves(leaves, func(i int) bool { return sel.Present[i] && sel.Match(sel.Vals[i]) })
	}
	for _, ex := range s.exAtoms {
		sum := make([]float64, len(leaves))
		for g := range leaves {
			for _, i := range leaves[g].Tuples {
				sum[g] += ex.W[i]
			}
		}
		f.ex = append(f.ex, sum)
	}
	return f
}

// countLeaves counts, per leaf, the tuples pred holds for.
func countLeaves(leaves []Node, pred func(i int) bool) []int {
	out := make([]int, len(leaves))
	for g := range leaves {
		for _, i := range leaves[g].Tuples {
			if pred(i) {
				out[g]++
			}
		}
	}
	return out
}

// fold returns the facts of the parents whose children these are.
func (f *nodeFacts) fold(parents []Node) *nodeFacts {
	up := &nodeFacts{size: foldSum(f.size, parents), pins: foldSum(f.pins, parents), adm: foldSum(f.adm, parents)}
	if f.sel != nil {
		up.sel = make(map[int][]int, len(f.sel))
		for k, c := range f.sel {
			up.sel[k] = foldSum(c, parents)
		}
	}
	for _, w := range f.ex {
		up.ex = append(up.ex, foldSum(w, parents))
	}
	return up
}

// foldSum sums each parent's children's values; nil folds to nil.
func foldSum[T int | float64](xs []T, parents []Node) []T {
	if xs == nil {
		return nil
	}
	out := make([]T, len(parents))
	for g := range parents {
		for _, c := range parents[g].Children {
			out[g] += xs[c]
		}
	}
	return out
}

// levelAtoms weighs the branch over one level of the partition tree:
// representative rows for the non-selector atoms, relaxations from the
// level's facts for the selectors. The returned slice is ordered like
// tuple, so residual bookkeeping lines up across levels.
func (ba *branchAtoms) levelAtoms(reps []schema.Row, f *nodeFacts) ([]*translate.LinearAtom, error) {
	out := make([]*translate.LinearAtom, 0, len(ba.tuple))
	for i, at := range ba.branch.Atoms {
		if sel := ba.sels[i]; sel != nil {
			out = append(out, selectorNodeAtom(sel, f.size, f.sel[i]))
			continue
		}
		rows, err := at.Weigh(reps)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// selectorNodeAtom relaxes a selector atom over a level's nodes — the
// hierarchical pruning step of the billion-tuple follow-up — from how
// many of each node's covered tuples are present under the selector and
// match its predicate (selected) out of how many it covers (size):
//
//   - an elimination row (Σ_bad x ≤ 0 over tuples) gives weight 1 to
//     exactly the nodes whose every covered tuple is present and
//     violating — the subtree cannot supply one admissible tuple, so
//     the row forces its multiplicity to 0. Mixed subtrees keep weight
//     0: the sketch may select them and the per-leaf refine MILP, which
//     enforces the exact tuple row, picks only admissible tuples.
//   - an at-least-one row (Σ_good x ≥ 1) gives weight 1 to the nodes
//     whose subtree holds at least one witness, so the sketch is forced
//     to route at least one unit through a subtree that can actually
//     satisfy the bound.
//
// Both directions are relaxations of the tuple-level row (they never
// exclude a refinable descent), and both are exact set statements about
// the subtree.
func selectorNodeAtom(sel *translate.Selector, size, selected []int) *translate.LinearAtom {
	w := make([]float64, len(size))
	for g := range size {
		switch {
		case sel.Kind == translate.SketchElim && selected[g] == size[g],
			sel.Kind == translate.SketchAtLeast && selected[g] > 0:
			w[g] = 1
		}
	}
	if sel.Kind == translate.SketchElim {
		return &translate.LinearAtom{W: w, Op: lp.LE, RHS: 0, Source: sel.Source}
	}
	return &translate.LinearAtom{W: w, Op: lp.GE, RHS: 1, Source: sel.Source}
}
