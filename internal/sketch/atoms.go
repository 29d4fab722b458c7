package sketch

import (
	"context"

	"repro/internal/expr"
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
// a threshold — so they are re-weighted per node from the subtree
// min/max envelopes instead (see selectorNodeAtom).
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

// admissibleCounts returns, per node, how many covered tuples survive
// every elimination row of the branch — the node's true supply of
// package-admissible tuples, which caps its multiplicity at every
// sketch level (a node whose whole subtree is eliminated gets 0: the
// envelope prune expressed as a bound, and the reason the sketch never
// routes more units into a subtree than its refine MILP could place).
// nil when the branch has no eliminations.
func (ba *branchAtoms) admissibleCounts(nodes []Node) []int {
	if ba.eliminated == nil {
		return nil
	}
	out := make([]int, len(nodes))
	for g := range nodes {
		c := 0
		for _, i := range nodes[g].Tuples {
			if !ba.eliminated[i] {
				c++
			}
		}
		out[g] = c
	}
	return out
}

// levelAtoms weighs the branch over one level of the partition tree:
// representative rows for the non-selector atoms, envelope relaxations
// for the selectors. The returned slice is ordered like tuple, so
// residual bookkeeping lines up across levels.
func (ba *branchAtoms) levelAtoms(nodes []Node, attrs []int, reps []schema.Row) ([]*translate.LinearAtom, error) {
	out := make([]*translate.LinearAtom, 0, len(ba.tuple))
	for i, at := range ba.branch.Atoms {
		if sel := ba.sels[i]; sel != nil {
			out = append(out, selectorNodeAtom(sel, nodes, attrIndex(attrs, sel.Col)))
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

// attrIndex locates a column ordinal within the tree's split
// attributes; -1 disables the envelope fast path for that selector.
func attrIndex(attrs []int, col int) int {
	if col < 0 {
		return -1
	}
	for ai, a := range attrs {
		if a == col {
			return ai
		}
	}
	return -1
}

// selectorNodeAtom relaxes a selector atom over a level's nodes, the
// envelope-pruning step of the billion-tuple follow-up:
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
// the subtree: the per-attribute envelopes answer them in O(1) for
// bare-column aggregates, the per-tuple scan covers filtered or
// compound arguments.
func selectorNodeAtom(sel *translate.Selector, nodes []Node, ai int) *translate.LinearAtom {
	w := make([]float64, len(nodes))
	for g := range nodes {
		switch sel.Kind {
		case translate.SketchElim:
			if nodeEntirelySelected(sel, &nodes[g], ai) {
				w[g] = 1
			}
		case translate.SketchAtLeast:
			if nodeAnySelected(sel, &nodes[g], ai) {
				w[g] = 1
			}
		}
	}
	if sel.Kind == translate.SketchElim {
		return &translate.LinearAtom{W: w, Op: lp.LE, RHS: 0, Source: sel.Source}
	}
	return &translate.LinearAtom{W: w, Op: lp.GE, RHS: 1, Source: sel.Source}
}

// nodeEntirelySelected reports whether every tuple the node covers is
// present under the selector and matches its predicate — for an
// elimination row, the whole subtree is inadmissible and can be pruned
// from the sketch MILP.
func nodeEntirelySelected(sel *translate.Selector, n *Node, ai int) bool {
	if ai >= 0 {
		if n.NonNull[ai] != len(n.Tuples) {
			return false // a NULL tuple is never present, so never bad
		}
		// Every value is selected when the far end of the envelope is.
		if sel.Op == expr.OpLe || sel.Op == expr.OpLt {
			return sel.Match(n.Hi[ai])
		}
		return sel.Match(n.Lo[ai])
	}
	for _, i := range n.Tuples {
		if !sel.Present[i] || !sel.Match(sel.Vals[i]) {
			return false
		}
	}
	return true
}

// nodeAnySelected reports whether some tuple the node covers is present
// and matches the predicate — for an at-least-one row, the subtree can
// supply a witness.
func nodeAnySelected(sel *translate.Selector, n *Node, ai int) bool {
	if ai >= 0 {
		if n.NonNull[ai] == 0 {
			return false
		}
		// Some value is selected when the near end of the envelope is.
		if sel.Op == expr.OpLe || sel.Op == expr.OpLt {
			return sel.Match(n.Lo[ai])
		}
		return sel.Match(n.Hi[ai])
	}
	for _, i := range n.Tuples {
		if sel.Present[i] && sel.Match(sel.Vals[i]) {
			return true
		}
	}
	return false
}
