package sketch

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/translate"
	"repro/internal/value"
)

// Incremental partition-tree maintenance: instead of discarding a tree
// whenever the backing rows change, ApplyDelta patches it — deleted
// tuples are tombstoned out of their leaves, inserted tuples are routed
// down the existing structure to the nearest leaf, and representatives
// are recomputed bottom-up along the touched paths only. Only the leaves
// hold tuples, so only their lists are renumbered after a delete.
// Leaves that outgrow τ are split locally. Anything the local rules
// cannot absorb — a drift past the patch budget, a node at any level
// whose fanout degrades past its build-time shape, a broken invariant —
// falls back to a full rebuild, which is always correct (SketchRefine
// likewise answers a degraded partitioning by partitioning again).
//
// Patched trees are approximations of a from-scratch rebuild: leaf
// membership may differ (inserted tuples go to the nearest existing
// leaf rather than re-running the global median splits) and internal
// representatives are child-weighted merges rather than exact scans.
// Both only steer the sketch; leaf tuple lists are exact, and every
// count the descent prunes by is folded up from them, so selector
// pruning stays sound and the refine step keeps its guarantees. The
// differential fuzz harness
// (TestIncrementalVsRebuild*) holds patched trees to the same
// feasibility and gap standards as rebuilt ones.

// PatchSpec relates the current candidate set to the one a cached
// partition tree was built over, enabling in-place tree patching after
// writes. Remap maps every base candidate index to its current index,
// or -1 for deleted tuples; surviving candidates keep their relative
// order and precede every inserted one, so current indexes at or above
// the survivor count are inserts. core's fingerprint memo derives it
// from minidb's per-table delta log.
type PatchSpec struct {
	BaseFingerprint uint64 // fingerprint of the base candidate rows
	Remap           []int  // base index -> current index, -1 = deleted
}

// DeltaSize reports the number of changed tuples (inserts + deletes)
// the spec describes for a current candidate count of n.
func (ps *PatchSpec) DeltaSize(n int) int {
	surv := 0
	for _, v := range ps.Remap {
		if v >= 0 {
			surv++
		}
	}
	return (len(ps.Remap) - surv) + (n - surv)
}

// ApplyDelta returns a copy of the tree patched to cover rows, the
// current candidate set, given remap (see PatchSpec.Remap); its Drift is
// the tree's plus the delta. The original tree is never mutated — cached
// trees are shared across concurrent evaluations. ok is false when that
// drift would exceed the budget (plan.PatchFits) — however small each
// step of the chain was, a tree is rebuilt once the patches since its
// last full build add up — when a changed node's fanout would pass its
// bound (twice the widest fanout its level had at build time, plus two),
// when patching empties the tree or breaks a structural invariant, or
// when opts.Ctx ends it; the caller must then rebuild from scratch.
// The distance that routes inserts scales each attribute by its spread
// over rows, which ApplyDelta folds for itself; a solve patches over its
// instance's pass store instead (patch), whose folds a query has made.
func (t *Tree) ApplyDelta(rows []schema.Row, remap []int, opts Options) (*Tree, bool) {
	out, err := t.patch(&search.Instance{Rows: rows, Passes: translate.NewPasses(rows)}, remap, opts)
	return out, err == nil
}

// errNotPatchable is patch's refusal for every reason but the drift
// budget: the delta cannot be absorbed locally.
var errNotPatchable = errors.New("not locally patchable")

// patch is ApplyDelta over an instance of the current candidates: its
// pass store, and the table image its rescanned leaves are read from when
// it has one. Its error says why it refused: the drift budget or the
// fanout bound, each with both numbers it weighed, or errNotPatchable.
func (t *Tree) patch(inst *search.Instance, remap []int, opts Options) (*Tree, error) {
	rows := inst.Rows
	n := len(rows)
	if n == 0 || t.Depth < 1 {
		return nil, errNotPatchable
	}
	surv := 0
	for _, v := range remap {
		if v >= 0 {
			surv++
		}
	}
	deletes := len(remap) - surv
	inserts := n - surv
	if inserts < 0 {
		return nil, errNotPatchable
	}
	if !plan.PatchFits(t.Drift, inserts+deletes, n) {
		pct := func(k int) float64 { return 100 * float64(k) / float64(n) }
		return nil, fmt.Errorf("past its drift budget (delta %.1f%% + drift %.1f%% since the last full build > %.0f%%)",
			pct(inserts+deletes), pct(t.Drift), 100*plan.PatchMaxFrac)
	}

	p := &patcher{
		tree:   t,
		inst:   inst,
		rows:   rows,
		remap:  remap,
		opts:   opts,
		levels: make([][]Node, t.Depth),
		dead:   make([][]bool, t.Depth),
		dirty:  make([][]bool, t.Depth),
	}
	for l := range t.Levels {
		p.levels[l] = append([]Node(nil), t.Levels[l]...)
		p.dead[l] = make([]bool, len(t.Levels[l]))
		p.dirty[l] = make([]bool, len(t.Levels[l]))
	}
	p.fanLimits()

	p.firstNew = len(rows) // no inserts unless routeInserts lowers it
	if deletes > 0 {
		p.remapLeaves()
	}
	if inserts > 0 && p.routeInserts(surv) != nil {
		return nil, errNotPatchable
	}
	p.repairLeaves()
	if err := p.patchParents(); err != nil {
		return nil, err
	}
	out, ok := p.compact()
	if !ok {
		return nil, errNotPatchable
	}
	out.Drift = t.Drift + inserts + deletes
	// The structural backstop: a patch that silently broke coverage or
	// the tree's shape must surface as a rebuild, never as a corrupt tree.
	if out.validateStructure() != nil || out.validateAgainst(rows) != nil {
		return nil, errNotPatchable
	}
	return out, nil
}

// patcher carries ApplyDelta's working state: copied levels plus
// per-node dead/dirty marks. Nodes are patched copy-on-write — any
// modified slice is freshly allocated, never shared with the source
// tree.
type patcher struct {
	tree   *Tree
	inst   *search.Instance // the current candidates
	rows   []schema.Row     // inst.Rows
	remap  []int
	opts   Options
	levels [][]Node
	dead   [][]bool
	dirty  [][]bool
	// limit[l] bounds an internal node's fanout at level l before the
	// tree is considered degraded (twice the build-time maximum, plus two).
	limit []int
	// newByParent collects leaves created by splits, keyed by their
	// parent's index at level Depth-2 (unused for flat trees).
	newByParent map[int][]int
	parentOf    []int // source leaf index -> parent index at Depth-2 (nil when flat)
	near        *metric
	// firstNew is the first inserted candidate index (== the survivor
	// count): leaf tuple suffixes at or above it are this patch's
	// inserts.
	firstNew int
	// delDirty marks leaves whose membership shrank via deletions —
	// those need exact representative rescans, while insert-only leaves
	// update incrementally.
	delDirty []bool
	// splitAttrs is the build's seed-shuffled attribute order, drawn on
	// the first resplit (seeding the shuffle costs more than splitting a
	// leaf).
	splitAttrs []int
	modes      modeScratch // resplit's mode counter
}

func (p *patcher) fanLimits() {
	t := p.tree
	p.limit = make([]int, t.Depth)
	for l := 0; l < t.Depth-1; l++ {
		m := 0
		for i := range t.Levels[l] {
			if c := len(t.Levels[l][i].Children); c > m {
				m = c
			}
		}
		p.limit[l] = 2*m + 2
	}
	if t.Depth >= 2 {
		p.parentOf = make([]int, len(t.Levels[t.Depth-1]))
		for pi := range t.Levels[t.Depth-2] {
			for _, ci := range t.Levels[t.Depth-2][pi].Children {
				p.parentOf[ci] = pi
			}
		}
	}
	p.newByParent = map[int][]int{}
	p.delDirty = make([]bool, len(t.Levels[t.Depth-1]))
}

// remapLeaves renumbers every leaf's tuple list under the remap,
// dropping deleted tuples. Remap is monotone over survivors, so the
// rewritten lists stay sorted.
func (p *patcher) remapLeaves() {
	leaves := p.levels[p.tree.Depth-1]
	for i := range leaves {
		old := leaves[i].Tuples
		nt := make([]int, 0, len(old))
		for _, x := range old {
			if x < len(p.remap) && p.remap[x] >= 0 {
				nt = append(nt, p.remap[x])
			}
		}
		if len(nt) != len(old) {
			p.dirty[p.tree.Depth-1][i] = true
			p.delDirty[i] = true
		}
		leaves[i].Tuples = nt
	}
}

// routeInserts walks each inserted tuple down the tree — nearest
// representative in normalized attribute space at every level, the
// same metric greedy repair uses — and appends it to the chosen leaf.
// Inserted indexes exceed every survivor index, so appends keep the
// tuple lists sorted. It fails only when the context ends the read of the
// metric's scales.
func (p *patcher) routeInserts(firstNew int) error {
	t := p.tree
	p.firstNew = firstNew
	p.near = &metric{ctx: p.opts.Ctx, passes: p.inst.Passes, attrs: t.Attrs}
	if err := p.near.spreads(); err != nil {
		return err
	}
	leafLevel := t.Depth - 1
	// Fresh tuple slices for leaves that receive inserts: the copied
	// node still shares its backing array with the source tree.
	touched := map[int]bool{}
	for j := firstNew; j < len(p.rows); j++ {
		cur := p.nearest(p.levels[0], nil, j)
		for l := 0; l < leafLevel; l++ {
			cur = p.nearest(p.levels[l+1], p.levels[l][cur].Children, j)
		}
		leaf := &p.levels[leafLevel][cur]
		if !touched[cur] {
			touched[cur] = true
			leaf.Tuples = append([]int(nil), leaf.Tuples...)
		}
		leaf.Tuples = append(leaf.Tuples, j)
		p.dirty[leafLevel][cur] = true
	}
	return nil
}

// nearest picks the candidate node (all of nodes, or the subset named
// by idxs) whose representative is closest to row j; ties break on the
// smallest index, keeping routing deterministic.
func (p *patcher) nearest(nodes []Node, idxs []int, j int) int {
	best, bestD := -1, math.Inf(1)
	consider := func(ci int) {
		if d := p.near.dist(nodes[ci].Rep, p.rows[j]); d < bestD {
			best, bestD = ci, d
		}
	}
	if idxs == nil {
		for ci := range nodes {
			consider(ci)
		}
	} else {
		for _, ci := range idxs {
			consider(ci)
		}
	}
	return best
}

// repairLeaves finishes the leaf level: empty leaves are tombstoned,
// overgrown leaves are re-split locally (the new leaves join the same
// parent), and every touched leaf gets its representative refreshed —
// exactly rescanned where deletions changed membership or a split
// regrouped it, incrementally extended where the only change was
// appended inserts (the common case).
//
// The leaves that need an exact rescan are read together, their tuple
// lists back to back: from the table's image by tuple id when the
// instance has one, else from one lowering per patch over just those
// tuples — patching one leaf of a large table must not pay for the
// table. Either way every leaf is a run of elements whose rows ascend
// with its tuple indexes, so the splitter's tie-breaks fall as they
// would over the candidates at large.
func (p *patcher) repairLeaves() {
	t := p.tree
	ll := t.Depth - 1
	var exact, tuples []int // leaves to rescan; their tuple lists, concatenated
	n0 := len(p.levels[ll]) // split-born leaves are fully formed at creation
	for i := 0; i < n0; i++ {
		if !p.dirty[ll][i] || p.dead[ll][i] {
			continue
		}
		leaf := &p.levels[ll][i]
		if len(leaf.Tuples) == 0 {
			p.dead[ll][i] = true
			continue
		}
		// Tuples at or above firstNew are this patch's inserts; only a leaf
		// that keeps its whole prior membership and gains some can be
		// extended in place.
		survivors := sort.SearchInts(leaf.Tuples, p.firstNew)
		if len(leaf.Tuples) > t.Tau || p.delDirty[i] || survivors == 0 || survivors == len(leaf.Tuples) {
			exact = append(exact, i)
			tuples = append(tuples, leaf.Tuples...)
			continue
		}
		leaf.Rep = insertedRepresentative(p.rows, leaf.Rep, survivors, leaf.Tuples[survivors:])
	}
	if len(exact) == 0 {
		return
	}
	cols, at := p.leafColumns(tuples)
	lo := 0
	for _, i := range exact {
		hi := lo + len(p.levels[ll][i].Tuples)
		leaves := p.resplit(cols, at, tuples, lo, hi) // a single leaf unless it outgrew τ
		p.levels[ll][i] = leaves[0]
		for _, leaf := range leaves[1:] {
			p.addLeaf(leaf, i)
		}
		lo = hi
	}
}

// addLeaf appends a fully-formed new leaf, attached to the same parent
// as sibling (when the tree is hierarchical). Split-born leaves are
// formed from a full scan, so repairLeaves never revisits them.
func (p *patcher) addLeaf(leaf Node, sibling int) {
	ll := p.tree.Depth - 1
	p.levels[ll] = append(p.levels[ll], leaf)
	p.dead[ll] = append(p.dead[ll], false)
	p.dirty[ll] = append(p.dirty[ll], true)
	if p.tree.Depth >= 2 {
		parent := p.parentOf[sibling]
		p.newByParent[parent] = append(p.newByParent[parent], len(p.levels[ll])-1)
	}
}

// leafColumns returns the columns the candidates tuples are read from
// and their rows in it: the table's image and the tuples' ids when the
// instance has an image at its version, else a lowering of just those
// tuples, in which tuples[j] is row j, and nil.
func (p *patcher) leafColumns(tuples []int) (*search.Columns, []int) {
	if p.inst.Image != nil {
		if img, err := p.inst.Image(p.opts.Ctx); err == nil && img != nil {
			at := make([]int, len(tuples))
			for j, q := range tuples {
				at[j] = p.inst.IDs[q]
			}
			return img, at
		}
	}
	return search.Lower(p.rows, tuples, nil), nil
}

// resplit forms τ-bounded leaves, from scratch, over the tuple set
// tuples[lo] … tuples[hi-1], which sit at rows at[lo] … at[hi-1] of cols
// (rows lo … hi-1 when at is nil): median splits as in the offline
// build, and each leaf's representative from a full scan.
func (p *patcher) resplit(cols *search.Columns, at, tuples []int, lo, hi int) []Node {
	t := p.tree
	if p.splitAttrs == nil {
		p.splitAttrs = shuffledAttrs(t.Attrs, p.opts.Seed)
	}
	groups := (&splitter{tau: t.Tau}).medianSplit(cols, at, lo, hi, p.splitAttrs)
	leaves := make([]Node, len(groups))
	for gi, g := range groups {
		leaf := Node{Tuples: make([]int, len(g)), Rep: representative(cols, g, &p.modes)}
		for j, r := range g {
			q := r
			if at != nil {
				q = lo + sort.SearchInts(at[lo:hi], r)
			}
			leaf.Tuples[j] = tuples[q]
		}
		leaves[gi] = leaf
	}
	return leaves
}

// insertedRepresentative extends an insert-only leaf's representative
// without rescanning the leaf — its first oldCount tuples are the prior
// membership, ins this patch's inserts: numeric columns take the
// count-weighted mean of the old mean and the inserted values; other
// (mode) columns keep the old value, which, like the merged internal
// representatives, is a steering approximation the fuzz harness holds
// to rebuilt-tree standards.
// The old mean is weighted by the survivor count, not the (unstored)
// non-NULL count, so columns with NULLs drift from an exact rescan —
// a steering-only bias, bounded by the fuzz harness's gap gates and
// erased whenever a deletion or split forces the exact refresh.
func insertedRepresentative(rows []schema.Row, oldRep schema.Row, oldCount int, ins []int) schema.Row {
	rep := make(schema.Row, len(oldRep))
	for c := range oldRep {
		ov := oldRep[c]
		if f, ok := ov.AsFloat(); ok && !ov.IsNull() {
			sum, cnt := f*float64(oldCount), oldCount
			numeric := true
			for _, j := range ins {
				v := rows[j][c]
				if v.IsNull() {
					continue
				}
				g, ok := v.AsFloat()
				if !ok {
					numeric = false
					break
				}
				sum += g
				cnt++
			}
			if numeric && cnt > 0 {
				rep[c] = value.Float(sum / float64(cnt))
				continue
			}
		}
		rep[c] = ov
	}
	return rep
}

// patchParents walks the internal levels bottom-up: dead children are
// dropped, split-born leaves adopted, and dirty nodes get their
// children's representatives merged, each weighted by its subtree size —
// the leaves' tuple counts folded up through Children. A changed node
// whose fanout passes its level's bound refuses the patch, naming the
// level and both numbers: the tree has degraded past its build-time
// shape, and only a full rebuild restores it.
func (p *patcher) patchParents() error {
	t := p.tree
	ll := t.Depth - 1
	size := make([]int, len(p.levels[ll])) // subtree sizes of the level below, by node
	for i := range size {
		size[i] = len(p.levels[ll][i].Tuples)
	}
	for l := ll - 1; l >= 0; l-- {
		up := make([]int, len(p.levels[l]))
		for pi := range p.levels[l] {
			node := &p.levels[l][pi]
			changed := false
			keep := make([]int, 0, len(node.Children))
			for _, ci := range node.Children {
				if p.dead[l+1][ci] {
					changed = true
					continue
				}
				if p.dirty[l+1][ci] {
					changed = true
				}
				keep = append(keep, ci)
			}
			if l == ll-1 {
				if add := p.newByParent[pi]; len(add) > 0 {
					keep = append(keep, add...)
					changed = true
				}
			}
			if len(keep) == 0 {
				p.dead[l][pi] = true
				continue
			}
			if changed && len(keep) > p.limit[l] {
				return fmt.Errorf("past its fanout bound at level %d (%d children > %d)", l, len(keep), p.limit[l])
			}
			for _, ci := range keep {
				up[pi] += size[ci]
			}
			if changed {
				p.dirty[l][pi] = true
				node.Rep = mergedRepresentative(p.levels[l+1], size, keep)
			}
			node.Children = keep
		}
		size = up
	}
	return nil
}

// compact drops tombstoned nodes, renumbers child references, and
// assembles the patched tree. ok is false when a whole level died.
func (p *patcher) compact() (*Tree, bool) {
	t := p.tree
	out := &Tree{Attrs: t.Attrs, Tau: t.Tau, Depth: t.Depth}
	out.Levels = make([][]Node, t.Depth)
	for l := t.Depth - 1; l >= 0; l-- {
		idxMap := make([]int, len(p.levels[l]))
		var nodes []Node
		for i := range p.levels[l] {
			if p.dead[l][i] {
				idxMap[i] = -1
				continue
			}
			idxMap[i] = len(nodes)
			nodes = append(nodes, p.levels[l][i])
		}
		if len(nodes) == 0 {
			return nil, false
		}
		out.Levels[l] = nodes
		if l > 0 {
			for pi := range p.levels[l-1] {
				kids := p.levels[l-1][pi].Children
				nk := make([]int, 0, len(kids))
				for _, ci := range kids {
					if idxMap[ci] >= 0 {
						nk = append(nk, idxMap[ci])
					}
				}
				p.levels[l-1][pi].Children = nk
			}
		}
	}
	return out, true
}

// mergedRepresentative folds child representatives into a parent's:
// numeric columns take the mean weighted by subtree size (size, by child
// index), others the size-weighted mode over child representatives. A
// cheaper stand-in for the exact union scan the offline build performs —
// the representative only steers the sketch, and the fuzz harness holds
// patched trees to the same gap standards as rebuilt ones.
func mergedRepresentative(children []Node, size, group []int) schema.Row {
	width := len(children[group[0]].Rep)
	rep := make(schema.Row, width)
	for c := 0; c < width; c++ {
		sum, cnt := 0.0, 0
		numeric := true
		for _, ci := range group {
			v := children[ci].Rep[c]
			if v.IsNull() {
				continue
			}
			f, ok := v.AsFloat()
			if !ok {
				numeric = false
				break
			}
			w := size[ci]
			sum += f * float64(w)
			cnt += w
		}
		if numeric && cnt > 0 {
			rep[c] = value.Float(sum / float64(cnt))
			continue
		}
		rep[c] = childModeValue(children, size, group, c)
	}
	return rep
}

// childModeValue picks the subtree-size-weighted most frequent child
// representative value, ties toward the SortLess-smallest. Values are
// told apart by identity (kind and payload), never by how they print:
// NULL and the string 'NULL' are two values.
func childModeValue(children []Node, size, group []int, c int) value.V {
	type tally struct {
		v value.V
		n int
	}
	// A node has a few dozen children at most, so a linear scan finds a
	// value's tally faster than a map would — and keeps the tallies in
	// first-seen order, so ties SortLess cannot order resolve the same
	// way every run.
	tallies := make([]tally, 0, len(group))
	for _, ci := range group {
		v := children[ci].Rep[c]
		ti := slices.IndexFunc(tallies, func(t tally) bool { return t.v.Identical(v) })
		if ti < 0 {
			ti = len(tallies)
			tallies = append(tallies, tally{v: v})
		}
		tallies[ti].n += size[ci]
	}
	var best value.V
	bestN := -1
	for _, t := range tallies {
		if t.n > bestN || (t.n == bestN && t.v.SortLess(best)) {
			best, bestN = t.v, t.n
		}
	}
	return best
}
