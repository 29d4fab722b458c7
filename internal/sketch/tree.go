package sketch

import (
	"math"
	"slices"

	"repro/internal/lifecycle"
	"repro/internal/schema"
	"repro/internal/search"
)

// Node is one partition-tree node. A leaf holds a τ-bounded group of
// candidate tuples; an internal node groups nodes of the next deeper
// level. Every node covers the candidate tuples of its whole subtree
// and carries a representative over them (mean for numeric columns,
// mode otherwise), so a sketch MILP can run at any level of the tree.
//
// The leaves are the only place a tree holds per-tuple data: an internal
// node covers its leaves' tuples, and whatever a sketch level needs to
// know of them — sizes, pins, admissible supply, selector matches — is
// scanned at the leaves and folded up through Children (see nodeFacts).
type Node struct {
	Children []int      // indexes into the next-deeper level; nil for leaves
	Tuples   []int      // a leaf's candidate indexes, sorted ascending; nil above the leaves
	Rep      schema.Row // representative tuple over the covered tuples
}

// Tree is a hierarchical partitioning of the candidates (the PVLDB 2023
// follow-up's partition tree): Levels[0] holds the roots the top-level
// sketch MILP runs over, Levels[Depth-1] the τ-bounded leaves the final
// refine step resolves into real tuples. With P leaves and depth d the
// builder aims each level at roughly P^((ℓ+1)/d) nodes, so the top
// level stays around the d-th root of P however large the relation
// grows.
//
// A Tree is immutable after BuildTree; the partition cache shares one
// tree across concurrent evaluations.
type Tree struct {
	Attrs  []int    // column ordinals the splitter used
	Tau    int      // leaf size bound
	Depth  int      // number of levels (== len(Levels)); 1 = flat
	Levels [][]Node // Levels[0] = roots … Levels[Depth-1] = leaves
	// Drift counts the tuples inserted plus deleted since the tree's last
	// full build: 0 for a built tree, the patches' deltas summed for one
	// that came out of ApplyDelta, which refuses a patch that would take
	// it past plan.PatchMaxFrac of the candidates. Patched trees (Drift >
	// 0) are approximations (merged internal representatives,
	// nearest-leaf insert routing); Solve reads the drift — which survives
	// caching and persistence — to rebuild from scratch before ever
	// declaring a query infeasible on one.
	Drift int
}

// Leaves returns the deepest level: the τ-bounded partitions.
func (t *Tree) Leaves() []Node { return t.Levels[t.Depth-1] }

// flatten returns the single-level view of the tree: the same leaf
// nodes (shared, not copied — a Tree is immutable) under depth 1. The
// infeasible-retry path uses it to fall back from
// hierarchical to flat without re-running the offline partitioning.
func (t *Tree) flatten() *Tree {
	return &Tree{Attrs: t.Attrs, Tau: t.Tau, Depth: 1, Levels: [][]Node{t.Leaves()}, Drift: t.Drift}
}

// BuildTree partitions the candidates into τ-bounded leaves and stacks
// up to depth-1 grouping levels on top. Each grouping step runs the
// same median splitter over the child representatives with a fanout of
// ceil(P^(1/depth)), shrinking the node count by that factor per level;
// building stops early once another level could not shrink the top.
//
// Every per-row loop of the build — split selection, representatives
// — is a pass over the candidates' columns: the table's image, read by
// tuple id, for an instance prepared from a table (Instance.Lowered),
// else a lowering of the candidates made up front and dropped when the
// build returns.
//
// When Options.Ctx is canceled mid-build the function returns early
// with whatever levels are complete so far (none, if the leaves were
// not); such a tree is incomplete and every caller on the cancellation
// path (solver.buildFresh) discards it before it can reach a cache tier.
func BuildTree(inst *search.Instance, opts Options) *Tree {
	cols, at := inst.Lowered(opts.Ctx)
	t := &Tree{Attrs: partitionAttrs(inst), Tau: opts.tau(), Depth: 1}
	leaves, covered := leafNodes(cols, at, len(inst.Rows), t.Attrs, opts)
	t.Levels = [][]Node{leaves}
	depth := opts.depth()
	if depth <= 1 || len(leaves) == 0 || opts.stopped() {
		return t
	}
	// The median splitter halves groups until they fit the bound, so
	// group sizes land in (bound/2, bound] and the group count can
	// overshoot the ideal by up to 2×. Doubling the bound keeps every
	// level at or below its P^((ℓ+1)/depth) target.
	fanout := 2 * int(math.Ceil(math.Pow(float64(len(leaves)), 1/float64(depth))))
	if fanout < 2 {
		fanout = 2
	}
	for t.Depth < depth && len(t.Levels[0]) > fanout && !opts.stopped() {
		parents, unions := groupLevel(cols, t.Levels[0], covered, t.Attrs, fanout, opts)
		if parents == nil {
			break // canceled mid-level
		}
		t.Levels = append([][]Node{parents}, t.Levels...)
		t.Depth++
		covered = unions
	}
	return t
}

// groupLevel builds one level of internal nodes over children, whose
// covered tuples are the rows covered[ci] of cols: the children's
// representatives are median-split into groups of at most fanout, and
// each group becomes a parent whose representative is recomputed over
// the sorted union of its children's covered tuples (a tuple-weighted mean, more faithful
// than averaging child representatives). A parent keeps only its
// children; the unions are returned beside the parents for the level
// above and are scratch, dropped with the build. Parents are
// independent, so their unions and representatives are computed across
// workers. cols are the candidates' columns; nil is returned when the
// build was canceled.
func groupLevel(cols *search.Columns, children []Node, covered [][]int, attrs []int, fanout int, opts Options) ([]Node, [][]int) {
	repRows := make([]schema.Row, len(children))
	for i := range children {
		repRows[i] = children[i].Rep
	}
	stop := lifecycle.Poll(opts.Ctx)
	repCols := search.Lower(repRows, nil, stop)
	if repCols == nil {
		return nil, nil
	}
	workers := opts.workers()
	split := &splitter{tau: fanout, lim: newLimiter(workers), stop: stop}
	groups := split.medianSplit(repCols, nil, 0, len(children), shuffledAttrs(attrs, opts.Seed))
	if opts.stopped() {
		return nil, nil
	}
	parents := make([]Node, len(groups))
	unions := make([][]int, len(groups))
	modes := make([]modeScratch, max(workers, 1))
	parallelForWorker(workers, len(groups), func(w, pi int) {
		unions[pi] = mergeChildTuples(covered, groups[pi])
		parents[pi] = Node{Children: groups[pi], Rep: representative(cols, unions[pi], &modes[w])}
	})
	return parents, unions
}

// mergeChildTuples unions the (sorted, disjoint) covered tuple lists of
// a group's children into one sorted list.
func mergeChildTuples(covered [][]int, group []int) []int {
	total := 0
	for _, ci := range group {
		total += len(covered[ci])
	}
	out := make([]int, 0, total)
	for _, ci := range group {
		out = append(out, covered[ci]...)
	}
	slices.Sort(out)
	return out
}
