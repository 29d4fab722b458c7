package sketch

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bound"
	"repro/internal/lifecycle"
	"repro/internal/lp"
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

	orders *leafOrders // nil (a tree assembled by hand) keeps nothing; never persisted
}

// leafOrders is what a tree keeps of the queries run over it: per
// objective, each leaf's tuples stable-sorted best objective first — the
// order the bound pass cuts into segments. An objective weighs the same
// candidates alike on every query of a shape, whatever its constants, so
// the order is computed once per (tree, objective) — from the second
// time the objective is asked for on this tree (promote on reuse, as the
// candidate snapshot does): a tree patched away after one query, or an
// objective asked once, keeps nothing. Slots are lifecycle.Once, so
// concurrent queries sort once and a canceled sort is not kept. Shared by
// the tree and its flattened view; every order handed out is read-only.
type leafOrders struct {
	mu    sync.Mutex
	slots map[string]*lifecycle.Once[[][]int] // by objective key; nil: asked once, nothing kept
	sorts atomic.Int64
}

// Leaves returns the deepest level: the τ-bounded partitions.
func (t *Tree) Leaves() []Node { return t.Levels[t.Depth-1] }

// Sorts reports how many times the tree's leaves have been sorted by an
// objective, kept or not: a warm query over a tree that keeps its
// objective's order sorts nothing.
func (t *Tree) Sorts() int {
	if t.orders == nil {
		return 0
	}
	return int(t.orders.sorts.Load())
}

// leafOrder returns, per leaf, its tuples in objective order for the
// objective named key (weights objW, direction sense), from the tree's
// memo when it keeps that order. A sort polls ctx every search.PollRows
// tuples.
func (t *Tree) leafOrder(ctx context.Context, key string, objW []float64, sense lp.Sense) ([][]int, error) {
	sortLeaves := func() (*[][]int, error) {
		if t.orders != nil {
			t.orders.sorts.Add(1)
		}
		leaves := t.Leaves()
		n := 0
		for _, leaf := range leaves {
			n += len(leaf.Tuples)
		}
		flat := make([]int, 0, n) // one backing array; each leaf's order is a clipped window
		out := make([][]int, len(leaves))
		polled := -search.PollRows
		for g, leaf := range leaves {
			if len(flat)-polled >= search.PollRows {
				if err := lifecycle.ContextErr(ctx); err != nil {
					return nil, err
				}
				polled = len(flat)
			}
			a := len(flat)
			flat = append(flat, leaf.Tuples...)
			out[g] = flat[a:len(flat):len(flat)]
			bound.SortByObjective(out[g], objW, sense)
		}
		return &out, nil
	}
	var out *[][]int
	var err error
	if slot := t.orders.slot(key); slot != nil {
		out, err = slot.Get(ctx, sortLeaves)
	} else {
		out, err = sortLeaves()
	}
	if err != nil {
		return nil, err
	}
	return *out, nil
}

// slot returns the kept order of the objective named key, made at the
// key's second sight; at its first, or on a nil memo, it is nil: the
// caller sorts for itself and nothing is kept.
func (m *leafOrders) slot(key string) *lifecycle.Once[[][]int] {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	slot, seen := m.slots[key]
	if seen && slot == nil {
		slot = new(lifecycle.Once[[][]int])
	}
	if m.slots == nil {
		m.slots = map[string]*lifecycle.Once[[][]int]{}
	}
	m.slots[key] = slot
	return slot
}

// flatten returns the single-level view of the tree: the same leaf
// nodes (shared, not copied — a Tree is immutable) under depth 1, and the
// same kept orders. The infeasible-retry path uses it to fall back from
// hierarchical to flat without re-running the offline partitioning.
func (t *Tree) flatten() *Tree {
	return &Tree{Attrs: t.Attrs, Tau: t.Tau, Depth: 1, Levels: [][]Node{t.Leaves()}, Drift: t.Drift, orders: t.orders}
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
	t := &Tree{Attrs: partitionAttrs(inst), Tau: opts.tau(), Depth: 1, orders: new(leafOrders)}
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
