package sketch

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/expr"
	"repro/internal/lifecycle"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/value"
)

// leafNodes is the offline partitioner: it splits the n lowered
// candidates (cols; nil when the lowering was canceled) into groups of
// at most τ tuples by recursive median splits on attrs (the attribute
// with the widest normalized spread is split first) and returns one leaf
// Node per group — its tuples and a representative (the mean for
// numeric columns, the mode for categorical ones). The
// procedure is deterministic under a fixed seed and any
// Options.Parallelism: the workers only divide the splits and the
// per-leaf scans, never the outcome. When Options.Ctx is canceled
// mid-way there are no leaves at all.
func leafNodes(cols *search.Columns, n int, attrs []int, opts Options) []Node {
	w := opts.workers()
	var groups [][]int
	if n > 0 && cols != nil {
		s := &splitter{tau: opts.tau(), lim: newLimiter(w), stop: lifecycle.Poll(opts.Ctx)}
		groups = s.medianSplit(cols, 0, n, shuffledAttrs(attrs, opts.Seed))
	}
	if opts.stopped() {
		groups = nil
	}
	leaves := make([]Node, len(groups))
	modes := make([]modeScratch, max(w, 1))
	parallelForWorker(w, len(groups), func(wi, i int) {
		leaves[i] = Node{Tuples: groups[i], Rep: representative(cols, groups[i], &modes[wi])}
	})
	return leaves
}

// shuffledAttrs copies attrs in a seed-dependent order: the seed only
// affects the tie-break ordering used by the splitter, so equal-spread
// attributes split in a reproducible but seed-varied order.
func shuffledAttrs(attrs []int, seed int64) []int {
	out := append([]int(nil), attrs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) {
		out[i], out[j] = out[j], out[i]
	})
	return out
}

// medianSplit splits positions lo … hi-1 of cols into groups of at
// most s.tau elements by recursive median splits on attrs (the attribute
// with the widest normalized spread within the group is split first). The returned groups are each sorted ascending and appear in
// in-order traversal order. The partitioner uses it over the candidate
// tuples; the tree builder reuses it over the representative rows of a
// whole level.
//
// A split does not sort its group. The elements are (value, index)
// pairs under a strict total order, so the lower half is one fixed set
// however it is found: an in-place selection (selectSmallest) moves it
// to the front in O(n) per level where a sort pays O(n log n), and
// since every leaf is index-sorted on the way out, the partitioning is
// the one a full sort at every level would have produced. All levels
// share one pair buffer, allocated here.
//
// With a limiter (s.lim) the two halves of a split recurse concurrently
// (bounded by that semaphore, staying serial below plan.ParallelMinRows) —
// the halves operate on disjoint subslices and their group lists are
// concatenated in traversal order, so the result is identical at any
// worker count.
//
// s.stop, when non-nil, is the cooperative-cancellation poll, consulted
// at least once per pollRows rows of any pass: once it returns true the
// recursion unwinds immediately, returning each remaining group unsplit
// (and unsorted) as a single oversized leaf. The output is then
// structurally a partitioning but not THE partitioning — callers on the
// cancellation path discard it.
func (s *splitter) medianSplit(cols *search.Columns, lo, hi int, attrs []int) [][]int {
	s.attrs = make([][]float64, len(attrs))
	for ai, a := range attrs {
		s.attrs[ai] = cols.Cols[a].Num
	}
	g := make([]keyed, hi-lo)
	for j := range g {
		g[j].i = lo + j
	}
	return s.split(g)
}

// splitter is the state one medianSplit recursion shares; its caller
// sets tau, lim and stop.
type splitter struct {
	attrs [][]float64 // the split attributes' columns, in tie-break order
	tau   int
	lim   limiter
	stop  func() bool
}

func (s *splitter) stopped() bool { return s.stop != nil && s.stop() }

// indexes copies the group's candidate indexes out of the pair buffer.
func indexes(g []keyed) []int {
	out := make([]int, len(g))
	for j := range g {
		out[j] = g[j].i
	}
	return out
}

// split returns the subtree's groups in traversal order so concurrent
// halves merge deterministically.
func (s *splitter) split(g []keyed) [][]int {
	if s.stopped() {
		return [][]int{indexes(g)}
	}
	if len(g) <= s.tau {
		leaf := indexes(g)
		slices.Sort(leaf)
		return [][]int{leaf}
	}
	col, ok := s.widest(g)
	if !ok {
		return [][]int{indexes(g)}
	}
	if col == nil {
		// No attribute separates the group (all values equal): chop it
		// by index. This is the one place the order inside a group
		// shows, so put it in index order first.
		slices.SortFunc(g, func(a, b keyed) int { return a.i - b.i })
		var groups [][]int
		for lo := 0; lo < len(g); lo += s.tau {
			groups = append(groups, s.split(g[lo:min(lo+s.tau, len(g))])...)
		}
		return groups
	}
	for j := range g {
		g[j].v = col[g[j].i]
	}
	mid := len(g) / 2
	if !selectSmallest(g, mid, s.stop) {
		return [][]int{indexes(g)}
	}
	left, right := g[:mid], g[mid:]
	// Below the planner's serial cutoff forking a goroutine per subtree
	// costs more in scheduling than the split saves.
	if len(g) >= plan.ParallelMinRows && s.lim.tryAcquire() {
		var lg [][]int
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer s.lim.release()
			lg = s.split(left)
		}()
		rg := s.split(right)
		<-done
		return append(lg, rg...)
	}
	return append(s.split(left), s.split(right)...)
}

// widest picks the attribute column with the largest normalized spread
// within the group — one min/max pass per attribute — or nil when every
// attribute is constant. ok is false when stop fired mid-pass.
func (s *splitter) widest(g []keyed) (best []float64, ok bool) {
	bestSpread := 0.0
	for _, col := range s.attrs {
		lo, hi := col[g[0].i], col[g[0].i]
		for w := 0; w < len(g); w += pollRows {
			if w > 0 && s.stopped() {
				return nil, false
			}
			for _, e := range g[w:min(w+pollRows, len(g))] {
				v := col[e.i]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		scale := 1 + math.Abs(lo) + math.Abs(hi)
		if spread := (hi - lo) / scale; spread > bestSpread {
			bestSpread, best = spread, col
		}
	}
	return best, true
}

// partitionAttrs collects the numeric columns referenced by the query's
// aggregates (arguments and filters); when none are found it falls back
// to every numeric column.
func partitionAttrs(inst *search.Instance) []int {
	cols := map[int]bool{}
	collect := func(e expr.Expr) {
		if e == nil {
			return
		}
		expr.Walk(e, func(n expr.Expr) {
			if c, ok := n.(*expr.Col); ok && c.Idx >= 0 {
				cols[c.Idx] = true
			}
		})
	}
	for _, a := range inst.Analysis.Aggs {
		collect(a.Arg)
		collect(a.Filter)
	}
	var attrs []int
	for idx := range cols {
		if numericCol(inst.Rows, idx) {
			attrs = append(attrs, idx)
		}
	}
	if len(attrs) == 0 && len(inst.Rows) > 0 {
		for idx := range inst.Rows[0] {
			if numericCol(inst.Rows, idx) {
				attrs = append(attrs, idx)
			}
		}
	}
	sort.Ints(attrs)
	return attrs
}

// numericCol samples the column and reports whether it is numeric (at
// least one non-null value, and every sampled non-null value numeric).
func numericCol(rows []schema.Row, idx int) bool {
	seen := false
	for i, row := range rows {
		if i >= 64 {
			break
		}
		if idx >= len(row) || row[idx].IsNull() {
			continue
		}
		if !row[idx].IsNumeric() {
			return false
		}
		seen = true
	}
	return seen
}

// numAt reads a numeric cell, mapping NULL/non-numeric to 0 so sorts
// stay total.
func numAt(row schema.Row, idx int) float64 {
	if idx >= len(row) {
		return 0
	}
	f, ok := row[idx].AsFloat()
	if !ok {
		return 0
	}
	return f
}

// representative builds a group's representative tuple from the
// lowered columns: numeric columns take the group mean — summed in the
// group's ascending index order, so the float is the one a row-by-row
// scan yields — other columns the group mode (ties break toward the
// SortLess-smallest value, keeping the construction deterministic),
// counted in sc, the caller's scratch.
func representative(cols *search.Columns, g []int, sc *modeScratch) schema.Row {
	rep := make(schema.Row, len(cols.Cols))
	for c := range cols.Cols {
		col := &cols.Cols[c]
		if mean, ok := groupMean(col, g); ok {
			rep[c] = value.Float(mean)
			continue
		}
		if col.Codes == nil {
			continue // no non-NULL cell in the group: the mode is NULL
		}
		rep[c] = sc.mode(col, g)
	}
	return rep
}

// groupMean is the mean of the group's non-NULL cells; ok is false when
// there is none or one of them is not numeric.
func groupMean(col *search.Column, g []int) (mean float64, ok bool) {
	sum, cnt := 0.0, 0
	switch {
	case col.Codes != nil && !col.DictNumeric:
		return 0, false // a mean needs a numeric cell
	case col.Codes != nil:
		for _, i := range g {
			d := &col.Dict[col.Codes[i]]
			if d.IsNull() {
				continue
			}
			if !d.IsNumeric() {
				return 0, false
			}
			sum += col.Num[i]
			cnt++
		}
	case col.Null != nil:
		for _, i := range g {
			if !col.IsNull(i) {
				sum += col.Num[i]
				cnt++
			}
		}
	default:
		for _, i := range g {
			sum += col.Num[i]
		}
		cnt = len(g)
	}
	return sum / float64(cnt), cnt > 0
}

// modeScratch counts dictionary codes for one group at a time; the
// counter is as long as the largest dictionary seen and is left zeroed,
// so reuse costs nothing per group. A build keeps one per worker and
// drops them with its columns; the zero value is ready to use.
type modeScratch struct {
	counts []uint32
	seen   []uint32 // codes present in the group, in first-seen order
}

// mode returns the most frequent datum of a coded column across the
// group, preferring the SortLess-smallest on ties (and, between datums
// SortLess cannot order, the one the group meets first).
func (sc *modeScratch) mode(col *search.Column, g []int) value.V {
	if len(sc.counts) < len(col.Dict) {
		sc.counts = make([]uint32, len(col.Dict))
	}
	sc.seen = sc.seen[:0]
	for _, i := range g {
		code := col.Codes[i]
		if sc.counts[code] == 0 {
			sc.seen = append(sc.seen, code)
		}
		sc.counts[code]++
	}
	var best value.V
	bestN := uint32(0)
	for _, code := range sc.seen {
		n := sc.counts[code]
		sc.counts[code] = 0
		if v := &col.Dict[code]; n > bestN || (n == bestN && v.SortLess(best)) {
			best, bestN = *v, n
		}
	}
	return best
}
