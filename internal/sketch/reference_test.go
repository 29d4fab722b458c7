package sketch

import (
	"bufio"
	"bytes"
	"math"
	"sort"

	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/value"
)

// The reference builder: the row-at-a-time partition-tree build the
// columnar one replaced — a full sort.Slice at every split, cells read
// through value.V — kept as the oracle BuildTree must equal node for
// node and byte for byte (TestBuildTreeMatchesReference). It differs
// from the retired code in one line: the mode tells values apart by
// their key encoding, not by how they print.

// ReferenceBuildTree is BuildTree as the row-at-a-time builder built
// it, serially.
func ReferenceBuildTree(inst *search.Instance, opts Options) *Tree {
	n := len(inst.Rows)
	t := &Tree{Attrs: partitionAttrs(inst), Tau: opts.tau(), Depth: 1, orders: new(leafOrders)}
	var groups [][]int
	if n > 0 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		groups = refSplitRec(inst.Rows, all, shuffledAttrs(t.Attrs, opts.Seed), t.Tau)
	}
	leaves := make([]Node, len(groups))
	for i, g := range groups {
		leaves[i] = Node{Tuples: g, Rep: refRepresentative(inst.Rows, g)}
		leaves[i].Lo, leaves[i].Hi, leaves[i].NonNull = refEnvelope(inst.Rows, g, t.Attrs)
	}
	t.Levels = [][]Node{leaves}
	depth := opts.depth()
	if depth <= 1 || len(leaves) == 0 {
		return t
	}
	fanout := 2 * int(math.Ceil(math.Pow(float64(len(leaves)), 1/float64(depth))))
	if fanout < 2 {
		fanout = 2
	}
	for t.Depth < depth && len(t.Levels[0]) > fanout {
		children := t.Levels[0]
		repRows := make([]schema.Row, len(children))
		all := make([]int, len(children))
		for i := range children {
			repRows[i] = children[i].Rep
			all[i] = i
		}
		groups := refSplitRec(repRows, all, shuffledAttrs(t.Attrs, opts.Seed), fanout)
		parents := make([]Node, len(groups))
		for pi, g := range groups {
			var tuples []int
			for _, ci := range g {
				tuples = append(tuples, children[ci].Tuples...)
			}
			sort.Ints(tuples)
			parents[pi] = Node{Children: g, Tuples: tuples, Rep: refRepresentative(inst.Rows, tuples)}
			parents[pi].Lo, parents[pi].Hi, parents[pi].NonNull = mergeEnvelopes(children, g, len(t.Attrs))
		}
		t.Levels = append([][]Node{parents}, t.Levels...)
		t.Depth++
	}
	return t
}

func refSplitRec(rows []schema.Row, g []int, attrs []int, tau int) [][]int {
	if len(g) <= tau {
		gg := append([]int(nil), g...)
		sort.Ints(gg)
		return [][]int{gg}
	}
	a := refWidestAttr(rows, g, attrs)
	if a < 0 {
		var groups [][]int
		for s := 0; s < len(g); s += tau {
			e := min(s+tau, len(g))
			groups = append(groups, refSplitRec(rows, g[s:e], attrs, tau)...)
		}
		return groups
	}
	sort.Slice(g, func(i, j int) bool {
		vi, vj := numAt(rows[g[i]], a), numAt(rows[g[j]], a)
		if vi != vj {
			return vi < vj
		}
		return g[i] < g[j]
	})
	mid := len(g) / 2
	return append(refSplitRec(rows, g[:mid], attrs, tau), refSplitRec(rows, g[mid:], attrs, tau)...)
}

func refWidestAttr(rows []schema.Row, g []int, attrs []int) int {
	best, bestSpread := -1, 0.0
	for _, a := range attrs {
		lo, hi := numAt(rows[g[0]], a), numAt(rows[g[0]], a)
		for _, i := range g[1:] {
			v := numAt(rows[i], a)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		scale := 1 + math.Abs(lo) + math.Abs(hi)
		if spread := (hi - lo) / scale; spread > bestSpread {
			bestSpread, best = spread, a
		}
	}
	return best
}

func refRepresentative(rows []schema.Row, g []int) schema.Row {
	width := len(rows[g[0]])
	rep := make(schema.Row, width)
	for c := 0; c < width; c++ {
		sum, cnt := 0.0, 0
		numeric := true
		for _, i := range g {
			v := rows[i][c]
			if v.IsNull() {
				continue
			}
			f, ok := v.AsFloat()
			if !ok {
				numeric = false
				break
			}
			sum += f
			cnt++
		}
		if numeric && cnt > 0 {
			rep[c] = value.Float(sum / float64(cnt))
			continue
		}
		rep[c] = refModeValue(rows, g, c)
	}
	return rep
}

func refModeValue(rows []schema.Row, g []int, c int) value.V {
	counts := map[string]int{}
	byKey := map[string]value.V{}
	var order []string // first-seen, so unordered ties do not hang on map order
	for _, i := range g {
		v := rows[i][c]
		k := string(v.EncodeKey(nil)) // the retired builder keyed on v.String()
		if _, ok := counts[k]; !ok {
			order = append(order, k)
		}
		counts[k]++
		byKey[k] = v
	}
	var best value.V
	bestN := -1
	for _, k := range order {
		v, n := byKey[k], counts[k]
		if n > bestN || (n == bestN && v.SortLess(best)) {
			best, bestN = v, n
		}
	}
	return best
}

func refEnvelope(rows []schema.Row, tuples, attrs []int) (lo, hi []float64, nonNull []int) {
	lo = make([]float64, len(attrs))
	hi = make([]float64, len(attrs))
	nonNull = make([]int, len(attrs))
	for ai, a := range attrs {
		for _, i := range tuples {
			if a >= len(rows[i]) || rows[i][a].IsNull() {
				continue
			}
			v, _ := rows[i][a].AsFloat()
			if nonNull[ai] == 0 || v < lo[ai] {
				lo[ai] = v
			}
			if nonNull[ai] == 0 || v > hi[ai] {
				hi[ai] = v
			}
			nonNull[ai]++
		}
	}
	return lo, hi, nonNull
}

// rowScales is the distance scales as the patcher and the greedy
// fallbacks read them until the pass store did: each attribute's spread
// across all rows through numAt's lens (1 for constant columns), one boxed
// min/max pass per attribute — the oracle (*translate.Passes).Spread must
// equal bit for bit (TestSpreadIsRowScales).
func rowScales(rows []schema.Row, attrs []int) []float64 {
	scales := make([]float64, len(attrs))
	for ai, a := range attrs {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, row := range rows {
			v := numAt(row, a)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		scales[ai] = 1
		if hi > lo {
			scales[ai] = hi - lo
		}
	}
	return scales
}

// EncodeTreeForTest returns the persisted payload Store.Save streams
// for the tree (everything before the trailing checksum).
func EncodeTreeForTest(k Key, t *Tree) []byte {
	var buf bytes.Buffer
	enc := &treeEncoder{w: bufio.NewWriter(&buf)}
	enc.encode(k, t)
	if err := enc.flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// PartitionAttrsForTest exposes the split-attribute choice.
func PartitionAttrsForTest(inst *search.Instance) []int { return partitionAttrs(inst) }

// ChildModeValueForTest exposes the patched-tree mode over child
// representatives.
func ChildModeValueForTest(children []Node, group []int, c int) value.V {
	return childModeValue(children, group, c)
}
