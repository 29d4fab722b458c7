package sketch

import (
	"bufio"
	"bytes"
	"math"
	"slices"
	"sort"

	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/translate"
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
	t := &Tree{Attrs: partitionAttrs(inst), Tau: opts.tau(), Depth: 1}
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
	covered := groups // the top level's covered tuples, per node
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
		unions := make([][]int, len(groups))
		for pi, g := range groups {
			for _, ci := range g {
				unions[pi] = append(unions[pi], covered[ci]...)
			}
			sort.Ints(unions[pi])
			parents[pi] = Node{Children: g, Rep: refRepresentative(inst.Rows, unions[pi])}
		}
		t.Levels = append([][]Node{parents}, t.Levels...)
		t.Depth++
		covered = unions
	}
	return t
}

// CoveredTuples gathers, per level and node, the candidate tuples the
// node covers from its leaves, sorted ascending: the per-node tuple
// lists the tree keeps only at its leaves, for the tests that scan them.
func CoveredTuples(t *Tree) [][][]int {
	out := make([][][]int, t.Depth)
	leaves := t.Leaves()
	out[t.Depth-1] = make([][]int, len(leaves))
	for g := range leaves {
		out[t.Depth-1][g] = slices.Clone(leaves[g].Tuples)
	}
	for l := t.Depth - 2; l >= 0; l-- {
		out[l] = make([][]int, len(t.Levels[l]))
		for g, n := range t.Levels[l] {
			for _, c := range n.Children {
				out[l][g] = append(out[l][g], out[l+1][c]...)
			}
			slices.Sort(out[l][g])
		}
	}
	return out
}

// refLevel is what the descent read of one level's nodes when every node
// kept its covered tuples — a scan of them per node: the size, the pinned
// and admissible counts, each selector's node weight (every covered tuple
// selected for an elimination, some for an at-least-one) and each
// exclusion cut's mean weight. The oracle the folded facts must equal at
// every level (TestFoldedFactsMatchTheScan).
type refLevel struct {
	size, pins, adm []int
	sel             map[int][]float64
	ex              [][]float64
}

// refLevelFacts scans covered, one node's covered tuples per entry.
func (s *solver) refLevelFacts(ba *branchAtoms, covered [][]int) refLevel {
	r := refLevel{size: make([]int, len(covered)), sel: map[int][]float64{}, ex: make([][]float64, len(s.exAtoms))}
	if len(s.pins) > 0 {
		r.pins = make([]int, len(covered))
	}
	if ba.eliminated != nil {
		r.adm = make([]int, len(covered))
	}
	for k := range ba.sels {
		r.sel[k] = make([]float64, len(covered))
	}
	for k := range r.ex {
		r.ex[k] = make([]float64, len(covered))
	}
	for g, tuples := range covered {
		r.size[g] = len(tuples)
		for _, i := range tuples {
			if r.pins != nil && s.pins[i] {
				r.pins[g]++
			}
			if r.adm != nil && !ba.eliminated[i] {
				r.adm[g]++
			}
		}
		for k, sel := range ba.sels {
			every, some := true, false
			for _, i := range tuples {
				hit := sel.Present[i] && sel.Match(sel.Vals[i])
				every, some = every && hit, some || hit
			}
			if (sel.Kind == translate.SketchElim && every) || (sel.Kind == translate.SketchAtLeast && some) {
				r.sel[k][g] = 1
			}
		}
		for k, ex := range s.exAtoms {
			sum := 0.0
			for _, i := range tuples {
				sum += ex.W[i]
			}
			r.ex[k][g] = sum / float64(len(tuples))
		}
	}
	return r
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
// representatives, each weighted by its subtree size.
func ChildModeValueForTest(children []Node, size, group []int, c int) value.V {
	return childModeValue(children, size, group, c)
}
