package bound_test

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bound"
	"repro/internal/lp"
)

// splitGroupsOracle is SplitGroups as it was before segmentation was split
// from ordering: filter each group, stable-sort what is kept, copy every
// chunk out.
func splitGroupsOracle(groups []bound.Group, objW []float64, sense lp.Sense, maxVars int, tupleLo, tupleHi func(int) float64) []bound.Group {
	if len(groups) == 0 || maxVars <= len(groups) {
		return groups
	}
	segs := min(maxVars/len(groups), 32)
	if segs < 2 {
		return groups
	}
	var out []bound.Group
	for _, g := range groups {
		var kept []int
		for _, t := range g.Tuples {
			if tupleHi(t) > 0 || tupleLo(t) > 0 {
				kept = append(kept, t)
			}
		}
		if len(kept) == 0 {
			if g.Lo > 0 {
				out = append(out, bound.Group{Tuples: g.Tuples, Lo: g.Lo, Hi: 0})
			}
			continue
		}
		slices.SortStableFunc(kept, func(a, b int) int {
			if sense == lp.Maximize {
				a, b = b, a
			}
			return cmp.Compare(objW[a], objW[b])
		})
		parts := min(segs, len(kept))
		for s := 0; s < parts; s++ {
			seg := bound.Group{Tuples: slices.Clone(kept[s*len(kept)/parts : (s+1)*len(kept)/parts])}
			for _, t := range seg.Tuples {
				seg.Lo += tupleLo(t)
				seg.Hi += tupleHi(t)
			}
			out = append(out, seg)
		}
	}
	return out
}

func cloneGroups(groups []bound.Group) []bound.Group {
	out := slices.Clone(groups)
	for i := range out {
		out[i].Tuples = slices.Clone(out[i].Tuples)
	}
	return out
}

// sameGroups compares two groupings tuple for tuple and bound for bound,
// floats by their bits. A contradiction marker (Lo > Hi: pinned tuples in a
// fully eliminated group) is compared as a set: its tuples are never read.
func sameGroups(a, b []bound.Group) bool {
	return slices.EqualFunc(a, b, func(x, y bound.Group) bool {
		if math.Float64bits(x.Lo) != math.Float64bits(y.Lo) || math.Float64bits(x.Hi) != math.Float64bits(y.Hi) {
			return false
		}
		if x.Lo > x.Hi {
			return slices.Equal(slices.Sorted(slices.Values(x.Tuples)), slices.Sorted(slices.Values(y.Tuples)))
		}
		return slices.Equal(x.Tuples, y.Tuples)
	})
}

// TestSegmentOfOrderedGroupsIsSplitGroups is the property the engine's
// kept orders rest on: over random groupings whose objective ties heavily,
// with random elimination masks, pins and multiplicity caps, segmenting
// groups already in objective order (what a tree keeps) is SplitGroups —
// and both are what SplitGroups answered before the split — while neither
// touches its input and every segment is a clipped window, never a copy.
func TestSegmentOfOrderedGroupsIsSplitGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	split := 0
	for c := 0; c < 2000; c++ {
		n := 1 + rng.Intn(300)
		objW := make([]float64, n)
		levels := 1 + rng.Intn(4) // few distinct values: heavy ties
		for i := range objW {
			objW[i] = float64(rng.Intn(levels)) - 1
		}
		sense := lp.Maximize
		if rng.Intn(2) == 0 {
			sense = lp.Minimize
		}
		pins, eliminated := map[int]bool{}, make([]bool, n)
		dropRate := []float64{0, 0.1, 0.6, 1}[rng.Intn(4)]
		for i := range eliminated {
			eliminated[i] = rng.Float64() < dropRate
			pins[i] = rng.Intn(40) == 0
		}
		maxMult := rng.Intn(3) // 0: uncapped
		tupleLo := func(i int) float64 {
			if pins[i] {
				return 1
			}
			return 0
		}
		tupleHi := func(i int) float64 {
			switch {
			case eliminated[i]:
				return 0
			case maxMult > 0:
				return float64(maxMult)
			}
			return lp.Inf
		}
		k := 1 + rng.Intn(min(n, 40))
		groups := make([]bound.Group, k)
		for i, tup := range rng.Perm(n) {
			g := &groups[i%k]
			g.Tuples = append(g.Tuples, tup)
			g.Lo += tupleLo(tup)
		}
		maxVars := rng.Intn(4*n + 2)
		input := cloneGroups(groups)

		got := bound.SplitGroups(groups, objW, sense, maxVars, tupleLo, tupleHi)
		if !sameGroups(groups, input) {
			t.Fatalf("case %d: SplitGroups mutated its input", c)
		}
		if !bound.Splits(len(groups), maxVars) {
			if len(got) != len(groups) || (len(got) > 0 && &got[0] != &groups[0]) {
				t.Fatalf("case %d: a grouping Splits rejects came back changed", c)
			}
			continue
		}
		split++
		ordered := cloneGroups(groups)
		for i := range ordered {
			bound.SortByObjective(ordered[i].Tuples, objW, sense)
		}
		before := cloneGroups(ordered)
		segs := bound.Segment(ordered, maxVars, tupleLo, tupleHi)
		if !sameGroups(ordered, before) {
			t.Fatalf("case %d: Segment mutated its input", c)
		}
		if !sameGroups(got, segs) {
			t.Fatalf("case %d: SplitGroups and Segment over ordered groups differ:\n%v\n%v", c, got, segs)
		}
		if want := splitGroupsOracle(input, objW, sense, maxVars, tupleLo, tupleHi); !sameGroups(got, want) {
			t.Fatalf("case %d: SplitGroups differs from the pre-split implementation:\n%v\n%v", c, got, want)
		}
		for _, s := range segs {
			if cap(s.Tuples) != len(s.Tuples) {
				t.Fatalf("case %d: a segment has room past its end (len %d, cap %d)", c, len(s.Tuples), cap(s.Tuples))
			}
		}
	}
	if split < 1000 {
		t.Fatalf("only %d of 2000 cases split: the generator misses the property", split)
	}
}

// TestSegmentCutsInPlace: a group that drops no tuple is cut into windows
// of its own slice; one that drops some is cut from a filtered copy, and
// its own slice is left as it was.
func TestSegmentCutsInPlace(t *testing.T) {
	whole, partial := []int{0, 1, 2, 3, 4, 5}, []int{6, 7, 8, 9}
	hi := func(i int) float64 {
		if i == 7 {
			return 0
		}
		return 1
	}
	segs := bound.Segment([]bound.Group{{Tuples: whole}, {Tuples: partial}}, 6, nil, hi)
	if len(segs) != 6 {
		t.Fatalf("got %d segments, want 3 per group", len(segs))
	}
	for s, at := range []int{0, 2, 4} {
		if &segs[s].Tuples[0] != &whole[at] || len(segs[s].Tuples) != 2 {
			t.Errorf("segment %d of the whole group is not its window [%d, %d)", s, at, at+2)
		}
	}
	for _, seg := range segs[3:] {
		if &seg.Tuples[0] == &partial[0] || &seg.Tuples[0] == &partial[2] || &seg.Tuples[0] == &partial[3] {
			t.Errorf("a segment of the filtered group points into its input: %v", seg.Tuples)
		}
	}
	if got := slices.Concat(segs[3].Tuples, segs[4].Tuples, segs[5].Tuples); !slices.Equal(got, []int{6, 8, 9}) || !slices.Equal(partial, []int{6, 7, 8, 9}) {
		t.Errorf("filtered group: segments %v, input now %v", got, partial)
	}
}
