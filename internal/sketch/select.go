package sketch

import (
	"math/bits"
	"slices"

	"repro/internal/search"
)

// keyed is one element of a median split: a candidate's index and its
// value in the attribute being split.
type keyed struct {
	v float64
	i int
}

// keyedLess is the splitter's strict total order: by value, ties on the
// (unique) index.
func keyedLess(a, b keyed) bool {
	return a.v < b.v || (a.v == b.v && a.i < b.i)
}

func keyedCompare(a, b keyed) int {
	switch {
	case keyedLess(a, b):
		return -1
	case keyedLess(b, a):
		return 1
	}
	return 0
}

// pollRows is the most rows a build loop handles between two polls of
// the cooperative-cancellation hook — the lowering's cadence.
const pollRows = search.PollRows

// selectSmallest permutes g so that g[:k] holds its k smallest elements
// under keyedLess, in no particular order: an introselect — quickselect
// narrowing on the side that contains position k, with a sort of the
// remaining window as the fallback once the pivots have been bad for
// 2·log₂(n) rounds — so a split costs O(n) instead of a sort's
// O(n log n). It reports false when stop fired; g is then still a
// permutation of its input but not partitioned.
func selectSmallest(g []keyed, k int, stop func() bool) bool {
	lo, hi := 0, len(g) // g[:lo] < g[lo:hi] < g[hi:], lo <= k <= hi
	for rounds := 2 * bits.Len(uint(len(g))); lo < k && k < hi; rounds-- {
		if hi-lo <= 12 || rounds == 0 {
			slices.SortFunc(g[lo:hi], keyedCompare)
			return true
		}
		p, ok := pivotPass(g[lo:hi], stop)
		if !ok {
			return false
		}
		if p += lo; p < k {
			lo = p + 1
		} else {
			hi = p
		}
	}
	return true
}

// pivotPass picks a pivot (the median of three; of three such medians
// on long windows), moves the smaller elements in front of it, and
// returns its final position. The scan is a branch-light Lomuto pass in
// runs of pollRows, with stop polled between runs.
func pivotPass(g []keyed, stop func() bool) (int, bool) {
	last := len(g) - 1
	m := last / 2
	if len(g) > 128 {
		s := len(g) / 8
		medianOfThree(g, s, 0, 2*s)
		medianOfThree(g, m, m-s, m+s)
		medianOfThree(g, last-s, last-2*s, last)
		medianOfThree(g, m, s, last-s)
	} else {
		medianOfThree(g, m, 0, last)
	}
	g[m], g[last] = g[last], g[m]
	pivot := g[last]
	store := 0
	for lo := 0; lo < last; lo += pollRows {
		if lo > 0 && stop != nil && stop() {
			return 0, false
		}
		for j := lo; j < min(lo+pollRows, last); j++ {
			x := g[j]
			g[j] = g[store]
			g[store] = x
			// keyedLess(x, pivot), shaped so that the value comparison — a
			// coin toss on shuffled data — compiles to a flag, not a branch.
			smaller := 0
			if x.v < pivot.v {
				smaller = 1
			}
			if x.v == pivot.v && x.i < pivot.i {
				smaller = 1
			}
			store += smaller
		}
	}
	g[store], g[last] = g[last], g[store]
	return store, true
}

// medianOfThree leaves the median of g[a], g[b], g[c] at g[a].
func medianOfThree(g []keyed, a, b, c int) {
	if keyedLess(g[c], g[b]) {
		b, c = c, b
	}
	switch {
	case keyedLess(g[a], g[b]):
		g[a], g[b] = g[b], g[a]
	case keyedLess(g[c], g[a]):
		g[a], g[c] = g[c], g[a]
	}
}
