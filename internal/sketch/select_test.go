package sketch

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/search"
)

// TestSelectSmallestProperty: for random inputs with heavy duplicates,
// selection leaves exactly the k smallest (value, index) pairs in front
// — the set a full sort under the same order puts there.
func TestSelectSmallestProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(400)
		if trial%100 == 0 {
			n = 5000 + rng.Intn(20000)
		}
		distinct := 1 + rng.Intn(1+rng.Intn(n)) // from all-equal to nearly all distinct
		g := make([]keyed, n)
		for j, i := range rng.Perm(n) {
			g[j] = keyed{v: float64(rng.Intn(distinct)), i: i}
		}
		switch trial % 7 { // shapes that defeat naive pivots
		case 1:
			slices.SortFunc(g, keyedCompare)
		case 2:
			slices.SortFunc(g, func(a, b keyed) int { return keyedCompare(b, a) })
		}
		k := rng.Intn(n + 1)
		want := slices.Clone(g)
		slices.SortFunc(want, keyedCompare)
		if !selectSmallest(g, k, nil) {
			t.Fatal("selection stopped without a stop hook")
		}
		front := slices.Clone(g[:k])
		slices.SortFunc(front, keyedCompare)
		if !slices.Equal(front, want[:k]) {
			t.Fatalf("trial %d (n=%d k=%d distinct=%d): front is not the k smallest", trial, n, k, distinct)
		}
		back := slices.Clone(g[k:])
		slices.SortFunc(back, keyedCompare)
		if !slices.Equal(back, want[k:]) {
			t.Fatalf("trial %d (n=%d k=%d): selection lost or duplicated elements", trial, n, k)
		}
	}
}

// TestSelectSmallestPollsStop: a pass over m pairs polls the hook
// between runs of pollRows, so one full pass polls ⌈m/pollRows⌉-1
// times; a hook that fires stops the selection with the slice still a
// permutation of its input.
func TestSelectSmallestPollsStop(t *testing.T) {
	const n = 200_000
	fresh := func() []keyed {
		g := make([]keyed, n)
		for j := range g {
			g[j] = keyed{v: float64(j % 1000), i: j}
		}
		return g
	}
	polls := 0
	g := fresh()
	if _, ok := pivotPass(g, func() bool { polls++; return false }); !ok {
		t.Fatal("pass stopped although the hook never fired")
	}
	if want := (n-1+pollRows-1)/pollRows - 1; polls != want {
		t.Fatalf("one pass over %d pairs polled %d times, want %d (a poll every %d rows)", n, polls, want, pollRows)
	}
	for _, fireAt := range []int{1, 2, 7, 20} {
		polls = 0
		g = fresh()
		if selectSmallest(g, n/2, func() bool { polls++; return polls >= fireAt }) {
			t.Fatalf("selection ran to the end although the hook fired at poll %d", fireAt)
		}
		if polls != fireAt {
			t.Fatalf("selection polled %d times after the hook fired at poll %d", polls, fireAt)
		}
		seen := make([]bool, n)
		for _, e := range g {
			if seen[e.i] || e.v != float64(e.i%1000) {
				t.Fatalf("stopped selection left a corrupt slice at index %d", e.i)
			}
			seen[e.i] = true
		}
	}
}

// TestWidestPollsStop: the min/max pass polls between runs of pollRows
// on every attribute, and gives up when the hook fires.
func TestWidestPollsStop(t *testing.T) {
	const n = 200_000
	a, b := make([]float64, n), make([]float64, n)
	g := make([]keyed, n)
	for j := range g {
		a[j], b[j], g[j].i = float64(j%977), float64(j%31), j
	}
	polls := 0
	s := &splitter{attrs: [][]float64{a, b}, tau: 64, stop: func() bool { polls++; return false }}
	if col, ok := s.widest(g); !ok || &col[0] != &a[0] {
		t.Fatal("widest did not pick the attribute with the larger normalized spread")
	}
	if want := 2 * ((n+pollRows-1)/pollRows - 1); polls != want {
		t.Fatalf("min/max pass over %d rows × 2 attributes polled %d times, want %d", n, polls, want)
	}
	polls = 0
	s.stop = func() bool { polls++; return polls == 30 }
	if _, ok := s.widest(g); ok || polls != 30 {
		t.Fatalf("widest returned ok=%v after %d polls; want it to stop at poll 30", ok, polls)
	}
}

// BenchmarkMedianSplit is one split of 50,000 candidates: the min/max
// pass over both attributes, the gather of the wider one, and the
// selection of the lower half.
func BenchmarkMedianSplit(b *testing.B) {
	rows := dataset.Recipes(dataset.RecipesConfig{N: 50_000, Seed: 42})
	cols := search.Lower(rows, nil, nil)
	s := &splitter{attrs: [][]float64{cols.Cols[5].Num, cols.Cols[6].Num}, tau: 64} // calories, protein
	g := make([]keyed, len(rows))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for j := range g {
			g[j].i = j
		}
		col, _ := s.widest(g)
		for j := range g {
			g[j].v = col[g[j].i]
		}
		if !selectSmallest(g, len(g)/2, nil) {
			b.Fatal("stopped")
		}
	}
	b.ReportMetric(float64(len(g))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
