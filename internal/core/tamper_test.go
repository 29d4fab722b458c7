package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minidb"
	"repro/internal/sketch"
)

// TestTamperedStoreIsARebuild hand-alters each index-bearing field of a
// persisted partition tree — a leaf tuple past the candidates, a leaf
// tuple listed twice, a child index out of range, a node with two
// parents, a node with none, τ = 0, split attributes naming another
// column — saves it under the query's key with a valid checksum, and
// runs a MIN/MAX query from a cold start on the store. Each must answer
// as the untampered store does, with the store's "unusable … rebuilding"
// note, never an internal error.
func TestTamperedStoreIsARebuild(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 6000, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	const query = `SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 AND MIN(P.protein) >= 12 AND SUM(P.calories) BETWEEN 1800 AND 2400
		MAXIMIZE SUM(P.protein)`
	dir := t.TempDir()
	opts := Options{Strategy: SketchRefineStrategy, Seed: 1, SketchPartitionSize: 16, SketchDepth: 2, SketchPersistDir: dir}
	// A fresh Prepared per run: no in-memory tree, only the store.
	run := func() (*Result, *Prepared) {
		t.Helper()
		prep, err := Prepare(db, query)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prep.Run(opts)
		if err != nil {
			t.Fatalf("query over the store: %v", err)
		}
		return res, prep
	}
	want, prep := run()
	if len(want.Packages) == 0 {
		t.Fatalf("the query has no package: %v", want.Stats.Notes)
	}
	if again, _ := run(); !again.Stats.Sketch.TreeLoaded {
		t.Fatalf("a cold start does not load the untampered tree: %v", again.Stats.Notes)
	}
	key := sketch.KeyFor(prep.Instance, sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 1})
	store := sketch.NewStore(dir)
	base, err := store.Load(key)
	if err != nil || base == nil || base.Depth != 2 {
		t.Fatalf("no depth-2 tree under the query's key (%v); the key drifted from the engine's", err)
	}
	n, top := len(prep.Instance.Rows), 0
	for i, nd := range base.Levels[0] {
		if len(nd.Children) > 1 {
			top = i
		}
	}
	for _, tc := range []struct {
		name   string
		tamper func(tr *sketch.Tree)
	}{
		{"leaf tuple past the candidates", func(tr *sketch.Tree) {
			tr.Levels[1][0].Tuples = append(tr.Levels[1][0].Tuples, n)
		}},
		{"leaf tuple listed twice", func(tr *sketch.Tree) {
			dup := tr.Levels[1][0].Tuples[0]
			at, _ := slices.BinarySearch(tr.Levels[1][1].Tuples, dup)
			tr.Levels[1][1].Tuples = slices.Insert(tr.Levels[1][1].Tuples, at, dup)
		}},
		{"child index out of range", func(tr *sketch.Tree) {
			tr.Levels[0][0].Children = append(tr.Levels[0][0].Children, len(tr.Levels[1]))
		}},
		{"node with two parents", func(tr *sketch.Tree) {
			tr.Levels[0][0].Children = append(tr.Levels[0][0].Children, tr.Levels[0][1].Children[0])
		}},
		{"node with no parent", func(tr *sketch.Tree) {
			kids := tr.Levels[0][top].Children
			tr.Levels[0][top].Children = kids[:len(kids)-1]
		}},
		{"tau 0", func(tr *sketch.Tree) { tr.Tau = 0 }},
		{"attributes naming another column", func(tr *sketch.Tree) { tr.Attrs = []int{5, 7} }},
	} {
		bad := *base
		bad.Levels = make([][]sketch.Node, len(base.Levels))
		for l := range base.Levels {
			bad.Levels[l] = slices.Clone(base.Levels[l])
			for i := range bad.Levels[l] {
				bad.Levels[l][i].Children = slices.Clone(bad.Levels[l][i].Children)
				bad.Levels[l][i].Tuples = slices.Clone(bad.Levels[l][i].Tuples)
			}
		}
		bad.Attrs = slices.Clone(base.Attrs)
		tc.tamper(&bad)
		if err := store.Save(key, &bad); err != nil {
			t.Fatal(err)
		}
		got, _ := run()
		if got.Stats.Sketch.TreeLoaded || !slices.ContainsFunc(got.Stats.Notes, func(n string) bool {
			return strings.Contains(n, "persisted partition tree unusable") && strings.Contains(n, "rebuilding")
		}) {
			t.Errorf("%s: the tree was loaded (TreeLoaded=%v) without the store's rebuild note: %v", tc.name, got.Stats.Sketch.TreeLoaded, got.Stats.Notes)
			continue
		}
		if !reflect.DeepEqual(got.Packages[0].Mult, want.Packages[0].Mult) {
			t.Errorf("%s: the rebuild answered differently", tc.name)
		}
	}
}
