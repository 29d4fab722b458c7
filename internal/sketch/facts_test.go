package sketch

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/paql"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/translate"
	"repro/internal/value"
)

// TestFoldedFactsMatchTheScan: what the descent knows of a node's covered
// tuples is counted at the leaves and folded up through Children. At
// every level of built trees of depth 1 to 3 and of trees ApplyDelta
// patched, every fact must be what a scan of the node's covered tuples —
// gathered from its leaves — gives: size, pinned and admissible counts,
// each selector's node weight (bare and filtered MIN/MAX eliminations,
// at-least-one witnesses and guards, over columns with NULL cells and
// thresholds tied with cell values) and each exclusion cut's mean weight,
// bit for bit. No node above the leaves holds tuples.
func TestFoldedFactsMatchTheScan(t *testing.T) {
	rows := dataset.Recipes(dataset.RecipesConfig{N: 1500, Seed: 5})
	const calories, protein, fat = 5, 6, 7
	for i := range rows {
		if i%37 == 3 {
			rows[i][protein] = value.Null()
		}
		if i%37 == 20 {
			rows[i][fat] = value.Null()
		}
	}
	// Thresholds are cell values, so ties sit exactly at the bounds.
	num := func(i, c int) float64 { f, _ := rows[i][c].AsFloat(); return f }
	q, err := paql.Parse(fmt.Sprintf(`SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 4 AND MIN(P.protein) >= %v AND MAX(P.fat) <= %v
		AND (MIN(P.calories) <= %v OR MAX(P.protein WHERE P.gluten = 'free') >= %v)
		MAXIMIZE SUM(P.protein)`, num(10, protein), num(11, fat), num(12, calories), num(13, protein)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := paql.Analyze(q, dataset.RecipesSchema())
	if err != nil {
		t.Fatal(err)
	}
	instance := func(rows []schema.Row) *search.Instance {
		inst, err := search.NewInstance(context.Background(), a, translate.NewPasses(rows), make([]int, len(rows)))
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}

	// The patched trees cover rows minus every 41st, plus 60 new rows.
	remap := make([]int, len(rows))
	var next []schema.Row
	for i, row := range rows {
		remap[i] = -1
		if i%41 != 7 {
			remap[i] = len(next)
			next = append(next, row)
		}
	}
	next = append(next, dataset.Recipes(dataset.RecipesConfig{N: 60, Seed: 6})...)

	pruned, witnessed := 0, 0
	check := func(name string, inst *search.Instance, tree *Tree) {
		n := len(inst.Rows)
		exclude := make([]int, n)
		for i := range exclude {
			exclude[i] = (i / 3) % 2
		}
		s := &solver{inst: inst}
		if s.pins, err = pinSet(n, []int{0, 5, n / 2, n - 1}); err != nil {
			t.Fatal(err)
		}
		if s.exAtoms, err = exclusionAtoms(inst, [][]int{exclude}); err != nil {
			t.Fatal(err)
		}
		q := Compile(inst)
		for bi := range q.branches {
			ba, err := q.branch(nil, bi)
			if err != nil {
				t.Fatal(err)
			}
			facts := s.treeFacts(ba, tree)
			for l, covered := range CoveredTuples(tree) {
				where := fmt.Sprintf("%s branch %d level %d", name, bi, l)
				f, want := facts[l], s.refLevelFacts(ba, covered)
				if !slices.Equal(f.size, want.size) || !slices.Equal(f.pins, want.pins) || !slices.Equal(f.adm, want.adm) {
					t.Fatalf("%s: sizes, pins or admissible counts differ from the scan", where)
				}
				for k, sel := range ba.sels {
					got := selectorNodeAtom(sel, f.size, f.sel[k]).W
					if !slices.Equal(got, want.sel[k]) {
						t.Fatalf("%s: selector %s weighs %v, the scan %v", where, sel.Source, got, want.sel[k])
					}
					if l < tree.Depth-1 {
						for _, w := range got {
							if w == 1 && sel.Kind == translate.SketchElim {
								pruned++
							}
							if w == 1 && sel.Kind == translate.SketchAtLeast {
								witnessed++
							}
						}
					}
				}
				for k, ex := range s.nodeExclusionAtoms(f) {
					for g, w := range ex.W {
						if math.Float64bits(w) != math.Float64bits(want.ex[k][g]) {
							t.Fatalf("%s node %d: exclusion weight %v, the scan %v", where, g, w, want.ex[k][g])
						}
					}
				}
				if l < tree.Depth-1 {
					for g := range tree.Levels[l] {
						if tree.Levels[l][g].Tuples != nil {
							t.Fatalf("%s node %d above the leaves holds tuples", where, g)
						}
					}
				}
			}
		}
	}
	base, patchedInst := instance(rows), instance(next)
	for depth := 1; depth <= 3; depth++ {
		for _, tau := range []int{8, 32} {
			opts := Options{MaxPartitionSize: tau, Depth: depth, Seed: 3}
			tree := BuildTree(base, opts)
			check(fmt.Sprintf("built τ=%d depth=%d", tau, depth), base, tree)
			patched, ok := tree.ApplyDelta(next, remap, opts)
			if !ok {
				t.Fatalf("τ=%d depth=%d: ApplyDelta refused a 6%% delta", tau, depth)
			}
			check(fmt.Sprintf("patched τ=%d depth=%d", tau, depth), patchedInst, patched)
		}
	}
	if pruned == 0 || witnessed == 0 {
		t.Errorf("above the leaves %d nodes were pruned and %d witnessed; the corpus no longer reaches both weights", pruned, witnessed)
	}
}
