package sketch_test

// Certified-bound tests for the tree-path pipeline: the exclusion-cut
// soundness regression (cuts relaxed over leaf segments must never
// inflate the bound past the true cut optimum) and the band-tightening
// check (the staged pipeline must be no looser than its stage-1 tree-lp
// bound on BETWEEN-heavy queries, which is the whole point of the stages).

import (
	"sort"
	"testing"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/minidb"
	"repro/internal/sketch"
)

func boundPrep(t *testing.T, n int, query string) *core.Prepared {
	t.Helper()
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: n, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(db, query)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// TestExclusionCutTreeBoundSound: above the raw-candidate cap an
// exclusion cut's ±1 row is relaxed over leaf segments like any other
// row. Relaxation can only loosen a valid row, so the certified bound
// must still be ≥ the true optimum under the cut — which this instance
// makes analytic: MAXIMIZE SUM(protein) with COUNT(*) = 2 has optimum
// w₁+w₂ (the two best tuples); excluding exactly that package moves the
// optimum to w₁+w₃. A bound below w₁+w₃ would prove the relaxation
// unsound.
func TestExclusionCutTreeBoundSound(t *testing.T) {
	prep := boundPrep(t, 6000, `
		SELECT PACKAGE(R) AS P
		FROM recipes R
		SUCH THAT COUNT(*) = 2
		MAXIMIZE SUM(P.protein)`)
	inst := prep.Instance
	if len(inst.Rows) <= 4096 {
		t.Fatalf("%d candidates: need > 4096 so the bound takes the tree path", len(inst.Rows))
	}
	idx := make([]int, len(inst.ObjW))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return inst.ObjW[idx[a]] > inst.ObjW[idx[b]] })
	ex := make([]int, len(inst.Rows))
	ex[idx[0]], ex[idx[1]] = 1, 1
	cutOpt := inst.ObjW[idx[0]] + inst.ObjW[idx[2]] + inst.ObjK
	res, err := sketch.Solve(inst, sketch.Options{Seed: 1, Exclude: [][]int{ex}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("no feasible package under the cut: %v", res.Notes)
	}
	if res.Mult[idx[0]] > 0 && res.Mult[idx[1]] > 0 {
		t.Fatal("result is the excluded package")
	}
	if !res.Certified {
		t.Fatalf("tree-path bound with an exclusion cut must certify: %+v", res.Notes)
	}
	tol := 1e-6 * (1 + cutOpt)
	if res.Bound < cutOpt-tol {
		t.Fatalf("UNSOUND: certified bound %.6f below true cut optimum %.6f — the relaxed exclusion cut inflated the bound", res.Bound, cutOpt)
	}
	if res.Objective > res.Bound+tol {
		t.Fatalf("found objective %.6f beats its own certified bound %.6f", res.Objective, res.Bound)
	}
}

// TestBetweenBoundTightenedVsEnvelope: on a BETWEEN-heavy query above
// the raw cap, the full pipeline (segments + Lagrangian rounds) must
// produce a certified gap no worse than its own stage 1 (the segmented
// tree-lp envelope, no tightening), report the stage and rounds it ran,
// and stay sound against its own incumbent.
func TestBetweenBoundTightenedVsEnvelope(t *testing.T) {
	const q = `
		SELECT PACKAGE(R) AS P
		FROM recipes R
		SUCH THAT COUNT(*) = 3
			AND SUM(P.calories) BETWEEN 2000 AND 2500
			AND SUM(P.fat) BETWEEN 20 AND 200
		MAXIMIZE SUM(P.protein)`
	prep := boundPrep(t, 6000, q)
	inst := prep.Instance
	if len(inst.Rows) <= 4096 {
		t.Fatalf("%d candidates: need > 4096 so the bound takes the tree path", len(inst.Rows))
	}
	env, err := sketch.Solve(inst, sketch.Options{Seed: 1, BoundMode: bound.StageTreeLP})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := sketch.Solve(inst, sketch.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !env.Feasible || !tight.Feasible {
		t.Fatalf("query must be feasible (env %v, tight %v)", env.Feasible, tight.Feasible)
	}
	if !env.Certified || !tight.Certified {
		t.Fatalf("both runs must certify (env %v, tight %v)", env.Certified, tight.Certified)
	}
	if tight.Objective != env.Objective {
		t.Fatalf("bound mode changed the package: %.6f vs %.6f", tight.Objective, env.Objective)
	}
	// Maximize: the dual bound is an upper bound, so tighter = smaller.
	if tight.Bound > env.Bound+1e-9*(1+env.Bound) {
		t.Fatalf("pipeline bound %.6f looser than tree-lp bound %.6f", tight.Bound, env.Bound)
	}
	if tight.Bound < tight.Objective-1e-6*(1+tight.Objective) {
		t.Fatalf("UNSOUND: bound %.6f below found objective %.6f", tight.Bound, tight.Objective)
	}
	if tight.BoundStage == "" || tight.BoundStage == "tree-lp" {
		t.Fatalf("full pipeline on a band query should pass tree-lp, got %q", tight.BoundStage)
	}
	if tight.BoundRounds == 0 {
		t.Fatalf("no Lagrangian rounds ran (stage %q)", tight.BoundStage)
	}
	t.Logf("tree-lp gap %.4f, pipeline gap %.4f (stage %s, %d rounds)", env.Gap, tight.Gap, tight.BoundStage, tight.BoundRounds)
	// On this BETWEEN-heavy instance the pipeline's certified gap must
	// be ≤ 10%.
	if tight.Gap > 0.10 {
		t.Fatalf("pipeline certified gap %.2f%% still above 10%%", 100*tight.Gap)
	}
}
