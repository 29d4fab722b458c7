package sketch_test

// Certified-bound tests: the exclusion-cut soundness regression (a cut
// row must never push the bound past the true cut optimum), the band
// query's certified gap, the certificate against the LP over every
// column on the benchmark's five templates, and the bound.relax fault.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/lp"
	"repro/internal/minidb"
	"repro/internal/plan"
	"repro/internal/sketch"
	"repro/internal/translate"
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
// exclusion cut's ±1 row is one more row of the certificate. A valid row
// can only tighten the bound down to the true optimum under the cut, never
// past it — which this instance makes analytic: MAXIMIZE SUM(protein) with
// COUNT(*) = 2 has optimum w₁+w₂ (the two best tuples); excluding exactly
// that package moves the optimum to w₁+w₃. A bound below w₁+w₃ would
// prove the certificate unsound.
func TestExclusionCutTreeBoundSound(t *testing.T) {
	prep := boundPrep(t, 6000, `
		SELECT PACKAGE(R) AS P
		FROM recipes R
		SUCH THAT COUNT(*) = 2
		MAXIMIZE SUM(P.protein)`)
	inst := prep.Instance
	if len(inst.Rows) <= 4096 {
		t.Fatalf("%d candidates: need > 4096, where the descent runs over a tree", len(inst.Rows))
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
		t.Fatalf("a bound with an exclusion cut must certify: %+v", res.Notes)
	}
	tol := 1e-6 * (1 + cutOpt)
	if res.Bound < cutOpt-tol {
		t.Fatalf("UNSOUND: certified bound %.6f below true cut optimum %.6f — the exclusion cut row cut off a package", res.Bound, cutOpt)
	}
	if res.Objective > res.Bound+tol {
		t.Fatalf("found objective %.6f beats its own certified bound %.6f", res.Objective, res.Bound)
	}
}

// TestBetweenBoundTightenedVsEnvelope: on a BETWEEN-heavy query above
// the raw cap — the band rows a grouped envelope was loosest on — the
// certificate is the LP relaxation over the raw candidates: it must
// report raw-lp and its pricing rounds, leave the package as a run
// without a bound pass finds it, stay sound against its own incumbent
// and certify a gap of at most 10%.
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
		t.Fatalf("%d candidates: need > 4096, where the descent runs over a tree", len(inst.Rows))
	}
	bare, err := sketch.Solve(inst, sketch.Options{Seed: 1, BoundMode: plan.BoundNone})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sketch.Solve(inst, sketch.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bare.Feasible || !res.Feasible || !res.Certified || bare.Certified {
		t.Fatalf("feasible %v/%v, certified %v/%v: want both feasible, only the bounded run certified",
			bare.Feasible, res.Feasible, bare.Certified, res.Certified)
	}
	if !slices.Equal(res.Mult, bare.Mult) {
		t.Fatal("the bound pass changed the package")
	}
	if res.Bound < res.Objective-1e-6*(1+res.Objective) {
		t.Fatalf("UNSOUND: bound %.6f below found objective %.6f", res.Bound, res.Objective)
	}
	if res.BoundStage != bound.StageRawLP || res.BoundRounds == 0 {
		t.Fatalf("stage %q after %d rounds, want %s and at least one pricing round", res.BoundStage, res.BoundRounds, bound.StageRawLP)
	}
	t.Logf("gap %.4f (stage %s, %d rounds)", res.Gap, res.BoundStage, res.BoundRounds)
	if res.Gap > 0.10 {
		t.Fatalf("certified gap %.2f%% above 10%%", 100*res.Gap)
	}
}

// benchTemplates are the repository benchmark's five query templates
// (benchmark/workload.go), two constants each, without a WHERE.
var benchTemplates = []string{
	"COUNT(*) = 3 AND SUM(P.calories) BETWEEN 900 AND 1400 MAXIMIZE SUM(P.protein)",
	"COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2050 AND 2550 MAXIMIZE SUM(P.protein)",
	"COUNT(*) = 5 AND AVG(P.calories) <= 400 MAXIMIZE SUM(P.protein)",
	"COUNT(*) = 5 AND AVG(P.calories) <= 650 MAXIMIZE SUM(P.protein)",
	"COUNT(*) = 5 AND MIN(P.protein) >= 5 AND MAX(P.calories) <= 700 AND SUM(P.calories) BETWEEN 2500 AND 3500 MAXIMIZE SUM(P.protein)",
	"COUNT(*) = 5 AND MIN(P.protein) >= 5 AND MAX(P.calories) <= 950 AND SUM(P.calories) BETWEEN 2500 AND 3500 MAXIMIZE SUM(P.protein)",
	"COUNT(*) BETWEEN 4 AND 8 AND SUM(P.price) <= 40.005 AND SUM(P.fat) <= 120 MAXIMIZE SUM(P.rating)",
	"COUNT(*) BETWEEN 4 AND 8 AND SUM(P.price) <= 85.005 AND SUM(P.fat) <= 120 MAXIMIZE SUM(P.rating)",
	"COUNT(*) = 3 AND SUM(P.calories) BETWEEN 1200 AND 1700 AND SUM(P.fat) BETWEEN 20 AND 200 MAXIMIZE SUM(P.protein)",
	"COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2050 AND 2550 AND SUM(P.fat) BETWEEN 20 AND 200 MAXIMIZE SUM(P.protein)",
}

// TestCertificateMatchesFullLP holds the certificate to the LP it
// certifies: on the benchmark's templates over 20,000 recipes, the bound
// the pass proves lies within its rounding margin of lp.Solve over every
// column (1e-6 relative, what a margin over 20,000 terms comes to), the
// sketch's found objective is at or below it, and the pass stays within
// its caps, which are counts: bound.MaxColumns master columns and
// bound.MaxRounds pricing rounds.
func TestCertificateMatchesFullLP(t *testing.T) {
	if testing.Short() {
		t.Skip("20,000-row LPs over every column")
	}
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 20000, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	for i, body := range benchTemplates {
		prep, err := core.Prepare(db, "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT "+body)
		if err != nil {
			t.Fatal(err)
		}
		inst := prep.Instance
		atoms, hi, err := sketch.BranchForTest(inst)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := bound.Certify(bound.PipelineOptions{Atoms: atoms, ObjW: inst.ObjW, Konst: inst.ObjK, Sense: lp.Maximize, TupleHi: hi})
		if err != nil || !pr.Certified {
			t.Fatalf("T%d: the pass did not certify (%v): %+v", i/2, err, pr)
		}
		full := fullLP(t, atoms, inst.ObjW, hi)
		exact := full + inst.ObjK
		tol := 1e-6 * (1 + math.Abs(exact))
		if pr.Bound < exact-tol || pr.Bound > exact+tol {
			t.Errorf("T%d %q: certificate %.9g, LP over every column %.9g", i/2, body, pr.Bound, exact)
		}
		if pr.Columns > bound.MaxColumns || pr.Rounds > bound.MaxRounds {
			t.Errorf("T%d: %d master columns in %d rounds, caps %d and %d", i/2, pr.Columns, pr.Rounds, bound.MaxColumns, bound.MaxRounds)
		}
		res, err := prep.Sketch.Solve(sketch.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible || !res.Certified || res.Objective > pr.Bound || res.Bound != pr.Bound {
			t.Errorf("T%d: feasible %v certified %v, found %.9g, engine bound %.9g, certificate %.9g",
				i/2, res.Feasible, res.Certified, res.Objective, res.Bound, pr.Bound)
		}
		t.Logf("T%d: found %.4f, certificate %.6f, LP %.6f; %d rounds, %d master columns", i/2, res.Objective, pr.Bound, exact, pr.Rounds, pr.Columns)
	}
}

// fullLP solves the LP relaxation over every column, column j in
// [0, hi(j)].
func fullLP(t *testing.T, atoms []*translate.LinearAtom, objW []float64, hi func(int) float64) float64 {
	t.Helper()
	p := lp.NewProblem(len(objW))
	for j := range objW {
		_ = p.SetBounds(j, 0, hi(j))
	}
	_ = p.SetObjective(objW, lp.Maximize)
	for _, at := range atoms {
		var coefs []lp.Coef
		for j, w := range at.W {
			if w != 0 {
				coefs = append(coefs, lp.Coef{Var: j, Val: w})
			}
		}
		if _, err := p.AddConstraint(coefs, at.Op, at.RHS); err != nil {
			t.Fatal(err)
		}
	}
	sol := lp.Solve(p)
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("LP over every column: %v", sol.Status)
	}
	return sol.Objective
}

// TestRelaxFaultDegradesOnBothPaths: a certificate pass that cannot
// start is the bound rung of the degradation ladder below and above the
// raw-candidate cap alike — one bound.Certify entry for both — so the
// answer is the unfaulted one, uncertified, with a "bound: " reason.
func TestRelaxFaultDegradesOnBothPaths(t *testing.T) {
	const q = `
		SELECT PACKAGE(R) AS P
		FROM recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
		MAXIMIZE SUM(P.protein)`
	for _, n := range []int{400, 6000} { // below the raw-candidate cap, then above it
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			inst := boundPrep(t, n, q).Instance
			if len(inst.Rows) != n {
				t.Fatalf("%d candidates from %d rows: the case misses its bound path", len(inst.Rows), n)
			}
			clean, err := sketch.Solve(inst, sketch.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			inj := fault.NewInjector(1, fault.Rule{Site: "bound.relax", Kind: fault.KindError})
			restore := fault.Enable(inj)
			res, err := sketch.Solve(inst, sketch.Options{Seed: 1})
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if !clean.Certified || !res.Feasible || !slices.Equal(res.Mult, clean.Mult) {
				t.Fatalf("faulted answer (feasible %v) differs from the clean one (certified %v)", res.Feasible, clean.Certified)
			}
			if res.Certified {
				t.Fatal("a relaxation that was never built certified a bound")
			}
			if len(res.Degraded) != 1 || !strings.HasPrefix(res.Degraded[0], "bound: ") {
				t.Fatalf("degraded reasons %q, want one bound rung", res.Degraded)
			}
		})
	}
}
