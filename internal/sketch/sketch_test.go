package sketch_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/minidb"
	"repro/internal/sketch"
)

const mealQuery = `
	SELECT PACKAGE(R) AS P
	FROM recipes R
	WHERE R.gluten = 'free'
	SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
	MAXIMIZE SUM(P.protein)`

func recipesPrep(t testing.TB, n int) *core.Prepared {
	t.Helper()
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: n, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(db, mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

func TestPartitionSizeBoundAndCover(t *testing.T) {
	prep := recipesPrep(t, 300)
	inst := prep.Instance
	tree := sketch.BuildTree(inst, sketch.Options{MaxPartitionSize: 16, Seed: 7})
	if tree.Tau != 16 {
		t.Fatalf("tau = %d", tree.Tau)
	}
	seen := map[int]bool{}
	for _, leaf := range tree.Leaves() {
		g := leaf.Tuples
		if len(g) == 0 || len(g) > 16 {
			t.Fatalf("group size %d outside (0, 16]", len(g))
		}
		if leaf.Rep == nil {
			t.Fatal("leaf without a representative")
		}
		for _, i := range g {
			if seen[i] {
				t.Fatalf("candidate %d in two partitions", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(inst.Rows) {
		t.Fatalf("partitions cover %d of %d candidates", len(seen), len(inst.Rows))
	}
	if len(tree.Attrs) == 0 {
		t.Fatal("no partition attributes chosen")
	}
}

func TestPartitionDeterministicUnderSeed(t *testing.T) {
	prep := recipesPrep(t, 250)
	a := sketch.BuildTree(prep.Instance, sketch.Options{MaxPartitionSize: 10, Seed: 99}).Leaves()
	b := sketch.BuildTree(prep.Instance, sketch.Options{MaxPartitionSize: 10, Seed: 99}).Leaves()
	if len(a) != len(b) {
		t.Fatal("same seed produced different partitionings")
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Tuples, b[i].Tuples) {
			t.Fatal("same seed produced different partitionings")
		}
		if !reflect.DeepEqual(a[i].Rep, b[i].Rep) {
			t.Fatal("same seed produced different representatives")
		}
	}
}

func TestSketchVsExactSmall(t *testing.T) {
	for _, n := range []int{120, 400} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			prep := recipesPrep(t, n)
			exact, err := prep.Run(core.Options{Strategy: core.Solver, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			skres, err := sketch.Solve(prep.Instance, sketch.Options{MaxPartitionSize: 16, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(exact.Packages) == 0 {
				if skres.Feasible {
					t.Fatal("sketch found a package where the exact solver proved none")
				}
				return
			}
			if !skres.Feasible {
				t.Fatalf("exact solver found a package but sketch did not: %v", skres.Notes)
			}
			opt := exact.Packages[0].Objective
			if skres.Objective > opt+1e-6 {
				t.Fatalf("sketch objective %.3f beats proven optimum %.3f", skres.Objective, opt)
			}
			if gap := (opt - skres.Objective) / opt; gap > 0.25 {
				t.Fatalf("objective gap %.1f%% > 25%% (sketch %.1f vs exact %.1f)",
					gap*100, skres.Objective, opt)
			}
		})
	}
}

// TestRefineFallbackInfeasiblePartition forces a partition whose
// sub-MILP is infeasible: with τ=2 the values {1,2} and {2,3} land in
// separate partitions whose representatives average to 1.5 and 2.5, the
// sketch picks one unit of each (1.5+2.5 = 4), and the first refined
// partition is asked for a single tuple summing to exactly 1.5 — which
// no integer-valued member can satisfy. Greedy repair plus the
// coordinate-descent sweep must still land on a feasible package.
func TestRefineFallbackInfeasiblePartition(t *testing.T) {
	db := minidb.New()
	stmts := []string{
		"CREATE TABLE t (x INT)",
		"INSERT INTO t VALUES (1)",
		"INSERT INTO t VALUES (2)",
		"INSERT INTO t VALUES (2)",
		"INSERT INTO t VALUES (3)",
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	prep, err := core.Prepare(db, `SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) = 2 AND SUM(P.x) = 4`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sketch.Solve(prep.Instance, sketch.Options{MaxPartitionSize: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired == 0 {
		t.Fatalf("expected at least one greedy-repaired partition, got refine stats %+v", res)
	}
	if !res.Feasible {
		t.Fatalf("repair sweeps did not reach a feasible package: %+v", res)
	}
	sum, count := 0, 0
	for i, m := range res.Mult {
		sum += m * int(prep.Instance.Rows[i][0].IntVal())
		count += m
	}
	if count != 2 || sum != 4 {
		t.Fatalf("package has count=%d sum=%d, want 2 and 4", count, sum)
	}
}

// TestApplicableCoversFullAtomGrammar pins the applicability contract:
// AVG/MIN/MAX atoms and disjunctions are sketchable now, and the
// refusal message for what remains unsupported names the offending
// aggregate instead of a blanket "not a pure conjunction".
func TestApplicableCoversFullAtomGrammar(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 50, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	supported := []string{
		`SUCH THAT COUNT(*) = 3 AND AVG(P.calories) <= 800`,
		`SUCH THAT COUNT(*) = 3 AND MIN(P.protein) >= 5`,
		`SUCH THAT COUNT(*) = 3 AND MAX(P.calories) < 950`,
		`SUCH THAT COUNT(*) = 2 OR SUM(P.calories) <= 1500`,
	}
	for _, clause := range supported {
		prep, err := core.Prepare(db, "SELECT PACKAGE(R) AS P FROM recipes R "+clause)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prep.Sketch.Applicable(); err != nil {
			t.Errorf("%s should be sketch-applicable, got: %v", clause, err)
		}
	}
	rejected := []struct {
		clause string
		want   string // the offending aggregate the message must name
	}{
		{`SUCH THAT MIN(P.calories) = 500`, "MIN(R.calories)"},
		{`SUCH THAT AVG(P.calories) = 800`, "AVG(R.calories)"},
		{`SUCH THAT SUM(P.calories) <> 800`, "SUM(R.calories)"},
	}
	for _, tc := range rejected {
		prep, err := core.Prepare(db, "SELECT PACKAGE(R) AS P FROM recipes R "+tc.clause)
		if err != nil {
			t.Fatal(err)
		}
		_, err = prep.Sketch.Applicable()
		if err == nil {
			t.Errorf("%s should not be sketch-applicable", tc.clause)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error should name %s, got: %v", tc.clause, tc.want, err)
		}
		if _, serr := sketch.Solve(prep.Instance, sketch.Options{}); serr == nil {
			t.Errorf("%s: Solve should refuse a non-applicable instance", tc.clause)
		}
	}
}

// Over an empty relation the empty package is the only package: COUNT of
// nothing is 0, so a COUNT bound accepts it; SUM of nothing is NULL, so
// a SUM comparison does not (internal/paql/semantics_test.go).
func TestSketchTrivialEmptyCandidates(t *testing.T) {
	db := minidb.New()
	if _, err := db.Exec("CREATE TABLE t (x INT)"); err != nil {
		t.Fatal(err)
	}
	for suchThat, feasible := range map[string]bool{`COUNT(*) <= 10`: true, `SUM(P.x) <= 10`: false} {
		prep, err := core.Prepare(db, `SELECT PACKAGE(T) AS P FROM t T SUCH THAT `+suchThat)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sketch.Solve(prep.Instance, sketch.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Feasible != feasible || len(res.Mult) != 0 {
			t.Fatalf("%s over an empty relation: feasible=%v, want %v (%+v)", suchThat, res.Feasible, feasible, res)
		}
	}
}
