package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lifecycle"
	"repro/internal/minidb"
	"repro/internal/paql"
	"repro/internal/search"
)

// TestEmptySelectionQueriesEndAsTheTableSays replays, inside the engine,
// the CLI reproductions `paql -gen recipes:8:1 -q …` that used to end in
// an internal error (.claude/skills/verify lists them): queries
// whose cheapest package under the old linear reading — an empty SUM is
// 0 — is one the validator rejects. Under every strategy each must end
// in a package paql.Satisfies accepts, exact or certified only when the
// brute-force referee agrees, or in lifecycle.ErrInfeasible — never in
// "strategy returned an invalid package" or "objective … is NULL", never
// with sketch-refine's lens/oracle tripwire, never with two exact
// strategies apart.
func TestEmptySelectionQueriesEndAsTheTableSays(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 8, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	const head = `SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT `
	for _, query := range []string{
		// no filter, no COUNT: the empty package passed the linear rows
		head + `SUM(P.calories) <= 700 MINIMIZE SUM(P.protein)`,
		// ROADMAP item 5's form: the filter empties the selection
		head + `COUNT(*) = 1 AND SUM(P.calories WHERE P.gluten = 'nope') <= 700 MAXIMIZE SUM(P.protein)`,
		// the empty package satisfies SUCH THAT but its objective is NULL
		head + `COUNT(*) <= 2 AND COUNT(P.calories WHERE P.gluten = 'nope') = 0 MINIMIZE SUM(P.protein)`,
		// the same under a disjunction and a non-affine objective
		head + `COUNT(*) <= 2 AND (SUM(P.fat) <= 5 OR COUNT(*) = 0) MINIMIZE SUM(P.protein)`,
		head + `COUNT(*) <= 2 MINIMIZE AVG(P.protein)`,
	} {
		prep, err := Prepare(db, query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		brute, err := search.BruteForce(prep.Instance, search.Options{})
		if err != nil {
			t.Fatalf("BruteForce(%s): %v", query, err)
		}
		exactVerdict := map[Strategy]string{}
		for _, strat := range []Strategy{Auto, Solver, PrunedEnum, LocalSearchStrategy, SketchRefineStrategy} {
			res, err := prep.RunContext(context.Background(), Options{Strategy: strat, Seed: 1})
			if err != nil && !errors.Is(err, lifecycle.ErrInfeasible) {
				t.Errorf("%s on %s: %v", strat, query, err)
				continue
			}
			for _, note := range res.Stats.Notes {
				if strings.Contains(note, "disagree") {
					t.Errorf("%s on %s: %s", strat, query, note)
				}
			}
			if res.Stats.Exact && (len(res.Packages) > 0) != (len(brute.Packages) > 0) {
				t.Errorf("%s on %s: exact with %d packages, BruteForce found %d", strat, query, len(res.Packages), len(brute.Packages))
			}
			verdict := "infeasible"
			for _, p := range res.Packages[:min(1, len(res.Packages))] {
				if ok, err := paql.Satisfies(prep.Query.SuchThat, p.Rows); err != nil || !ok {
					t.Errorf("%s on %s: package fails SUCH THAT (%v)", strat, query, err)
				}
				if _, err := paql.ObjectiveValue(prep.Query.Objective, p.Rows); err != nil {
					t.Errorf("%s on %s: %v", strat, query, err)
				}
				best := brute.Packages[0].Obj
				if res.Stats.Exact && math.Abs(p.Objective-best) > 1e-9 {
					t.Errorf("%s on %s: exact objective %g, BruteForce %g", strat, query, p.Objective, best)
				}
				if lo, hi := min(p.Objective, res.Stats.BoundValue), max(p.Objective, res.Stats.BoundValue); res.Stats.Certified && (best < lo-1e-9 || best > hi+1e-9) {
					t.Errorf("%s on %s: certified [%g, %g] misses the optimum %g", strat, query, lo, hi, best)
				}
				verdict = "optimum"
			}
			if res.Stats.Exact {
				exactVerdict[res.Stats.Strategy] = verdict
			}
		}
		// (Contradictory cardinality bounds answer before any strategy runs.)
		if len(exactVerdict) < 2 && prep.Nonlinear == nil && !prep.Instance.Bounds.IsInfeasible() {
			t.Errorf("%s: exact verdicts %v, want both solver and pruned-enum", query, exactVerdict)
		}
		for s, v := range exactVerdict {
			if v != exactVerdict[PrunedEnum] {
				t.Errorf("%s: %s says %s, pruned-enum says %s", query, s, v, exactVerdict[PrunedEnum])
			}
		}
	}
	// A numeric comparison over a text column never reaches a strategy:
	// pruned-enum used to answer it while the solver proved it infeasible.
	_, err := Prepare(db, head+`COUNT(*) = 2 AND MIN(P.name) >= 1`)
	if err == nil || !strings.Contains(err.Error(), "MIN(R.name) >= 1") {
		t.Errorf("MIN over a text column: %v, want an Analyze error naming the atom", err)
	}
}
