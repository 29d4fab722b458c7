package translate

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/lp"
	"repro/internal/schema"
	"repro/internal/value"
)

// sketchRows weighs a branch the way every consumer does: as one
// conjunction, implied guards dropped.
func sketchRows(t *testing.T, br SketchBranch, cands []schema.Row) []*LinearAtom {
	t.Helper()
	_, rows, err := br.Weigh(context.Background(), cands)
	if err != nil {
		t.Fatalf("weigh: %v", err)
	}
	return slices.Concat(rows...)
}

func TestCompileSketchPureConjunctionMatchesConjunctiveAtoms(t *testing.T) {
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500`)
	cands := []schema.Row{
		mkRow(1, 700, 30, "a", 1),
		mkRow(2, 900, 10, "b", 2),
	}
	branches, rewrites, err := CompileSketch(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 1 || rewrites != 0 {
		t.Fatalf("branches=%d rewrites=%d, want 1 and 0", len(branches), rewrites)
	}
	got := sketchRows(t, branches[0], cands)
	want, pure, _, _, err := NewPasses(cands).ConjunctiveAtoms(nil, a)
	if err != nil || !pure {
		t.Fatalf("ConjunctiveAtoms pure=%v err=%v", pure, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d sketch rows for %d conjunctive atoms", len(got), len(want))
	}
	for k := range want {
		if got[k].Op != want[k].Op || got[k].RHS != want[k].RHS {
			t.Errorf("row %d: got (%v, %g), want (%v, %g)", k, got[k].Op, got[k].RHS, want[k].Op, want[k].RHS)
		}
		for i := range want[k].W {
			if got[k].W[i] != want[k].W[i] {
				t.Errorf("row %d weight %d: got %g, want %g", k, i, got[k].W[i], want[k].W[i])
			}
		}
	}
}

func TestCompileSketchAvgRewrite(t *testing.T) {
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT AVG(P.calories) <= 800`)
	cands := []schema.Row{
		mkRow(1, 700, 30, "a", 1),
		mkRow(2, 900, 10, "b", 2),
	}
	branches, rewrites, err := CompileSketch(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 1 || rewrites != 1 {
		t.Fatalf("branches=%d rewrites=%d, want 1 and 1", len(branches), rewrites)
	}
	rows := sketchRows(t, branches[0], cands)
	if len(rows) != 2 {
		t.Fatalf("AVG atom lowered to %d rows, want 2 (main + guard)", len(rows))
	}
	// Main row: SUM(cal) − 800·COUNT ≤ 0, i.e. weights cal−800.
	main := rows[0]
	if main.Op != lp.LE || main.RHS != 0 {
		t.Fatalf("main row (%v, %g), want (LE, 0)", main.Op, main.RHS)
	}
	if main.W[0] != 700-800 || main.W[1] != 900-800 {
		t.Fatalf("main weights %v, want [-100, 100]", main.W)
	}
	// Guard: at least one contributing tuple.
	guard := rows[1]
	if guard.Op != lp.GE || guard.RHS != 1 || guard.W[0] != 1 || guard.W[1] != 1 {
		t.Fatalf("guard row %+v, want Σx ≥ 1 over both tuples", guard)
	}
}

// TestCompileSketchAvgNullArgumentWeighsZero pins the rewrite against
// SQL AVG semantics: a tuple whose argument is NULL contributes to
// neither the sum nor the count, so its weight in the SUM − c·COUNT
// row must be 0 — COUNT(*)-style weights (-c for NULL tuples) would
// accept packages whose true average violates the bound.
func TestCompileSketchAvgNullArgumentWeighsZero(t *testing.T) {
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT AVG(P.calories) <= 5`)
	cands := []schema.Row{
		mkRow(1, 10, 1, "a", 1),
		{mkRow(2, 0, 1, "b", 1)[0], value.Null(), mkRow(2, 0, 1, "b", 1)[2], mkRow(2, 0, 1, "b", 1)[3], mkRow(2, 0, 1, "b", 1)[4]},
	}
	branches, _, err := CompileSketch(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := sketchRows(t, branches[0], cands)
	main := rows[0]
	if main.W[0] != 10-5 {
		t.Errorf("non-NULL tuple weight %g, want 5", main.W[0])
	}
	if main.W[1] != 0 {
		t.Errorf("NULL-argument tuple weight %g, want 0 (it enters neither SUM nor COUNT)", main.W[1])
	}
	// The package {both tuples} has true AVG = 10 > 5; the sufficient
	// row must reject it.
	if main.Check([]int{1, 1}) {
		t.Error("row accepts a package whose true average violates the bound")
	}
	// The guard must not count the NULL tuple either.
	guard := rows[1]
	if guard.W[1] != 0 {
		t.Errorf("guard counts the NULL-argument tuple: %v", guard.W)
	}
}

func TestCompileSketchMinMaxLowering(t *testing.T) {
	cands := []schema.Row{
		mkRow(1, 700, 30, "a", 1),
		mkRow(2, 900, 10, "b", 2),
		mkRow(3, 500, 20, "c", 3),
	}
	cases := []struct {
		clause   string
		wantRows int
		// selected[i] = expected weight of the predicate row (the
		// elimination row when present, else the at-least-one row).
		selected []float64
	}{
		{"MIN(P.calories) >= 600", 2, []float64{0, 0, 1}}, // eliminate cal < 600
		{"MIN(P.calories) > 500", 2, []float64{0, 0, 1}},  // eliminate cal <= 500
		{"MIN(P.calories) <= 600", 1, []float64{0, 0, 1}}, // witness cal <= 600
		{"MAX(P.calories) <= 800", 2, []float64{0, 1, 0}}, // eliminate cal > 800
		{"MAX(P.calories) >= 800", 1, []float64{0, 1, 0}}, // witness cal >= 800
		{"MAX(P.calories) < 900", 2, []float64{0, 1, 0}},  // eliminate cal >= 900
	}
	for _, tc := range cases {
		t.Run(tc.clause, func(t *testing.T) {
			a := analyze(t, "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT "+tc.clause)
			branches, rewrites, err := CompileSketch(a, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(branches) != 1 || rewrites != 1 {
				t.Fatalf("branches=%d rewrites=%d, want 1 and 1", len(branches), rewrites)
			}
			rows := sketchRows(t, branches[0], cands)
			if len(rows) != tc.wantRows {
				t.Fatalf("%d rows, want %d", len(rows), tc.wantRows)
			}
			pred := rows[0]
			for i, w := range tc.selected {
				if pred.W[i] != w {
					t.Errorf("predicate weight %d = %g, want %g (%v)", i, pred.W[i], w, pred)
				}
			}
			if tc.wantRows == 2 {
				if pred.Op != lp.LE || pred.RHS != 0 {
					t.Errorf("elimination row (%v, %g), want (LE, 0)", pred.Op, pred.RHS)
				}
				if rows[1].Op != lp.GE || rows[1].RHS != 1 {
					t.Errorf("witness guard (%v, %g), want (GE, 1)", rows[1].Op, rows[1].RHS)
				}
			} else if pred.Op != lp.GE || pred.RHS != 1 {
				t.Errorf("at-least-one row (%v, %g), want (GE, 1)", pred.Op, pred.RHS)
			}
		})
	}
}

func TestCompileSketchDisjunctionBranches(t *testing.T) {
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 2 AND (SUM(P.calories) <= 1000 OR AVG(P.protein) >= 20)`)
	branches, rewrites, err := CompileSketch(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 2 {
		t.Fatalf("branches = %d, want 2", len(branches))
	}
	if rewrites != 1 {
		t.Fatalf("rewrites = %d, want 1 (the AVG atom)", rewrites)
	}
	// Both branches carry the COUNT(*) = 2 conjunct.
	for bi, br := range branches {
		found := false
		for _, at := range br.Atoms {
			if at.Kind == SketchLinear && strings.Contains(at.Source(), "COUNT(*)") {
				found = true
			}
		}
		if !found {
			t.Errorf("branch %d misses the shared COUNT conjunct", bi)
		}
	}
	if branches[1].Atoms[1].Kind != SketchAvg {
		t.Errorf("second branch should carry the AVG rewrite, got kind %d", branches[1].Atoms[1].Kind)
	}
}

func TestCompileSketchBranchCap(t *testing.T) {
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT (COUNT(*) = 1 OR COUNT(*) = 2)
		      AND (SUM(P.calories) <= 1 OR SUM(P.calories) <= 2)
		      AND (SUM(P.protein) <= 1 OR SUM(P.protein) <= 2)`)
	if _, _, err := CompileSketch(a, 4); err == nil {
		t.Fatal("8-branch DNF should exceed a cap of 4")
	} else if !strings.Contains(err.Error(), "disjunctive branches") {
		t.Fatalf("error should explain the DNF cap, got: %v", err)
	}
}

func TestCompileSketchErrorNamesAtom(t *testing.T) {
	// Analyze accepts MIN = c (it only flags it non-linear); the sketch
	// compiler must name the atom it cannot lower.
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT MIN(P.calories) = 500`)
	_, _, err := CompileSketch(a, 0)
	if err == nil {
		t.Fatal("MIN equality should not compile")
	}
	if !strings.Contains(err.Error(), "MIN(R.calories)") {
		t.Fatalf("error should name the offending aggregate, got: %v", err)
	}
}

// TestSelectorViewMetadata: a MIN/MAX atom's selector view names every
// candidate's presence under the aggregate's filter and its value, and
// the predicate the partition levels count tuples by.
func TestSelectorViewMetadata(t *testing.T) {
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT MIN(P.calories) >= 600 AND MAX(P.protein WHERE P.kind = 'a') <= 25`)
	branches, _, err := CompileSketch(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	cands := []schema.Row{mkRow(1, 700, 30, "a", 1), mkRow(2, 900, 10, "b", 2)}
	var sels []*Selector
	for _, at := range branches[0].Atoms {
		if at.IsSelector() {
			sel, err := at.Selector(cands)
			if err != nil {
				t.Fatal(err)
			}
			sels = append(sels, sel)
		}
	}
	if len(sels) != 4 {
		t.Fatalf("%d selectors, want 4 (elim + guard for each MIN/MAX atom)", len(sels))
	}
	if bare := sels[0]; !bare.Present[0] || !bare.Present[1] || bare.Vals[0] != 700 || bare.Vals[1] != 900 {
		t.Errorf("bare-column MIN selector: present %v, vals %v", bare.Present, bare.Vals)
	}
	if !sels[0].Match(599) || sels[0].Match(600) {
		t.Error("MIN >= 600 elimination predicate should select values below 600")
	}
	if !sels[1].All {
		t.Error("witness guard should select every present tuple")
	}
	filtered := sels[2]
	if !filtered.Present[0] || filtered.Present[1] {
		t.Errorf("filter presence wrong: %v", filtered.Present)
	}
	if got := filtered.Vals[0]; got != 30 {
		t.Errorf("filtered val = %g, want 30", got)
	}
	if !filtered.Match(30) || filtered.Match(20) {
		t.Error("MAX <= 25 elimination predicate should select values > 25")
	}
}

func TestSketchLinearStrictOpsTightened(t *testing.T) {
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT SUM(P.calories) < 1000 AND SUM(P.protein) > 20`)
	branches, _, err := CompileSketch(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	cands := []schema.Row{mkRow(1, 700, 30, "a", 1)}
	rows := sketchRows(t, branches[0], cands)
	// SUM(calories)'s guard stays (no ≥ row implies it: 30 protein > 20);
	// SUM(protein)'s covers the same tuples and falls to it.
	if len(rows) != 3 || rows[1].Op != lp.GE || rows[1].RHS != 1 {
		t.Fatalf("%d rows, want the two comparisons around one non-empty guard", len(rows))
	}
	rows = []*LinearAtom{rows[0], rows[2]}
	if !(rows[0].Op == lp.LE && rows[0].RHS < 1000) {
		t.Errorf("strict < should tighten below 1000, got (%v, %g)", rows[0].Op, rows[0].RHS)
	}
	if !(rows[1].Op == lp.GE && rows[1].RHS > 20) {
		t.Errorf("strict > should tighten above 20, got (%v, %g)", rows[1].Op, rows[1].RHS)
	}
	if math.Abs(rows[0].RHS-1000) > 1e-2 || math.Abs(rows[1].RHS-20) > 1e-4 {
		t.Errorf("tightening should stay epsilon-sized: %g, %g", rows[0].RHS, rows[1].RHS)
	}
}
