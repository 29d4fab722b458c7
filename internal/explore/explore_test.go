package explore

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/minidb"
	"repro/internal/search"
)

const mealQuery = `
	SELECT PACKAGE(R) AS P
	FROM recipes R
	WHERE R.gluten = 'free'
	SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 1000 AND 2200
	MAXIMIZE SUM(P.protein)`

func newSession(t *testing.T) *Session {
	t.Helper()
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 60, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(db, mealQuery, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRefreshAndHistory(t *testing.T) {
	s := newSession(t)
	if s.Current() != nil {
		t.Error("current should be nil before Refresh")
	}
	p, err := s.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 3 {
		t.Errorf("package size = %d", p.Size())
	}
	if s.Current() != p || len(s.History()) != 1 {
		t.Error("current/history not updated")
	}
}

func TestReplaceProducesDistinctPackages(t *testing.T) {
	s := newSession(t)
	first, err := s.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{search.Pkg{Mult: first.Mult}.Key(): true}
	for i := 0; i < 3; i++ {
		next, err := s.Replace()
		if err != nil {
			t.Fatalf("replace %d: %v", i, err)
		}
		key := search.Pkg{Mult: next.Mult}.Key()
		if seen[key] {
			t.Fatalf("replace %d returned a previously shown package", i)
		}
		seen[key] = true
		if next.Size() != 3 {
			t.Errorf("replacement size = %d", next.Size())
		}
	}
	if len(s.History()) != 4 {
		t.Errorf("history = %d", len(s.History()))
	}
}

func TestPinKeepsTuplesAcrossReplace(t *testing.T) {
	s := newSession(t)
	first, err := s.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	// pin the first tuple of the current package
	var pinnedCand int = -1
	for i, m := range first.Mult {
		if m > 0 {
			pinnedCand = i
			break
		}
	}
	if err := s.Pin(pinnedCand); err != nil {
		t.Fatal(err)
	}
	pinnedID := s.Prepared().Instance.IDs[pinnedCand]
	for i := 0; i < 3; i++ {
		next, err := s.Replace()
		if err != nil {
			t.Fatalf("replace %d: %v", i, err)
		}
		if next.Mult[pinnedCand] == 0 {
			t.Fatalf("replace %d dropped the pinned tuple (id %d)", i, pinnedID)
		}
	}
	// unpin works
	s.Unpin(pinnedCand)
	if len(s.Pinned()) != 0 {
		t.Error("unpin failed")
	}
}

func TestPinByRowID(t *testing.T) {
	s := newSession(t)
	if _, err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	id := s.Prepared().Instance.IDs[0]
	if err := s.PinRowID(id); err != nil {
		t.Fatal(err)
	}
	if len(s.Pinned()) != 1 {
		t.Error("PinRowID did not pin")
	}
	if err := s.PinRowID(99999); err == nil {
		t.Error("bogus row id should fail")
	}
	if err := s.Pin(-1); err == nil {
		t.Error("negative candidate should fail")
	}
}

func TestSuggestNumericColumn(t *testing.T) {
	s := newSession(t)
	if _, err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	sugg, err := s.Suggest(Highlight{Column: "fat", Row: -1})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	minimized := false
	for _, sg := range sugg {
		kinds = append(kinds, sg.Kind)
		if sg.Kind == "objective" && strings.HasPrefix(sg.Text, "MINIMIZE SUM(P.fat") {
			minimized = true
		}
		if sg.Why == "" {
			t.Errorf("suggestion %q lacks a rationale", sg.Text)
		}
	}
	if !minimized {
		t.Errorf("the paper's fat example should suggest MINIMIZE SUM(P.fat); got %v", kinds)
	}
}

func TestSuggestCellAndCategorical(t *testing.T) {
	s := newSession(t)
	if _, err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	sugg, err := s.Suggest(Highlight{Column: "calories", Row: 0})
	if err != nil {
		t.Fatal(err)
	}
	foundBase, foundMax := false, false
	for _, sg := range sugg {
		if sg.Kind == "base" && strings.Contains(sg.Text, "<=") {
			foundBase = true
		}
		if strings.HasPrefix(sg.Text, "MAX(P.calories)") {
			foundMax = true
		}
	}
	if !foundBase || !foundMax {
		t.Errorf("cell highlight suggestions incomplete: %+v", sugg)
	}
	catSugg, err := s.Suggest(Highlight{Column: "cuisine", Row: 0})
	if err != nil {
		t.Fatal(err)
	}
	foundCount := false
	for _, sg := range catSugg {
		if strings.HasPrefix(sg.Text, "COUNT(* WHERE P.cuisine = ") {
			foundCount = true
		}
	}
	if !foundCount {
		t.Errorf("categorical suggestions incomplete: %+v", catSugg)
	}
	// row-only highlight suggests pinning
	rowSugg, err := s.Suggest(Highlight{Row: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rowSugg) != 1 || rowSugg[0].Kind != "action" {
		t.Errorf("row highlight = %+v", rowSugg)
	}
}

func TestSuggestErrors(t *testing.T) {
	s := newSession(t)
	if _, err := s.Suggest(Highlight{Column: "nope"}); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := s.Suggest(Highlight{Row: -1}); err == nil {
		t.Error("empty highlight should fail")
	}
}

func TestInfeasibleRefreshErrors(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 20, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(db, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) >= 100000`, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refresh(); err == nil {
		t.Error("infeasible query should error on Refresh")
	}
}
