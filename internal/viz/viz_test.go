package viz

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/minidb"
)

func preparedWithPackages(t *testing.T) (*core.Prepared, []*core.Package) {
	t.Helper()
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 50, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(db, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 900 AND 2400
		MAXIMIZE SUM(P.protein) LIMIT 6`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Run(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) < 4 {
		t.Fatalf("need several packages, got %d", len(res.Packages))
	}
	return prep, res.Packages
}

func TestSummarizeChoosesQueryDimensions(t *testing.T) {
	prep, pkgs := preparedWithPackages(t)
	s, err := Summarize(prep, pkgs, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != len(pkgs) {
		t.Fatalf("points = %d", len(s.Points))
	}
	if s.XLabel == s.YLabel {
		t.Errorf("dimensions must differ: %q", s.XLabel)
	}
	if !s.Points[0].Current {
		t.Error("current package not flagged")
	}
	for _, p := range s.Points[1:] {
		if p.Current {
			t.Error("only one package should be current")
		}
	}
	// every point has positive coordinates for this workload
	for _, p := range s.Points {
		if p.X <= 0 || p.Y <= 0 {
			t.Errorf("suspicious point %+v", p)
		}
		if p.Size != 3 {
			t.Errorf("size = %d", p.Size)
		}
	}
}

func TestRenderASCII(t *testing.T) {
	prep, pkgs := preparedWithPackages(t)
	s, err := Summarize(prep, pkgs, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	s.RenderASCII(&sb, 40, 10)
	out := sb.String()
	if !strings.Contains(out, "@") {
		t.Error("current package glyph missing")
	}
	if !strings.Contains(out, "o") && !strings.Contains(out, "*") {
		t.Error("package glyphs missing")
	}
	if !strings.Contains(out, "running") {
		t.Error("running indicator missing")
	}
	if !strings.Contains(out, "vertical") {
		t.Error("axis labels missing")
	}
}

func TestRenderEmptyAndJSON(t *testing.T) {
	s := &Summary{Running: true}
	var sb strings.Builder
	s.RenderASCII(&sb, 40, 10)
	if !strings.Contains(sb.String(), "no packages") {
		t.Error("empty render missing message")
	}
	prep, pkgs := preparedWithPackages(t)
	full, err := Summarize(prep, pkgs, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(full.Points) || back.XLabel != full.XLabel {
		t.Error("JSON round trip lost data")
	}
}

func TestSummarizeEmptyPackages(t *testing.T) {
	prep, _ := preparedWithPackages(t)
	s, err := Summarize(prep, nil, -1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 0 || !s.Running {
		t.Errorf("empty summary = %+v", s)
	}
}
