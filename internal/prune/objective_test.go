package prune_test

import (
	"testing"

	"repro/internal/paql"
	"repro/internal/prune"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/translate"
	"repro/internal/value"
)

// TestObjectiveGuardTightensInstanceBounds: Derive reads SUCH THAT and
// nothing else, so by itself it admits the empty package under a SUM
// objective, which is NULL there; search.NewInstance, which has the
// objective, intersects [1, ∞), and the bounds that gate every strategy
// are tight (bounds=[0, 2] used to print beside a one-tuple answer).
func TestObjectiveGuardTightensInstanceBounds(t *testing.T) {
	sc := schema.New(schema.Column{Name: "calories", Type: schema.TFloat}, schema.Column{Name: "protein", Type: schema.TFloat})
	rows := []schema.Row{
		{value.Float(300), value.Float(6)},
		{value.Float(400), value.Float(9)},
		{value.Float(900), value.Float(30)},
	}
	q, err := paql.Parse("SELECT PACKAGE(R) AS P FROM t R SUCH THAT COUNT(*) <= 2 MINIMIZE SUM(P.protein)")
	if err != nil {
		t.Fatal(err)
	}
	a, err := paql.Analyze(q, sc)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := search.NewInstance(nil, a, translate.NewPasses(rows), []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Bounds != (prune.Bounds{Lo: 1, Hi: 2}) {
		t.Errorf("instance bounds %s, want [1, 2]", inst.Bounds)
	}
	q.Objective = nil
	if inst, err = search.NewInstance(nil, a, translate.NewPasses(rows), []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if inst.Bounds != (prune.Bounds{Lo: 0, Hi: 2}) {
		t.Errorf("without the objective: bounds %s, want Derive's own [0, 2]", inst.Bounds)
	}
}
