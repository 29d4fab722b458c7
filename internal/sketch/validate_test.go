package sketch

import (
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

// TestValidateRefusesEveryMalformedTree: a persisted tree is untrusted
// input, so each refusal of validateStructure and validateAgainst gets
// one malformed tree — a valid depth-2 tree over three one-column rows
// with one thing broken — and must name what it found.
func TestValidateRefusesEveryMalformedTree(t *testing.T) {
	rows := []schema.Row{{value.Int(1)}, {value.Int(2)}, {value.Int(3)}}
	rep := func() schema.Row { return schema.Row{value.Float(2)} }
	valid := func() *Tree {
		return &Tree{Attrs: []int{0}, Tau: 2, Depth: 2, Levels: [][]Node{
			{{Children: []int{0, 1}, Rep: rep()}},
			{{Tuples: []int{0, 1}, Rep: rep()}, {Tuples: []int{2}, Rep: rep()}},
		}}
	}
	if err := valid().validateStructure(); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	if err := valid().validateAgainst(rows); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Tree)
		want   string
	}{
		{"depth", func(tr *Tree) { tr.Depth = 3 }, "depth 3 but 2 levels"},
		{"negative ordinal", func(tr *Tree) { tr.Attrs = []int{-1} }, "negative attribute ordinal -1"},
		{"empty level", func(tr *Tree) { tr.Levels[0] = nil }, "level 0 is empty"},
		{"no representative", func(tr *Tree) { tr.Levels[1][1].Rep = nil }, "level 1 node 1 has no representative"},
		{"leaf with children", func(tr *Tree) { tr.Levels[1][0].Children = []int{0} }, "leaf node 0 has children"},
		{"empty leaf", func(tr *Tree) { tr.Levels[1][1].Tuples = nil }, "leaf node 1 covers no tuples"},
		{"negative tuple", func(tr *Tree) { tr.Levels[1][1].Tuples = []int{-2} }, "leaf node 1: tuple index -2 negative or out of order"},
		{"tuples out of order", func(tr *Tree) { tr.Levels[1][0].Tuples = []int{1, 0} }, "leaf node 0: tuple index 0 negative or out of order"},
		{"tuples above the leaves", func(tr *Tree) { tr.Levels[0][0].Tuples = []int{0} }, "level 0 node 0 above the leaves holds tuples"},
		{"childless internal node", func(tr *Tree) { tr.Levels[0][0].Children = nil }, "level 0 node 0 has no children"},
		{"child outside the level", func(tr *Tree) { tr.Levels[0][0].Children = []int{0, 2} }, "level 0 node 0: child index 2 outside level 1 (2 nodes)"},
		{"orphan", func(tr *Tree) { tr.Levels[0][0].Children = []int{0} }, "level 1 node 1 has 0 parents"},
		{"two parents", func(tr *Tree) { tr.Levels[0][0].Children = []int{0, 1, 1} }, "level 1 node 1 has 2 parents"},
		{"ordinal past the row width", func(tr *Tree) { tr.Attrs = []int{1} }, "attribute ordinal 1 outside 1-column rows"},
		{"representative width", func(tr *Tree) { tr.Levels[0][0].Rep = schema.Row{value.Int(1), value.Int(2)} }, "level 0 node 0: 2-column representative for 1-column rows"},
		{"tuple past the candidates", func(tr *Tree) { tr.Levels[1][1].Tuples = []int{3} }, "leaf 1: tuple index 3 outside 3 candidates"},
		{"tuple in two leaves", func(tr *Tree) { tr.Levels[1][1].Tuples = []int{1} }, "tuple 1 covered by two leaves"},
		{"uncovered candidate", func(tr *Tree) { tr.Levels[1][0].Tuples = []int{0} }, "leaves cover 2 of 3 candidates"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := valid()
			c.mutate(tr)
			err := tr.validateStructure()
			if err == nil {
				err = tr.validateAgainst(rows)
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, want an error naming %q", err, c.want)
			}
		})
	}
}
