// Package viz implements the paper's §3.2 presentation abstraction:
// "the system analyzes the current query specification and selects two
// dimensions to visually layout the valid packages along". A Summary
// places each package in a 2-D space of aggregate values; RenderASCII
// draws the glyph scatter the demo's visual summary shows (packages as
// 'o', the current one as '@'), and the struct marshals to JSON for the
// web UI.
package viz

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/paql"
	"repro/internal/schema"
	"repro/internal/value"
)

// Point is one package's position in the 2-D summary.
type Point struct {
	Index   int     `json:"index"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Obj     float64 `json:"objective"`
	Size    int     `json:"size"`
	Current bool    `json:"current"`
}

// Summary is the 2-D layout of a package set.
type Summary struct {
	XLabel string  `json:"xLabel"`
	YLabel string  `json:"yLabel"`
	Points []Point `json:"points"`
	// Running mirrors the demo UI's "Running indicates incomplete
	// result space": true when the producing search was not exhaustive.
	Running bool `json:"running"`
}

// Summarize lays out packages along two automatically chosen aggregate
// dimensions. currentIdx highlights one package (-1 for none); running
// marks the result space incomplete.
func Summarize(prep *core.Prepared, pkgs []*core.Package, currentIdx int, running bool) (*Summary, error) {
	if len(pkgs) == 0 {
		return &Summary{Running: running}, nil
	}
	dims := candidateDims(prep)
	if len(dims) < 2 {
		return nil, fmt.Errorf("viz: need at least two numeric dimensions, have %d", len(dims))
	}
	// Evaluate every dimension for every package, then pick the two
	// with the largest normalized spread.
	vals := make([][]float64, len(dims))
	for d, agg := range dims {
		vals[d] = make([]float64, len(pkgs))
		for i, p := range pkgs {
			v, err := paql.EvalAgg(agg, p.Rows)
			if err != nil {
				return nil, err
			}
			f, _ := v.AsFloat()
			vals[d][i] = f
		}
	}
	xi, yi := pickDims(vals)
	s := &Summary{
		XLabel:  dims[xi].String(),
		YLabel:  dims[yi].String(),
		Running: running,
	}
	for i, p := range pkgs {
		s.Points = append(s.Points, Point{
			Index: i, X: vals[xi][i], Y: vals[yi][i],
			Obj: p.Objective, Size: p.Size(), Current: i == currentIdx,
		})
	}
	return s, nil
}

// candidateDims gathers aggregate dimensions: the query's own
// aggregates first (most meaningful to the user), then SUMs over the
// relation's numeric columns.
func candidateDims(prep *core.Prepared) []*expr.Agg {
	var dims []*expr.Agg
	seen := map[string]bool{}
	add := func(a *expr.Agg) {
		k := a.String()
		if !seen[k] {
			seen[k] = true
			dims = append(dims, a)
		}
	}
	for _, a := range prep.Analysis.Aggs {
		if a.Fn == "COUNT" && a.Filter == nil {
			continue // COUNT(*) is constant across equal-size packages
		}
		add(a)
	}
	rv := prep.Query.RelVar
	for _, c := range prep.Table.Schema.Cols {
		if !c.Type.Numeric() || keyLike(c.Name) {
			continue
		}
		col := &expr.Agg{Fn: "SUM", Arg: boundCol(prep, rv, c)}
		add(col)
	}
	return dims
}

// keyLike filters surrogate-key columns out of the dimension pool:
// summing row ids tells the user nothing about the package.
func keyLike(name string) bool {
	ln := strings.ToLower(name)
	return ln == "id" || ln == "rowid" || strings.HasSuffix(ln, "_id")
}

func boundCol(prep *core.Prepared, rv string, c schema.Column) *colExpr {
	ord, _ := prep.Table.Schema.IndexOf("", c.Name)
	return &colExpr{table: rv, name: c.Name, ord: ord}
}

// pickDims chooses the two dimensions with the largest coefficient of
// variation, requiring distinct dimensions.
func pickDims(vals [][]float64) (int, int) {
	type scored struct {
		idx   int
		score float64
	}
	var sc []scored
	for d, vs := range vals {
		mean, sd := meanStd(vs)
		score := sd
		if math.Abs(mean) > 1e-12 {
			score = sd / math.Abs(mean)
		}
		sc = append(sc, scored{d, score})
	}
	bestX, bestY := 0, 1
	bx, by := -1.0, -2.0
	for _, s := range sc {
		if s.score > bx {
			bestY, by = bestX, bx
			bestX, bx = s.idx, s.score
		} else if s.score > by {
			bestY, by = s.idx, s.score
		}
	}
	return bestX, bestY
}

func meanStd(vs []float64) (float64, float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	m := 0.0
	for _, v := range vs {
		m += v
	}
	m /= float64(len(vs))
	ss := 0.0
	for _, v := range vs {
		ss += (v - m) * (v - m)
	}
	return m, math.Sqrt(ss / float64(len(vs)))
}

// RenderASCII draws the scatter as a width×height character grid with
// axis labels. Packages render as 'o', the current one as '@';
// overlapping packages show as '*'.
func (s *Summary) RenderASCII(w io.Writer, width, height int) {
	if width < 20 {
		width = 20
	}
	if height < 6 {
		height = 6
	}
	if len(s.Points) == 0 {
		fmt.Fprintln(w, "(no packages to display)")
		return
	}
	xmin, xmax := rangeOf(s.Points, func(p Point) float64 { return p.X })
	ymin, ymax := rangeOf(s.Points, func(p Point) float64 { return p.Y })
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	place := func(v, lo, hi float64, steps int) int {
		if hi-lo < 1e-12 {
			return steps / 2
		}
		i := int(math.Round((v - lo) / (hi - lo) * float64(steps-1)))
		if i < 0 {
			i = 0
		}
		if i >= steps {
			i = steps - 1
		}
		return i
	}
	for _, p := range s.Points {
		cx := place(p.X, xmin, xmax, width)
		cy := height - 1 - place(p.Y, ymin, ymax, height)
		cur := grid[cy][cx]
		switch {
		case p.Current:
			grid[cy][cx] = '@'
		case cur == ' ':
			grid[cy][cx] = 'o'
		case cur == 'o':
			grid[cy][cx] = '*'
		}
	}
	status := ""
	if s.Running {
		status = "  [running: result space incomplete]"
	}
	fmt.Fprintf(w, "%s (vertical) vs %s (horizontal)%s\n", s.YLabel, s.XLabel, status)
	fmt.Fprintf(w, "%10.4g ┤%s\n", ymax, string(grid[0]))
	for r := 1; r < height-1; r++ {
		fmt.Fprintf(w, "%10s │%s\n", "", string(grid[r]))
	}
	fmt.Fprintf(w, "%10.4g ┤%s\n", ymin, string(grid[height-1]))
	fmt.Fprintf(w, "%10s └%s\n", "", strings.Repeat("─", width))
	fmt.Fprintf(w, "%10s  %-*.4g%*.4g\n", "", width/2, xmin, width-width/2, xmax)
}

func rangeOf(pts []Point, f func(Point) float64) (float64, float64) {
	lo, hi := f(pts[0]), f(pts[0])
	for _, p := range pts[1:] {
		v := f(p)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// colExpr is a pre-bound column reference usable inside viz-made
// aggregates without re-binding.
type colExpr struct {
	table, name string
	ord         int
}

// Eval reads the column from the row.
func (c *colExpr) Eval(row schema.Row) (value.V, error) {
	if c.ord < 0 || c.ord >= len(row) {
		return value.Null(), fmt.Errorf("viz: column %s.%s out of range", c.table, c.name)
	}
	return row[c.ord], nil
}

// String renders the qualified name.
func (c *colExpr) String() string { return c.table + "." + c.name }
