package prune

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/paql"
	"repro/internal/schema"
	"repro/internal/value"
)

// fakeStats serves fixed MIN/MAX for every aggregate.
type fakeStats struct {
	min, max float64
	n        int
	ok       bool
}

func (f fakeStats) AggStats(*expr.Agg) (float64, float64, int, bool) {
	return f.min, f.max, f.n, f.ok
}

func relSchema() schema.Schema {
	return schema.New(
		schema.Column{Name: "calories", Type: schema.TFloat},
		schema.Column{Name: "kind", Type: schema.TString},
	)
}

func formula(t *testing.T, suchThat string) *paql.Query {
	t.Helper()
	q, err := paql.Parse(`SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT ` + suchThat)
	if err != nil {
		t.Fatalf("parse %q: %v", suchThat, err)
	}
	if _, err := paql.Analyze(q, relSchema()); err != nil {
		t.Fatalf("analyze %q: %v", suchThat, err)
	}
	return q
}

func TestCountBounds(t *testing.T) {
	sp := fakeStats{min: 100, max: 900, n: 50, ok: true}
	cases := []struct {
		clause string
		want   Bounds
	}{
		{`COUNT(*) = 3`, Bounds{3, 3}},
		{`COUNT(*) <= 5`, Bounds{0, 5}},
		{`COUNT(*) < 5`, Bounds{0, 4}},
		{`COUNT(*) >= 2`, Bounds{2, 50}},
		{`COUNT(*) > 2`, Bounds{3, 50}},
		{`3 = COUNT(*)`, Bounds{3, 3}},
		{`5 >= COUNT(*)`, Bounds{0, 5}},
		{`COUNT(*) BETWEEN 2 AND 6`, Bounds{2, 6}},
		{`NOT (COUNT(*) > 4)`, Bounds{0, 4}},
		{`NOT (COUNT(*) <= 4)`, Bounds{5, 50}},
	}
	for _, tc := range cases {
		q := formula(t, tc.clause)
		got := Derive(q.SuchThat, sp, 50, 1)
		if got != tc.want {
			t.Errorf("%q -> %v, want %v", tc.clause, got, tc.want)
		}
	}
}

func TestSumBoundsPaperExample(t *testing.T) {
	// The paper's example: 2000 <= SUM(calories) <= 2500 with
	// MAX(calories)=900, MIN(calories)=100:
	// l = ceil(2000/900) = 3, u = floor(2500/100) = 25.
	sp := fakeStats{min: 100, max: 900, n: 50, ok: true}
	q := formula(t, `SUM(P.calories) BETWEEN 2000 AND 2500`)
	got := Derive(q.SuchThat, sp, 50, 1)
	if got.Lo != 3 || got.Hi != 25 {
		t.Errorf("bounds = %v, want [3, 25]", got)
	}
}

func TestSumBoundsEdgeCases(t *testing.T) {
	cases := []struct {
		clause   string
		sp       fakeStats
		maxMult  int
		wantLo   int
		wantHi   int
		infeasOK bool
	}{
		// negative minimum: no upper bound from <= (a SUM comparison needs
		// one tuple: SUM over nothing is NULL, so Lo is never 0)
		{`SUM(P.calories) <= 100`, fakeStats{min: -5, max: 50, n: 10, ok: true}, 1, 1, 10, false},
		// no candidate in the selection: the SUM is NULL for every package
		{`SUM(P.calories) <= 100`, fakeStats{n: 0, ok: true}, 1, 0, 0, true},
		// all-nonpositive max with positive demand: infeasible
		{`SUM(P.calories) >= 10`, fakeStats{min: -5, max: 0, n: 10, ok: true}, 1, 0, 0, true},
		// negative rhs with nonnegative contributions: infeasible
		{`SUM(P.calories) <= -1`, fakeStats{min: 0, max: 50, n: 10, ok: true}, 1, 0, 0, true},
		// equality combines both sides
		{`SUM(P.calories) = 300`, fakeStats{min: 100, max: 100, n: 10, ok: true}, 1, 3, 3, false},
		// stats unavailable: only the non-empty floor
		{`SUM(P.calories) <= 100`, fakeStats{n: 10, ok: false}, 1, 1, 10, false},
		// REPEAT widens the clamp: n*mult
		{`SUM(P.calories) >= 200`, fakeStats{min: 10, max: 100, n: 3, ok: true}, 2, 2, 6, false},
		// demand <= 0 is satisfiable in any non-empty size
		{`SUM(P.calories) >= -5`, fakeStats{min: 10, max: 100, n: 10, ok: true}, 1, 1, 10, false},
	}
	for _, tc := range cases {
		q := formula(t, tc.clause)
		got := Derive(q.SuchThat, tc.sp, tc.sp.n, tc.maxMult)
		if tc.infeasOK {
			if !got.IsInfeasible() {
				t.Errorf("%q -> %v, want infeasible", tc.clause, got)
			}
			continue
		}
		if got.Lo != tc.wantLo || got.Hi != tc.wantHi {
			t.Errorf("%q (%+v) -> %v, want [%d, %d]", tc.clause, tc.sp, got, tc.wantLo, tc.wantHi)
		}
	}
}

func TestConjunctionDisjunction(t *testing.T) {
	sp := fakeStats{min: 100, max: 900, n: 40, ok: true}
	q := formula(t, `COUNT(*) <= 10 AND COUNT(*) >= 4`)
	if got := Derive(q.SuchThat, sp, 40, 1); got.Lo != 4 || got.Hi != 10 {
		t.Errorf("AND -> %v", got)
	}
	q = formula(t, `COUNT(*) = 2 OR COUNT(*) = 7`)
	if got := Derive(q.SuchThat, sp, 40, 1); got.Lo != 2 || got.Hi != 7 {
		t.Errorf("OR -> %v", got)
	}
	// infeasible branch of an OR is dropped
	q = formula(t, `SUM(P.calories) <= -1 OR COUNT(*) = 3`)
	if got := Derive(q.SuchThat, sp, 40, 1); got.Lo != 3 || got.Hi != 3 {
		t.Errorf("OR with infeasible branch -> %v", got)
	}
	// contradictory conjunction
	q = formula(t, `COUNT(*) = 2 AND COUNT(*) = 7`)
	if got := Derive(q.SuchThat, sp, 40, 1); !got.IsInfeasible() {
		t.Errorf("contradiction -> %v", got)
	}
}

func TestFilteredAggregatesBoundOnlyBelow(t *testing.T) {
	sp := fakeStats{min: 100, max: 900, n: 40, ok: true}
	q := formula(t, `COUNT(* WHERE P.kind = 'car') >= 2`)
	if got := Derive(q.SuchThat, sp, 40, 1); got.Lo != 2 || got.Hi != 40 {
		t.Errorf("filtered count lo -> %v", got)
	}
	q = formula(t, `COUNT(* WHERE P.kind = 'car') <= 2`)
	if got := Derive(q.SuchThat, sp, 40, 1); got.Lo != 0 || got.Hi != 40 {
		t.Errorf("filtered count hi must stay trivial -> %v", got)
	}
	q = formula(t, `SUM(P.calories WHERE P.kind = 'car') <= 500`)
	if got := Derive(q.SuchThat, sp, 40, 1); got.Hi != 40 {
		t.Errorf("filtered sum hi must stay trivial -> %v", got)
	}
	q = formula(t, `SUM(P.calories WHERE P.kind = 'car') >= 1800`)
	if got := Derive(q.SuchThat, sp, 40, 1); got.Lo != 2 {
		t.Errorf("filtered sum lo -> %v", got)
	}
}

func TestNilFormulaAndUnknownShapes(t *testing.T) {
	sp := fakeStats{min: 1, max: 2, n: 5, ok: true}
	if got := Derive(nil, sp, 5, 1); got.Lo != 0 || got.Hi != 5 {
		t.Errorf("nil formula -> %v", got)
	}
	// AVG only says the package is not empty (AVG over nothing is NULL)
	q := formula(t, `AVG(P.calories) <= 100`)
	if got := Derive(q.SuchThat, sp, 5, 1); got.Lo != 1 || got.Hi != 5 {
		t.Errorf("AVG -> %v", got)
	}
	// affine-but-not-bare aggregate comparisons stay trivial
	q = formula(t, `2 * SUM(P.calories) <= 100`)
	if got := Derive(q.SuchThat, sp, 5, 1); got.Lo != 0 || got.Hi != 5 {
		t.Errorf("scaled sum -> %v", got)
	}
	// constant FALSE formula
	q = formula(t, `FALSE`)
	if got := Derive(q.SuchThat, sp, 5, 1); !got.IsInfeasible() {
		t.Errorf("FALSE -> %v", got)
	}
	// unlimited REPEAT leaves Hi unbounded
	q = formula(t, `COUNT(*) >= 2`)
	if got := Derive(q.SuchThat, sp, 5, 0); got.Hi != Unbounded {
		t.Errorf("unlimited repeat -> %v", got)
	}
}

func TestSpaceSize(t *testing.T) {
	// n=5, bounds [2,3]: C(5,2)+C(5,3) = 10+10 = 20; full = 32.
	pruned, full := SpaceSize(5, Bounds{2, 3})
	if pruned.Cmp(big.NewInt(20)) != 0 || full.Cmp(big.NewInt(32)) != 0 {
		t.Errorf("space = %v / %v", pruned, full)
	}
	// unbounded hi clamps to n
	pruned, _ = SpaceSize(4, Bounds{0, Unbounded})
	if pruned.Cmp(big.NewInt(16)) != 0 {
		t.Errorf("unclamped = %v", pruned)
	}
	// infeasible -> 0
	pruned, _ = SpaceSize(4, Infeasible())
	if pruned.Sign() != 0 {
		t.Errorf("infeasible = %v", pruned)
	}
}

// Soundness property: brute-force every subset of a random instance;
// every satisfying package's size must fall inside the derived bounds.
func TestPropBoundsNeverLoseSolutions(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	clauses := []string{
		`SUM(P.calories) BETWEEN %d AND %d`,
		`SUM(P.calories) >= %d AND SUM(P.calories) <= %d`,
		`COUNT(*) >= 1 AND SUM(P.calories) <= %d AND SUM(P.calories) >= %d`,
	}
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(9)
		cal := make([]float64, n)
		mn, mx := 1e18, -1e18
		for i := range cal {
			cal[i] = float64(50 + rng.Intn(900))
			mn = minf(mn, cal[i])
			mx = maxf(mx, cal[i])
		}
		a := 200 + rng.Intn(1500)
		b := a + rng.Intn(1500)
		var src string
		switch clauses[trial%len(clauses)] {
		case clauses[0]:
			src = `SUM(P.calories) BETWEEN ` + itoa(a) + ` AND ` + itoa(b)
		case clauses[1]:
			src = `SUM(P.calories) >= ` + itoa(a) + ` AND SUM(P.calories) <= ` + itoa(b)
		default:
			src = `COUNT(*) >= 1 AND SUM(P.calories) <= ` + itoa(b) + ` AND SUM(P.calories) >= ` + itoa(a)
		}
		q := formula(t, src)
		sp := fakeStats{min: mn, max: mx, n: n, ok: true}
		bounds := Derive(q.SuchThat, sp, n, 1)
		// Enumerate all subsets and verify via the real evaluator.
		for mask := 0; mask < 1<<n; mask++ {
			var rows []schema.Row
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					rows = append(rows, schema.Row{value.Float(cal[i]), value.Str("x")})
				}
			}
			ok, err := paql.Satisfies(q.SuchThat, rows)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				k := len(rows)
				if k < bounds.Lo || k > bounds.Hi {
					t.Fatalf("trial %d: valid package of size %d outside bounds %v (clause %s)",
						trial, k, bounds, src)
				}
			}
		}
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
func itoa(i int) string { return value.Int(int64(i)).String() }
