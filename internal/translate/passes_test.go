package translate

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/paql"
	"repro/internal/schema"
)

// One pass store serves every compilation over its candidates: the search
// atoms, §4.1's statistics, the exact MILP and the sketch branches of one
// query fold each selection once between them, and a second query of the
// shape — another parse, other constants — folds nothing.
func TestPassStoreFoldsEachSelectionOnce(t *testing.T) {
	rows := testRows()
	ps := NewPasses(rows)
	shape := `SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN %d AND %d AND MIN(P.price) >= 2
		MAXIMIZE SUM(P.protein)`
	var models []*Model
	for i, lo := range []int{1200, 1300} {
		a := analyze(t, replaceAll(replaceAll(shape, "%d AND %d", itoa(lo)+" AND "+itoa(lo+800)), "\t", " "))
		if _, _, _, _, err := ps.ConjunctiveAtoms(nil, a); err != nil {
			t.Fatal(err)
		}
		for _, agg := range a.Aggs {
			if agg.Fn == "SUM" {
				if _, _, n, ok := ps.AggStats(nil, agg); !ok || n != len(rows) {
					t.Fatalf("AggStats(%s) = n %d, ok %v", agg, n, ok)
				}
			}
		}
		m, err := ps.Translate(nil, a, make([]int, len(rows)))
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
		branches, _, err := ps.CompileSketch(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, br := range branches {
			if _, _, err := br.Weigh(nil, rows); err != nil {
				t.Fatal(err)
			}
		}
		// calories, protein, price.
		if got := ps.Folds(); got != 3 {
			t.Fatalf("query %d: the store has made %d folds, want 3 in all", i+1, got)
		}
	}
	// Bound to the store or not, a compilation weighs the same numbers.
	a := analyze(t, replaceAll(shape, "%d AND %d", "1200 AND 2000"))
	own, err := Translate(a, rows, make([]int, len(rows)))
	if err != nil {
		t.Fatal(err)
	}
	bound, free := models[0].MILP.LP, own.MILP.LP
	if bound.NumRows() != free.NumRows() {
		t.Fatalf("the store-bound model has %d rows, the package function's %d", bound.NumRows(), free.NumRows())
	}
	for i := 0; i < free.NumRows(); i++ {
		if !reflect.DeepEqual(bound.Row(i), free.Row(i)) {
			t.Errorf("row %d: store-bound %+v, package function's %+v", i, bound.Row(i), free.Row(i))
		}
	}
	for j := 0; j < free.NumVars(); j++ {
		if bound.ObjectiveCoef(j) != free.ObjectiveCoef(j) {
			t.Errorf("objective coefficient %d: %g vs %g", j, bound.ObjectiveCoef(j), free.ObjectiveCoef(j))
		}
	}
}

// The store keeps one weight vector per compiled form: every compilation
// of a shape — the search atoms, the exact MILP, the sketch branches, of
// this query and of the next with other constants — reads the same one,
// the constants landing in the right-hand sides. A lone SUM with
// coefficient 1 is its selection's numbers, uncopied. What a constant
// reaches — AVG's −c·COUNT, a selector's threshold — is weighed per query.
func TestPassStoreWeighsEachFormOnce(t *testing.T) {
	rows := testRows()
	ps := NewPasses(rows)
	shape := `SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN %d AND 2500 AND SUM(P.calories) - 2 * SUM(P.protein) <= %d
		AND AVG(P.price) <= %d AND MIN(P.price) >= %d
		MAXIMIZE SUM(P.protein)`
	var objW, calW, avgW []float64
	for i, k := range []int{2, 3} {
		a := analyze(t, replaceAll(replaceAll(shape, "%d", itoa(700*k)), "\t", " "))
		atoms, _, w, _, err := ps.ConjunctiveAtoms(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ps.Translate(nil, a, make([]int, len(rows))); err != nil {
			t.Fatal(err)
		}
		branches, _, err := ps.CompileSketch(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, rowsOf, err := branches[0].Weigh(nil, rows)
		if err != nil {
			t.Fatal(err)
		}
		// COUNT(*), SUM(calories), SUM(calories) − 2·SUM(protein), SUM(protein).
		if got := ps.Weighed(); got != 4 {
			t.Fatalf("query %d: the store has composed %d weight vectors, want 4 in all", i+1, got)
		}
		between := slices.Concat(rowsOf[1], rowsOf[2]) // SUM(calories) ≥ k, ≤ 2500; COUNT(*) = 3 implies every guard
		if &between[0].W[0] != &between[1].W[0] || &between[0].W[0] != &atoms[2].W[0] || atoms[2].Source != between[0].Source {
			t.Errorf("query %d: the two rows of one BETWEEN and its search atom weigh with different vectors", i+1)
		}
		if i == 0 {
			objW, calW, avgW = w, between[0].W, rowsOf[4][0].W
			continue
		}
		if &w[0] != &objW[0] || &between[0].W[0] != &calW[0] {
			t.Error("the second query of the shape composed its weights again")
		}
		if &rowsOf[4][0].W[0] == &avgW[0] || rowsOf[4][0].Source != "(AVG(R.price) <= 2100)" {
			t.Errorf("the AVG rewrite %s kept its weights across constants", rowsOf[4][0].Source)
		}
	}
	sum := analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R MAXIMIZE SUM(P.protein)`).Aggs[0]
	protein, err := ps.pass(nil, selectionKey(sum), sum)
	if err != nil || &protein.num[0] != &objW[0] {
		t.Errorf("the objective SUM(protein) is a copy of its selection's numbers (err %v)", err)
	}

	// −0 is the one number 0 + 1·v changes: a selection holding one is
	// composed, so the weights are what the arithmetic gives.
	negZero := NewPasses([]schema.Row{mkRow(1, math.Copysign(0, -1), 1, "meal", 1), mkRow(2, 5, 1, "meal", 1)})
	a := analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R MAXIMIZE SUM(P.calories)`)
	_, _, w, _, err := negZero.ConjunctiveAtoms(nil, a)
	if err != nil || math.Signbit(w[0]) || w[1] != 5 {
		t.Errorf("weights over a −0 cell: %v (err %v), want +0 and 5", w, err)
	}
}

// A branch compiled against a store weighs other rows — a sketch level's
// representatives — for itself and leaves the store alone.
func TestPassStoreIsOnlyForItsOwnRows(t *testing.T) {
	rows := testRows()
	ps := NewPasses(rows)
	a := analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT SUM(P.calories) <= 2000 MAXIMIZE SUM(P.protein)`)
	branches, _, err := ps.CompileSketch(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	reps := slices.Clone(rows[:3])
	_, over, err := branches[0].Weigh(nil, reps)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Folds() != 0 {
		t.Errorf("weighing %d other rows made %d folds in the store", len(reps), ps.Folds())
	}
	if got := over[0][0].W; !slices.Equal(got, []float64{300, 550, 150}) {
		t.Errorf("weights over the other rows = %v", got)
	}
}

// pollCtx counts Err calls and reports cancellation from the fireAt-th on.
type pollCtx struct {
	context.Context
	polls  atomic.Int64
	fireAt int64
}

func (c *pollCtx) Err() error {
	if n := c.polls.Add(1); c.fireAt > 0 && n >= c.fireAt {
		return context.Canceled
	}
	return nil
}

// The fold is the one loop of this package that is linear in the
// candidates: it looks at its context once per PollRows rows, the poll
// that fires ends it, and nothing of a canceled fold is kept — the next
// asker folds from the start.
func TestPassFoldPollsStop(t *testing.T) {
	const n = 5*PollRows + 17
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = mkRow(i, float64(i%700), 10, "meal", 5)
	}
	ps := NewPasses(rows)
	a := analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT COUNT(*) = 3 AND AVG(P.calories) <= 400`)
	branches, _, err := ps.CompileSketch(a, 0)
	if err != nil {
		t.Fatal(err)
	}

	fired := &pollCtx{Context: context.Background(), fireAt: 4}
	if _, _, err := branches[0].Weigh(fired, rows); !errors.Is(err, lifecycle.ErrCanceled) {
		t.Fatalf("canceled weighing: err = %v, want ErrCanceled", err)
	}
	if got := fired.polls.Load(); got != 4 {
		t.Errorf("%d polls with the 4th firing; the firing poll must be the last", got)
	}

	counting := &pollCtx{Context: context.Background()}
	if _, _, err := branches[0].Weigh(counting, rows); err != nil {
		t.Fatal(err)
	}
	if ps.Folds() != 2 {
		t.Errorf("%d folds after a canceled and a clean weighing of one selection, want 2: a canceled fold is not kept", ps.Folds())
	}
	// One poll per atom (weighConjunction's), one per PollRows rows of the
	// one fold.
	if got, min := counting.polls.Load(), int64((n+PollRows-1)/PollRows); got < min || got > min+8 {
		t.Errorf("%d polls over %d rows, want about %d", got, n, min)
	}
	before := counting.polls.Load()
	if _, _, err := branches[0].Weigh(counting, rows); err != nil {
		t.Fatal(err)
	}
	if ps.Folds() != 2 || counting.polls.Load()-before > 8 {
		t.Errorf("a second weighing folded again: %d folds, %d polls", ps.Folds(), counting.polls.Load()-before)
	}
}

// The store keeps passes under the rendered (argument, filter) pair, so
// the rendering must tell apart any two pairs that select or weigh tuples
// differently: equal keys across two parses must mean equal passes, and
// the pairs below — alike but for a literal's type, a quote, a pair of
// parentheses, a constant — must get distinct keys or identical passes.
func TestSelectionKeysAreInjective(t *testing.T) {
	rows := append(testRows(), mkRow(9, 500, 20, "it's", 7), mkRow(10, 500, 20, "it", 8))
	agg := func(text string) *paql.Agg {
		t.Helper()
		a := analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT `+text+` >= 0`)
		if len(a.Aggs) != 1 {
			t.Fatalf("%s: %d aggregates", text, len(a.Aggs))
		}
		return a.Aggs[0]
	}
	fold := func(a *paql.Agg) (*pass, error) { return foldTerms(nil, a, rows) }
	same := func(p, q *pass) bool {
		return slices.Equal(p.num, q.num) && slices.Equal(p.present, q.present) && (p.nonNum == nil) == (q.nonNum == nil)
	}

	for _, text := range []string{
		`SUM(P.calories)`, `COUNT(*)`, `SUM(P.calories WHERE P.kind = 'it''s')`,
		`SUM(P.calories * 2.0 WHERE P.price > 5 AND (P.kind = 'meal' OR P.id % 2 = 0))`,
	} {
		if k1, k2 := selectionKey(agg(text)), selectionKey(agg(text)); k1 != k2 {
			t.Errorf("%s: two parses, two keys: %q and %q", text, k1, k2)
		}
	}
	// SUM and COUNT over one pair share its selection.
	if k1, k2 := selectionKey(agg(`SUM(P.price WHERE P.kind = 'meal')`)), selectionKey(agg(`COUNT(P.price WHERE P.kind = 'meal')`)); k1 != k2 {
		t.Errorf("SUM and COUNT of one (argument, filter) pair got keys %q and %q", k1, k2)
	}

	for _, pair := range [][2]string{
		{`SUM(P.id % 2)`, `SUM(P.id % 2.0)`},                                // literal type: % takes integers only
		{`SUM(P.id * 2)`, `SUM(P.id * 2.0)`},                                // literal type: an INTEGER product, a FLOAT one
		{`SUM(P.calories / 2)`, `SUM(P.calories / 2.0)`},                    // literal type, same numbers
		{`COUNT(* WHERE P.kind = 'it''s')`, `COUNT(* WHERE P.kind = 'it')`}, // quoting
		{`COUNT(* WHERE P.kind = 'a'' OR P.kind = ''b')`, `COUNT(* WHERE P.kind = 'a' OR P.kind = 'b')`},
		{`COUNT(* WHERE P.kind = '1')`, `COUNT(* WHERE P.id = 1)`},
		{`SUM(P.calories WHERE P.price > 5 AND (P.id > 3 OR P.kind = 'snack'))`, `SUM(P.calories WHERE (P.price > 5 AND P.id > 3) OR P.kind = 'snack')`}, // parenthesisation
		{`SUM(P.calories - (P.protein - P.price))`, `SUM((P.calories - P.protein) - P.price)`},
		{`SUM(P.calories WHERE P.price >= 5)`, `SUM(P.calories WHERE P.price >= 6)`}, // constant
		{`SUM(P.calories WHERE P.price >= 5)`, `SUM(P.calories WHERE P.price > 5)`},
		{`SUM(P.calories)`, `SUM(R.calories)`}, // alias: the package variable is the relation variable
	} {
		a, b := agg(pair[0]), agg(pair[1])
		if selectionKey(a) != selectionKey(b) {
			continue
		}
		pa, errA := fold(a)
		pb, errB := fold(b)
		if (errA == nil) != (errB == nil) || (errA == nil && !same(pa, pb)) {
			t.Errorf("%s and %s share the key %q and do not fold alike (errors: %v, %v)", pair[0], pair[1], selectionKey(a), errA, errB)
		}
	}
}
