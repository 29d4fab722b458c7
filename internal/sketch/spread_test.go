package sketch

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lifecycle"
	"repro/internal/paql"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/translate"
	"repro/internal/value"
)

// firingCtx counts Err calls and reports cancellation from the fireAt-th on.
type firingCtx struct {
	context.Context
	polls  atomic.Int64
	fireAt int64
}

func (c *firingCtx) Err() error {
	if n := c.polls.Add(1); c.fireAt > 0 && n >= c.fireAt {
		return context.Canceled
	}
	return nil
}

// The distance scales come off the pass store now: (*translate.Passes).Spread
// must be rowScales, bit for bit, on columns of every mix of NULL, bool,
// text, int, ±0, ±Inf, NaN and float cells — constant, all-NULL and empty
// columns among them.
func TestSpreadIsRowScales(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	kinds := []func() value.V{
		func() value.V { return value.Null() },
		func() value.V { return value.Bool(rng.Intn(2) == 0) },
		func() value.V { return value.Str("x") },
		func() value.V { return value.Int(int64(rng.Intn(21) - 10)) },
		func() value.V { return value.Float(math.Copysign(0, -1)) },
		func() value.V { return value.Float(0) },
		func() value.V { return value.Float(math.Inf(2*rng.Intn(2) - 1)) },
		func() value.V { return value.Float(math.NaN()) },
		func() value.V { return value.Float(math.Round(rng.NormFloat64()*1000) / 8) },
	}
	const width = 6
	for trial := 0; trial < 2000; trial++ {
		// Each column draws from its own few kinds, so many are constant,
		// all-NULL, integer-only or free of any non-number.
		palette := make([][]func() value.V, width)
		for c := range palette {
			for range 1 + rng.Intn(3) {
				palette[c] = append(palette[c], kinds[rng.Intn(len(kinds))])
			}
		}
		rows := make([]schema.Row, rng.Intn(25))
		for i := range rows {
			rows[i] = make(schema.Row, width)
			for c := range rows[i] {
				rows[i][c] = palette[c][rng.Intn(len(palette[c]))]()
			}
		}
		ps := translate.NewPasses(rows)
		attrs := []int{0, 1, 2, 3, 4, 5}
		want := rowScales(rows, attrs)
		for ai, col := range attrs {
			got, err := ps.Spread(nil, col)
			if err != nil || math.Float64bits(got) != math.Float64bits(want[ai]) {
				t.Fatalf("trial %d, column %d of %d rows: Spread %v (err %v), rowScales %v", trial, col, len(rows), got, err, want[ai])
			}
		}
	}
}

// The spread's fold is the one pass over the candidates a distance costs: it
// polls every translate.PollRows rows, the poll that fires ends it — so a
// canceled context stops it within PollRows rows — and the canceled fold is
// not kept: the next asker folds and gets the spread.
func TestSpreadPollsStop(t *testing.T) {
	const n = 5*translate.PollRows + 17
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{value.Float(float64(i % 977))}
	}
	ps := translate.NewPasses(rows)
	for _, fireAt := range []int64{1, 3, 6} {
		ctx := &firingCtx{Context: context.Background(), fireAt: fireAt}
		if _, err := ps.Spread(ctx, 0); !errors.Is(err, lifecycle.ErrCanceled) {
			t.Fatalf("fireAt=%d: err = %v, want ErrCanceled", fireAt, err)
		}
		if got := ctx.polls.Load(); got != fireAt {
			t.Errorf("fireAt=%d: %d polls; the firing poll must be the last", fireAt, got)
		}
	}
	if got, err := ps.Spread(context.Background(), 0); err != nil || got != 976 || ps.Folds() != 4 {
		t.Errorf("after three canceled folds: spread %v (err %v) after %d folds, want 976 after 4", got, err, ps.Folds())
	}
	m := &metric{ctx: &firingCtx{Context: context.Background(), fireAt: 1}, passes: translate.NewPasses(rows), attrs: []int{0}}
	if d := m.dist(rows[0], rows[976]); d != 976*976 {
		t.Errorf("a canceled metric's distance %v, want the unscaled %v", d, 976*976)
	}
}

// A solve patches over its instance's pass store, whose folds give the
// insert router its scales: the tree is the one ApplyDelta makes over a
// throwaway store, node for node, and the patch folds nothing the query
// had not folded.
func TestPatchReadsTheStoresFolds(t *testing.T) {
	q, err := paql.Parse(`SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein)`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := paql.Analyze(q, dataset.RecipesSchema())
	if err != nil {
		t.Fatal(err)
	}
	instance := func(rows []schema.Row) *search.Instance {
		t.Helper()
		inst, err := search.NewInstance(context.Background(), a, translate.NewPasses(rows), make([]int, len(rows)))
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	rows := dataset.Recipes(dataset.RecipesConfig{N: 3000, Seed: 7})
	opts := Options{MaxPartitionSize: 32, Depth: 2, Seed: 1}
	base := BuildTree(instance(rows), opts)

	remap := make([]int, len(rows))
	var next []schema.Row
	for i, row := range rows {
		if i%97 == 5 {
			remap[i] = -1
			continue
		}
		remap[i] = len(next)
		next = append(next, row)
	}
	next = append(next, dataset.Recipes(dataset.RecipesConfig{N: 120, Seed: 8})...)
	inst := instance(next)
	folds := inst.Passes.Folds()

	want, ok := base.ApplyDelta(next, remap, opts)
	if !ok {
		t.Fatal("ApplyDelta refused a 3% delta")
	}
	got, err := base.patch(inst, remap, opts)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatal("the patch over the instance's store is not ApplyDelta's tree")
	}
	if inst.Passes.Folds() != folds {
		t.Errorf("the patch folded %d selections; the query had folded every attribute it routes by", inst.Passes.Folds()-folds)
	}
}
