package translate

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/schema"
	"repro/internal/value"
)

// advanceQuery asks for plain, filtered, computed and counting selections
// over calories — whose cells the rows below make NULL, −0, NaN, int, bool
// or text — protein, which is NULL now and then and whose least numbers
// are −0 and +0, and price, whose fifteen values tie at both ends.
const advanceQuery = `SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT COUNT(*) <= 5
	AND COUNT(* WHERE P.kind = 'meal') >= 1 AND SUM(P.price WHERE P.protein > 20) <= 40
	AND SUM(P.protein * 2.0) <= 300 AND COUNT(P.calories) >= 0 AND SUM(P.calories) <= 3000
	AND SUM(P.price) <= 1000 MAXIMIZE SUM(P.protein)`

// advanceRow draws a recipe row; textual, boolean and NULL calories are
// rare enough that many sets have none of them.
func advanceRow(rng *rand.Rand, id int) schema.Row {
	row := mkRow(id, float64(rng.Intn(900)), float64(rng.Intn(50)), []string{"meal", "snack"}[rng.Intn(2)], float64(1+rng.Intn(15)))
	switch rng.Intn(40) {
	case 0:
		row[1] = value.Null()
	case 1:
		row[1] = value.Float(math.Copysign(0, -1))
	case 2:
		row[1] = value.Int(int64(rng.Intn(900)))
	case 3:
		row[1] = value.Bool(rng.Intn(2) == 0)
	case 4:
		row[1] = value.Str("lots")
	case 5:
		row[1] = value.Float(math.NaN())
	}
	switch rng.Intn(10) {
	case 0:
		row[2] = value.Null()
	case 1:
		row[2] = value.Float(math.Copysign(0, -1)) // −0 beside the +0s: the least protein
	}
	return row
}

// sameFold reports whether two passes are one fold, floats by their bits.
func sameFold(p, q *pass) bool {
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	return slices.Equal(bits(p.num), bits(q.num)) && slices.Equal(p.present, q.present) &&
		math.Float64bits(p.lo) == math.Float64bits(q.lo) && math.Float64bits(p.hi) == math.Float64bits(q.hi) &&
		p.n == q.n && errText(p.nonNum) == errText(q.nonNum)
}

// An advanced store is the store a fold over its rows makes: every fold it
// carried equals a fresh fold of the same selection bit for bit, a fold
// holding a non-number is not carried, nothing is folded again, the weight
// vectors composed from the carried folds and every column's Spread are
// the fresh store's — and the store it advanced from, slices included, is
// left as it was. The writes delete nothing, some, or every tuple, and
// append none or some.
func TestAdvanceCarriesEveryFoldExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := analyze(t, advanceQuery)
	nextID := 0
	draw := func(n int) []schema.Row {
		rows := make([]schema.Row, n)
		for i := range rows {
			rows[i] = advanceRow(rng, nextID)
			nextID++
		}
		return rows
	}
	carried, dropped := 0, 0
	for trial := 0; trial < 300; trial++ {
		old := draw(rng.Intn(60))
		ps := NewPasses(old)
		ps.ConjunctiveAtoms(nil, a) // fails on a non-number under SUM; AggStats below folds the rest
		for _, agg := range a.Aggs {
			ps.AggStats(nil, agg)
		}
		before := map[string]*pass{}
		copies := map[string]*pass{}
		for key, slot := range ps.slots {
			if p := slot.Peek(); p != nil {
				before[key] = p
				copies[key] = &pass{num: slices.Clone(p.num), present: slices.Clone(p.present), lo: p.lo, hi: p.hi, n: p.n, nonNum: p.nonNum}
			}
		}

		remap := make([]int, len(old))
		var rows []schema.Row
		mode := rng.Intn(4) // 0: keep all, 1: delete some, 2: delete all, 3: delete some
		for i := range old {
			if mode == 2 || (mode != 0 && rng.Intn(3) == 0) {
				remap[i] = -1
				continue
			}
			remap[i] = len(rows)
			rows = append(rows, old[i])
		}
		rows = append(rows, draw(rng.Intn(12))...)

		next, err := ps.Advance(context.Background(), rows, remap)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fresh := NewPasses(rows)
		drops := 0
		for key, p := range before {
			slot := next.slots[key]
			if p.nonNum != nil {
				if slot != nil {
					t.Fatalf("trial %d: %s holds a non-number and was carried", trial, key)
				}
				drops++
				continue
			}
			if slot == nil || slot.Peek() == nil {
				t.Fatalf("trial %d: %s was not carried", trial, key)
			}
			want, err := foldTerms(nil, p.agg, rows)
			if err != nil {
				t.Fatal(err)
			}
			if !sameFold(slot.Peek(), want) {
				t.Fatalf("trial %d: %s carried %+v, a fold makes %+v", trial, key, *slot.Peek(), *want)
			}
			if !sameFold(p, copies[key]) {
				t.Fatalf("trial %d: advancing changed the old store's %s", trial, key)
			}
			carried++
		}

		dropped += drops
		gotAtoms, _, gotW, _, errGot := next.ConjunctiveAtoms(nil, a)
		wantAtoms, _, wantW, _, errWant := fresh.ConjunctiveAtoms(nil, a)
		if next.Folds() > drops {
			t.Fatalf("trial %d: the advanced store folded %d times; only the %d selections it dropped may fold again", trial, next.Folds(), drops)
		}
		if (errGot == nil) != (errWant == nil) || (errGot != nil && errGot.Error() != errWant.Error()) {
			t.Fatalf("trial %d: advanced store: %v, fresh store: %v", trial, errGot, errWant)
		}
		sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
		if !slices.EqualFunc(gotW, wantW, sameBits) || len(gotAtoms) != len(wantAtoms) {
			t.Fatalf("trial %d: objective weights %v and %d atoms, fresh %v and %d", trial, gotW, len(gotAtoms), wantW, len(wantAtoms))
		}
		for k := range gotAtoms {
			if !slices.EqualFunc(gotAtoms[k].W, wantAtoms[k].W, sameBits) {
				t.Fatalf("trial %d: %s weighs %v, fresh %v", trial, gotAtoms[k].Source, gotAtoms[k].W, wantAtoms[k].W)
			}
		}
		for col := range relSchema().Len() {
			got, err1 := next.Spread(nil, col)
			want, err2 := fresh.Spread(nil, col)
			if err1 != nil || err2 != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: column %d spreads %v (%v), fresh %v (%v)", trial, col, got, err1, want, err2)
			}
		}
	}
	if carried == 0 || dropped == 0 {
		t.Errorf("the corpus carried %d folds and dropped %d; it exercises too little", carried, dropped)
	}
}

// An advance looks at its context before each fold it carries and once per
// PollRows tuples it reads again: deleting the first tuple takes the least
// calories, which no survivor holds — a search of every survivor, then a
// second pass for the minimum — and the least protein, which the 50th tuple
// holds too, found at the first poll. The poll that fires ends the advance
// with the context's error, and the store it advanced from keeps its folds
// for the next attempt.
func TestAdvancePollsStop(t *testing.T) {
	const n = 3*PollRows + 5
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = mkRow(i, float64(i), float64(i%50), "meal", 5)
	}
	ps := NewPasses(rows)
	a := analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT SUM(P.protein) <= 90 MAXIMIZE SUM(P.calories)`)
	if _, _, _, _, err := ps.ConjunctiveAtoms(nil, a); err != nil {
		t.Fatal(err)
	}
	remap := make([]int, n)
	for i := range remap {
		remap[i] = i - 1
	}
	fired := &pollCtx{Context: context.Background(), fireAt: 3}
	if _, err := ps.Advance(fired, rows[1:], remap); !errors.Is(err, lifecycle.ErrCanceled) {
		t.Fatalf("canceled advance: err = %v, want ErrCanceled", err)
	}
	if got := fired.polls.Load(); got != 3 {
		t.Errorf("%d polls with the 3rd firing; the firing poll must be the last", got)
	}
	counting := &pollCtx{Context: context.Background()}
	next, err := ps.Advance(counting, rows[1:], remap)
	if err != nil || len(next.slots) != 2 || len(ps.slots) != 2 {
		t.Fatalf("advance after a canceled one: %v, %d folds carried of %d", err, len(next.slots), len(ps.slots))
	}
	runs := int64((n - 1 + PollRows - 1) / PollRows)
	if got, want := counting.polls.Load(), (1+2*runs)+(1+1); got != want {
		t.Errorf("%d polls carrying two folds over %d survivors, want %d", got, n-1, want)
	}
}
