package search

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/schema"
	"repro/internal/value"
)

// TestLowerMatchesRows: every lowered cell reads back as the boxed cell
// does — the float lens (numeric value, else 0; no lens on a column
// without a numeric cell), the NULL bit, and for coded columns a
// dictionary code whose datum is the cell, with one code per identity.
func TestLowerMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := dataset.Recipes(dataset.RecipesConfig{N: 700, Seed: 9})
	for _, row := range rows {
		for c := range row {
			switch rng.Intn(12) {
			case 0:
				row[c] = value.Null()
			case 1:
				row[c] = value.Int(int64(rng.Intn(5)))
			case 2:
				row[c] = value.Bool(rng.Intn(2) == 0)
			case 3:
				row[c] = value.Str([]string{"NULL", "1", "true", ""}[rng.Intn(4)])
			}
		}
	}
	rows[3] = rows[3][:4] // a short row reads NULL past its end
	for _, row := range rows {
		row[1] = value.Str("only text") // a column without a numeric cell
	}
	idx := rng.Perm(len(rows))[:300]
	for name, sel := range map[string][]int{"all": nil, "subset": idx} {
		cols := Lower(rows, sel, nil)
		n := len(rows)
		if sel != nil {
			n = len(sel)
		}
		if len(cols.Cols) != len(rows[0]) || len(cols.Cols[0].Num) != n {
			t.Fatalf("%s: lowered %d×%d, want %d×%d", name, len(cols.Cols[0].Num), len(cols.Cols), n, len(rows[0]))
		}
		for c := range cols.Cols {
			col := &cols.Cols[c]
			byKey := map[string]uint32{}
			numeric := false
			for j := 0; j < n; j++ {
				r := j
				if sel != nil {
					r = sel[j]
				}
				var want value.V
				if c < len(rows[r]) {
					want = rows[r][c]
				}
				f, _ := want.AsFloat()
				numeric = numeric || want.IsNumeric()
				got := 0.0
				if col.Num != nil {
					got = col.Num[j]
				}
				if got != f || col.IsNull(j) != want.IsNull() {
					t.Fatalf("%s: cell (%d,%d) = %s lowered to num %v null %v", name, r, c, want.SQLString(), got, col.IsNull(j))
				}
				if col.Codes == nil {
					if !want.IsNull() && !want.IsNumeric() {
						t.Fatalf("%s: column %d holds %s but is not coded", name, c, want.SQLString())
					}
					continue
				}
				code := col.Codes[j]
				if got := col.Dict[code]; got != want {
					t.Fatalf("%s: cell (%d,%d) = %s coded as %s", name, r, c, want.SQLString(), got.SQLString())
				}
				key := string(want.EncodeKey(nil))
				if prev, ok := byKey[key]; ok && prev != code {
					t.Fatalf("%s: column %d codes %s as both %d and %d", name, c, want.SQLString(), prev, code)
				}
				byKey[key] = code
			}
			if (col.Num != nil) != numeric || (col.Num != nil && len(col.Num) != n) {
				t.Fatalf("%s: column %d has a float lens of %d cells; numeric cells: %v", name, c, len(col.Num), numeric)
			}
			if len(byKey) != len(col.Dict) {
				t.Fatalf("%s: column %d has %d dictionary entries for %d distinct datums", name, c, len(col.Dict), len(byKey))
			}
			dictNumeric := false
			for _, d := range col.Dict {
				dictNumeric = dictNumeric || d.IsNumeric()
			}
			if col.DictNumeric != dictNumeric {
				t.Fatalf("%s: column %d DictNumeric = %v, dictionary says %v", name, c, col.DictNumeric, dictNumeric)
			}
		}
	}
}

// TestAdvanceMatchesLower: a lowering advanced past deletions and
// appends reads as the table lowered afresh — the same float lens, NULL
// bits and datums, each datum under the code it had — and the lowering it
// advanced from still reads its own rows. A trimmed lowering advances
// too.
func TestAdvanceMatchesLower(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cell := func(i int) schema.Row {
		kinds := []value.V{value.Null(), value.Int(int64(rng.Intn(5))), value.Float(float64(i) / 3), value.Str([]string{"a", "b"}[rng.Intn(2)])}
		return schema.Row{value.Int(int64(i)), kinds[rng.Intn(2)], kinds[rng.Intn(4)], value.Str(fmt.Sprintf("u%d", i))}
	}
	var rows []schema.Row
	for i := range 200 {
		rows = append(rows, cell(i))
	}
	cols := Lower(rows, nil, nil)
	cols.Trim() // as a table's image is kept: the first advance re-indexes the dictionaries
	for step := range 20 {
		var deleted []int
		var next []schema.Row
		for i, row := range rows {
			if rng.Intn(25) == 0 {
				deleted = append(deleted, i)
				continue
			}
			next = append(next, row)
		}
		for range rng.Intn(30) {
			next = append(next, cell(1000*(step+1)+len(next)))
		}
		advanced := cols.Advance(next, deleted)
		if advanced == nil {
			t.Fatalf("step %d: no advance", step)
		}
		if cols.Advance(next, deleted) != nil {
			t.Fatalf("step %d: a lowering advanced twice", step)
		}
		for _, check := range []struct {
			cols *Columns
			rows []schema.Row
		}{{cols, rows}, {advanced, next}} {
			if check.cols.Len() != len(check.rows) {
				t.Fatalf("step %d: %d rows lowered for %d", step, check.cols.Len(), len(check.rows))
			}
			for j, row := range check.rows {
				for c, v := range row {
					col := &check.cols.Cols[c]
					f, _ := v.AsFloat()
					got := 0.0
					if col.Num != nil {
						got = col.Num[j]
					}
					if got != f || col.IsNull(j) != v.IsNull() || (col.Codes != nil && !col.Dict[col.Codes[j]].Identical(v)) {
						t.Fatalf("step %d: cell (%d,%d) = %s misread", step, j, c, v.SQLString())
					}
				}
			}
		}
		cols, rows = advanced, next
	}
	// Every row deleted but a few: the unique column's dictionary would
	// hold more than twice the rows, so the table is lowered afresh.
	deleted := make([]int, len(rows)-5)
	for i := range deleted {
		deleted[i] = i
	}
	if cols.Advance(rows[len(rows)-5:], deleted) != nil {
		t.Fatal("advanced with a dictionary of many times the rows")
	}
}

// TestLowerTellsSignedZerosApart: identity is the key encoding, so
// +0.0 and -0.0 (equal under ==) keep separate codes.
func TestLowerTellsSignedZerosApart(t *testing.T) {
	rows := []schema.Row{{value.Str("x")}, {value.Float(0)}, {value.Float(math.Copysign(0, -1))}, {value.Float(0)}}
	col := Lower(rows, nil, nil).Cols[0]
	if len(col.Dict) != 3 || col.Codes[1] != col.Codes[3] || col.Codes[1] == col.Codes[2] {
		t.Fatalf("codes %v over %d dictionary entries; want +0.0 and -0.0 apart", col.Codes, len(col.Dict))
	}
}

// TestLowerPollsStop: the lowering polls its hook once per
// PollRows rows — exactly, it is a single loop — and a hook that
// fires abandons it.
func TestLowerPollsStop(t *testing.T) {
	const n = 200_000
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{value.Int(int64(i)), value.Str("k")}
	}
	polls := 0
	if Lower(rows, nil, func() bool { polls++; return false }) == nil {
		t.Fatal("lowering stopped although the hook never fired")
	}
	if want := (n + PollRows - 1) / PollRows; polls != want {
		t.Fatalf("lowering %d rows polled %d times, want %d", n, polls, want)
	}
	polls = 0
	if Lower(rows, nil, func() bool { polls++; return polls == 7 }) != nil {
		t.Fatal("lowering ran to the end although the hook fired")
	}
	if polls != 7 {
		t.Fatalf("lowering polled %d times after the hook fired at poll 7", polls)
	}
}

func BenchmarkLower50k(b *testing.B) {
	rows := dataset.Recipes(dataset.RecipesConfig{N: 50_000, Seed: 42})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Lower(rows, nil, nil) == nil {
			b.Fatal("lowering stopped")
		}
	}
	b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
