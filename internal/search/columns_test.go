package search

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/schema"
	"repro/internal/value"
)

// TestLowerMatchesRows: every lowered cell reads back as the boxed cell
// does — the float lens (numeric value, else 0), the NULL bit, and for
// coded columns a dictionary code whose datum is the cell, with one
// code per identity.
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
				if col.Num[j] != f || col.IsNull(j) != want.IsNull() {
					t.Fatalf("%s: cell (%d,%d) = %s lowered to num %v null %v", name, r, c, want.SQLString(), col.Num[j], col.IsNull(j))
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
			if len(byKey) != len(col.Dict) {
				t.Fatalf("%s: column %d has %d dictionary entries for %d distinct datums", name, c, len(col.Dict), len(byKey))
			}
			numeric := false
			for _, d := range col.Dict {
				numeric = numeric || d.IsNumeric()
			}
			if col.DictNumeric != numeric {
				t.Fatalf("%s: column %d DictNumeric = %v, dictionary says %v", name, c, col.DictNumeric, numeric)
			}
		}
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
