package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/minidb"
	"repro/internal/paql"
	"repro/internal/schema"
	"repro/internal/translate"
	"repro/internal/value"
)

// advanceSchema holds, beside an id, the kinds of cell a selection folds:
// numbers that are now and then NULL or −0, and a bool and a text column
// that only COUNT may take — whose folds hold non-numbers and so are never
// carried.
func advanceSchema() schema.Schema {
	return schema.New(
		schema.Column{Name: "id", Type: schema.TInt},
		schema.Column{Name: "a", Type: schema.TFloat},
		schema.Column{Name: "b", Type: schema.TInt},
		schema.Column{Name: "flag", Type: schema.TBool},
		schema.Column{Name: "name", Type: schema.TString},
	)
}

func advanceRows(rng *rand.Rand, firstID, n int) []schema.Row {
	rows := make([]schema.Row, n)
	maybeNull := func(v value.V) value.V {
		if rng.Intn(8) == 0 {
			return value.Null()
		}
		return v
	}
	for i := range rows {
		a := value.Float(float64(rng.Intn(400)) / 4)
		if rng.Intn(20) == 0 {
			a = value.Float(math.Copysign(0, -1))
		}
		rows[i] = schema.Row{value.Int(int64(firstID + i)), maybeNull(a), maybeNull(value.Int(int64(rng.Intn(30) - 10))),
			maybeNull(value.Bool(rng.Intn(2) == 0)), maybeNull(value.Str([]string{"x", "y", "z"}[rng.Intn(3)]))}
	}
	return rows
}

// advanceWheres are the base predicates the property runs over, the empty
// one included: each keeps its own snapshot of the table.
var advanceWheres = []string{"", " WHERE R.flag = TRUE", " WHERE R.a > 30", " WHERE R.name = 'x' OR R.b < 0"}

func advanceQuery(where string) string {
	return "SELECT PACKAGE(R) AS P FROM t R" + where + ` SUCH THAT COUNT(*) <= 3 AND SUM(P.a) <= 1000000
		AND SUM(P.b WHERE P.a > 20) >= -1000000 AND COUNT(P.flag) >= 0 AND COUNT(P.name WHERE P.b > 0) >= 0
		AND SUM(P.a - 2 * P.b) <= 1000000 MAXIMIZE SUM(P.a) + SUM(P.b)`
}

// storeDigest renders what a pass store answers about its candidates —
// every weight vector of the query's atoms and objective, every
// aggregate's statistics and every column's spread, floats by their bits —
// which a store advanced along the delta log must answer as a store over
// a fresh scan's candidates does.
func storeDigest(t *testing.T, ps *translate.Passes, a *paql.Analysis, width int) string {
	t.Helper()
	var b strings.Builder
	atoms, pure, objW, objK, err := ps.ConjunctiveAtoms(context.Background(), a)
	fmt.Fprintf(&b, "pure=%v objK=%x err=%v objW=%v\n", pure, math.Float64bits(objK), err, floatBits(objW))
	for _, at := range atoms {
		fmt.Fprintf(&b, "%s: %v\n", at.Source, floatBits(at.W))
	}
	for _, agg := range a.Aggs {
		lo, hi, n, ok := ps.AggStats(context.Background(), agg)
		fmt.Fprintf(&b, "%s: lo=%x hi=%x n=%d ok=%v\n", agg, math.Float64bits(lo), math.Float64bits(hi), n, ok)
	}
	for col := range width {
		s, err := ps.Spread(context.Background(), col)
		fmt.Fprintf(&b, "spread %d: %x %v\n", col, math.Float64bits(s), err)
	}
	return b.String()
}

func floatBits(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}

// TestAdvancedSnapshotMatchesFreshScan is the property the snapshot's
// advance keeps: after any seeded batch of INSERTs and DELETEs — deleting
// candidates, non-candidates, rows inserted by the same batch, or every
// row — each WHERE's preparation holds the ids and rows a scan finds, and
// its pass store answers every weight vector, every aggregate's statistics
// and every spread bit for bit as a store over the scan's rows does. A
// promoted snapshot advances: RowsScanned is the appended rows and not a
// hit, and it folds again only the selections holding a non-number, which
// are never carried. Concurrent preparations at one version share one
// advance. When the log cannot reach the snapshot — aged out past its
// entry bound, or its read failing — the preparation scans, and still
// matches.
func TestAdvancedSnapshotMatchesFreshScan(t *testing.T) {
	steps := 80
	if testing.Short() {
		steps = 25
	}
	rng := rand.New(rand.NewSource(29))
	db := minidb.New()
	if _, err := db.CreateTable("t", advanceSchema()); err != nil {
		t.Fatal(err)
	}
	nextID := 1
	insert := func(n int) {
		t.Helper()
		if err := db.InsertRows("t", advanceRows(rng, nextID, n)); err != nil {
			t.Fatal(err)
		}
		nextID += n
	}
	exec := func(stmt string) {
		t.Helper()
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	insert(300)
	tab, _ := db.Table("t")
	width := advanceSchema().Len()

	// check prepares every WHERE once — four readers at once for the first
	// — and holds each to a fresh scan; it returns, per WHERE, the rows
	// scanned and whether the snapshot served them.
	check := func(label string) (scanned []int, hits []bool) {
		t.Helper()
		for wi, where := range advanceWheres {
			text := advanceQuery(where)
			readers := 1
			if wi == 0 {
				readers = 4
			}
			preps := make([]*Prepared, readers)
			errs := make([]error, readers)
			var wg sync.WaitGroup
			for r := range preps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					preps[r], errs[r] = Prepare(db, text)
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatalf("%s: %s: %v", label, where, err)
				}
			}
			// Scans are each their own; every other preparation reads the
			// one store the snapshot holds at this version.
			var shared *translate.Passes
			for _, p := range preps {
				if p.SnapshotHit || p.RowsScanned < len(tab.Rows) {
					if shared != nil && p.Instance.Passes != shared {
						t.Fatalf("%s: %s: concurrent preparations at one version hold different pass stores", label, where)
					}
					shared = p.Instance.Passes
				}
			}
			prep := preps[0]
			want, err := scanIDs(t, tab, text)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(prep.Instance.IDs, want) {
				t.Fatalf("%s: %s: %d candidates, a scan finds %d", label, where, len(prep.Instance.IDs), len(want))
			}
			rows := make([]schema.Row, len(want))
			for i, id := range want {
				rows[i] = tab.Rows[id]
			}
			if !slices.EqualFunc(prep.Instance.Rows, rows, func(x, y schema.Row) bool { return &x[0] == &y[0] }) {
				t.Fatalf("%s: %s: the candidate rows are not the table's", label, where)
			}
			if nonNumeric := 2; !prep.SnapshotHit && prep.RowsScanned < len(tab.Rows) && prep.Instance.Passes.Folds() > nonNumeric {
				t.Fatalf("%s: %s: an advanced store folded %d selections; only the %d over bools and text may fold again",
					label, where, prep.Instance.Passes.Folds(), nonNumeric)
			}
			got, fresh := storeDigest(t, prep.Instance.Passes, prep.Analysis, width), storeDigest(t, translate.NewPasses(rows), prep.Analysis, width)
			if got != fresh {
				t.Fatalf("%s: %s: the snapshot's store answers\n%s\na fresh scan's\n%s", label, where, got, fresh)
			}
			// A reader that found the advance installed is a hit; the group
			// reports the most any of them scanned, and a hit if all were.
			most, all := 0, true
			for _, p := range preps {
				most, all = max(most, p.RowsScanned), all && p.SnapshotHit
			}
			scanned, hits = append(scanned, most), append(hits, all)
		}
		return scanned, hits
	}

	check("first sight")
	check("promotion")
	advances := 0
	for step := 0; step < steps; step++ {
		k, v := rng.Intn(25), tab.Version()
		firstNew := nextID
		insert(k)
		switch rng.Intn(6) {
		case 0: // every row
			exec("DELETE FROM t WHERE id >= 0")
		case 1: // rows this batch inserted
			exec(fmt.Sprintf("DELETE FROM t WHERE id >= %d AND id < %d", firstNew, firstNew+rng.Intn(k+1)))
		case 2: // nothing
		default: // a range of old rows, candidates of some WHEREs and not of others
			lo := rng.Intn(max(nextID, 1))
			exec(fmt.Sprintf("DELETE FROM t WHERE id >= %d AND id < %d", lo, lo+1+rng.Intn(30)))
		}
		scanned, hits := check(fmt.Sprintf("step %d", step))
		if tab.Version() == v {
			continue // nothing written: the snapshots stand
		}
		for wi := range scanned {
			if hits[wi] {
				t.Fatalf("step %d: %s: a snapshot hit after a write", step, advanceWheres[wi])
			}
			if scanned[wi] > k {
				t.Fatalf("step %d: %s: %d rows scanned after a batch of %d inserts; an advance evaluates the appended rows only",
					step, advanceWheres[wi], scanned[wi], k)
			}
			advances++
		}
	}
	if advances == 0 {
		t.Fatal("no preparation advanced")
	}

	// The log ages out past its entry bound: the snapshots cannot advance
	// and scan the table, then serve it again.
	for range 1025 {
		insert(1)
	}
	scanned, _ := check("aged-out log")
	for wi, n := range scanned {
		if n != len(tab.Rows) {
			t.Fatalf("aged-out log: %s scanned %d of %d rows", advanceWheres[wi], n, len(tab.Rows))
		}
	}
	if _, hits := check("after the aged-out scan"); slices.Contains(hits, false) {
		t.Fatalf("the preparations after a scan were not all hits: %v", hits)
	}

	// An unreadable log is an aged-out one.
	insert(5)
	exec("DELETE FROM t WHERE id < 40")
	restore := fault.Enable(fault.NewInjector(1, fault.Rule{Site: "minidb.delta", Kind: fault.KindError}))
	scanned, _ = check("minidb.delta fault")
	restore()
	for wi, n := range scanned {
		if n != len(tab.Rows) {
			t.Fatalf("minidb.delta fault: %s scanned %d of %d rows", advanceWheres[wi], n, len(tab.Rows))
		}
	}
}
