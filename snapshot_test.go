package packagebuilder_test

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	pb "repro"
	"repro/internal/dataset"
	"repro/internal/schema"
	"repro/internal/value"
)

// The benchmark's five query templates (benchmark/workload.go), k the
// constant an attendee would change between two runs of one.
func templateQuery(tmpl, k int, where string) string {
	head := "SELECT PACKAGE(R) AS P FROM recipes R" + where + " SUCH THAT "
	switch tmpl {
	case 0:
		return fmt.Sprintf("%sCOUNT(*) = 3 AND SUM(P.calories) BETWEEN %d AND %d MAXIMIZE SUM(P.protein)", head, 900+10*k, 1400+10*k)
	case 1:
		return fmt.Sprintf("%sCOUNT(*) = 5 AND AVG(P.calories) <= %d MAXIMIZE SUM(P.protein)", head, 400+5*k)
	case 2:
		return fmt.Sprintf("%sCOUNT(*) = 5 AND MIN(P.protein) >= 5 AND MAX(P.calories) <= %d AND SUM(P.calories) BETWEEN 2500 AND 3500 MAXIMIZE SUM(P.protein)", head, 700+10*k)
	case 3:
		return fmt.Sprintf("%sCOUNT(*) BETWEEN 4 AND 8 AND SUM(P.price) <= %d.005 AND SUM(P.fat) <= 120 MAXIMIZE SUM(P.rating)", head, 40+k)
	}
	return fmt.Sprintf("%sCOUNT(*) = 3 AND SUM(P.calories) BETWEEN %d AND %d AND SUM(P.fat) BETWEEN 20 AND 200 MAXIMIZE SUM(P.protein)", head, 900+10*k, 1400+10*k)
}

// snapshotWhere leaves about a hundred of 4,500 recipes: few enough that
// the planner picks the exact solver.
const snapshotWhere = " WHERE R.gluten = 'free' AND R.cuisine = 'thai' AND R.mealtype = 'dinner'"

// resultDigest renders everything of an answer that must not depend on
// whether its candidates were scanned for or served: the packages, their
// objective and aggregates, the certified interval and the candidate
// count, floats by their bits.
func resultDigest(res *pb.Result) string {
	st := res.Stats
	var b strings.Builder
	fmt.Fprintf(&b, "candidates=%d strategy=%s exact=%v bounds=%s certified=%v bound=%x gap=%x stage=%s packages=%d\n",
		st.Candidates, st.Strategy, st.Exact, st.Bounds, st.Certified,
		math.Float64bits(st.BoundValue), math.Float64bits(st.Gap), st.BoundStage, len(res.Packages))
	for _, p := range res.Packages {
		fmt.Fprintf(&b, "ids=%v objective=%x rows=%v", p.TupleIDs(), math.Float64bits(p.Objective), p.Rows)
		for _, k := range slices.Sorted(maps.Keys(p.AggValues)) {
			fmt.Fprintf(&b, " %s=%s", k, p.AggValues[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// freshSystem loads a new System with the rows another holds right now.
func freshSystem(t *testing.T, from *pb.System) *pb.System {
	t.Helper()
	tab, ok := from.DB().Table("recipes")
	if !ok {
		t.Fatal("no recipes table")
	}
	fresh := pb.New()
	if _, err := fresh.DB().CreateTable("recipes", dataset.RecipesSchema()); err != nil {
		t.Fatal(err)
	}
	if err := fresh.DB().InsertRows("recipes", slices.Clone(tab.Rows)); err != nil {
		t.Fatal(err)
	}
	return fresh
}

func insertSQL(rows []schema.Row) string {
	var b strings.Builder
	b.WriteString("INSERT INTO recipes VALUES ")
	for j, r := range rows {
		if j > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for c, v := range r {
			if c > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.SQLString())
		}
		b.WriteByte(')')
	}
	return b.String()
}

// TestInterleavedWritesMatchFreshSystem is the property the candidate
// snapshot must keep: whatever a System has been through — a seeded
// interleaving of INSERTs, DELETEs and the five benchmark templates with
// and without WHERE, four of them at a time from concurrent readers — each
// query returns the bytes a fresh System loaded with the same rows
// returns. Both sides run without the tree tiers, so every tree is built
// fresh (a patched tree is a different, equally valid tree) and the answer
// is a function of the rows alone.
func TestInterleavedWritesMatchFreshSystem(t *testing.T) {
	steps := 14
	if testing.Short() {
		steps = 6
	}
	const readers = 4
	sys := newSystem(t, 4500)
	rng := rand.New(rand.NewSource(24))
	nextID, oldest := 4501, 4501
	opts := []pb.Option{pb.WithSketchCache(false), pb.WithSeed(1)}
	hits, strategies := 0, map[pb.Strategy]int{}
	for step := 0; step < steps; step++ {
		switch w := rng.Intn(4); {
		case w == 0:
			rows := dataset.Recipes(dataset.RecipesConfig{N: 40, Seed: rng.Int63()})
			for j, r := range rows {
				r[0] = value.Int(int64(nextID + j))
			}
			stmt := insertSQL(rows)
			nextID += len(rows)
			if _, err := sys.ExecSQL(stmt); err != nil {
				t.Fatal(err)
			}
		case w == 1 && oldest < nextID:
			if _, err := sys.ExecSQL(fmt.Sprintf("DELETE FROM recipes WHERE id >= %d AND id < %d", oldest, oldest+15)); err != nil {
				t.Fatal(err)
			}
			oldest += 15
		case w == 1:
			lo := 1 + rng.Intn(4000)
			if _, err := sys.ExecSQL(fmt.Sprintf("DELETE FROM recipes WHERE id >= %d AND id < %d", lo, lo+10)); err != nil {
				t.Fatal(err)
			}
		}
		// Four readers at once, each its own template, constant and WHERE.
		queries := make([]string, readers)
		for i := range queries {
			where := ""
			if rng.Intn(2) == 0 {
				where = snapshotWhere
			}
			queries[i] = templateQuery(rng.Intn(5), rng.Intn(30), where)
		}
		got := make([]*pb.Result, readers)
		errs := make([]error, readers)
		var wg sync.WaitGroup
		for i := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = sys.Query(queries[i], opts...)
			}()
		}
		wg.Wait()
		for i, q := range queries {
			if errs[i] != nil {
				t.Fatalf("step %d: %s: %v", step, q, errs[i])
			}
			want, err := freshSystem(t, sys).Query(q, opts...)
			if err != nil {
				t.Fatalf("step %d: fresh system: %s: %v", step, q, err)
			}
			if want.Stats.Plan.SnapshotHit {
				t.Fatalf("step %d: a fresh system's first query was a snapshot hit", step)
			}
			if got[i].Stats.Plan.SnapshotHit {
				hits++
			}
			strategies[got[i].Stats.Strategy]++
			if g, w := resultDigest(got[i]), resultDigest(want); g != w {
				t.Fatalf("step %d: %s\non the long-lived system (snapshot hit %v):\n%s\non a fresh one:\n%s", step, q, got[i].Stats.Plan.SnapshotHit, g, w)
			}
		}
	}
	if hits == 0 || strategies[pb.SketchRefine] == 0 || strategies[pb.Solver] == 0 {
		t.Errorf("the interleaving exercised too little: %d snapshot hits, strategies %v", hits, strategies)
	}
}

// A Prepared is a query bound to one version's candidates: held across a
// write — here one that deletes the very tuples it answered with — it
// still answers over its own rows, byte for byte, whether those rows are
// its own scan's or a snapshot's; a query prepared after the write sees
// the new version.
func TestPreparedHeldAcrossWriteKeepsItsVersion(t *testing.T) {
	sys := newSystem(t, 300)
	for i := 0; i < 2; i++ { // the second promotes the snapshot: prep's rows are the shared ones
		if _, err := sys.Query(mealQuery); err != nil {
			t.Fatal(err)
		}
	}
	prep, err := sys.Prepare(mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !prep.SnapshotHit {
		t.Fatal("the third preparation of one query over an unchanged table was not a snapshot hit")
	}
	before, err := sys.RunContext(context.Background(), prep)
	if err != nil || len(before.Packages) != 1 {
		t.Fatalf("before the write: %v", err)
	}
	for _, row := range before.Packages[0].Rows {
		if _, err := sys.ExecSQL(fmt.Sprintf("DELETE FROM recipes WHERE id = %s", row[0])); err != nil {
			t.Fatal(err)
		}
	}
	after, err := sys.RunContext(context.Background(), prep)
	if err != nil {
		t.Fatal(err)
	}
	if b, a := resultDigest(before), resultDigest(after); a != b {
		t.Errorf("the held Prepared changed its answer across the write:\nbefore:\n%s\nafter:\n%s", b, a)
	}
	now, err := sys.Query(mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	if now.Stats.Plan.SnapshotHit || now.Stats.Candidates != before.Stats.Candidates-3 {
		t.Errorf("after the write: SnapshotHit=%v, %d candidates, want a scan that finds %d",
			now.Stats.Plan.SnapshotHit, now.Stats.Candidates, before.Stats.Candidates-3)
	}
	if want, err := freshSystem(t, sys).Query(mealQuery); err != nil || resultDigest(now) != resultDigest(want) {
		t.Errorf("after the write the system and a fresh one disagree (err %v)", err)
	}
}

// TestWarmQueryScansNothing: once the table's snapshot of a WHERE stands,
// the engine itself says so — the second query of each benchmark shape,
// with another constant, reports 0 rows scanned and a snapshot hit in its
// Stats, in the result footer and on EXPLAIN's table line (the benchmark's
// traced core.prepare.rows_scanned_per_query counts the table's rows by
// construction and cannot show it).
func TestWarmQueryScansNothing(t *testing.T) {
	sys := newSystem(t, 4500)
	for _, where := range []string{"", snapshotWhere} {
		for round := 0; round < 2; round++ {
			for tmpl := 0; tmpl < 5; tmpl++ {
				q := templateQuery(tmpl, 3+11*round, where)
				res, err := sys.Query(q, pb.WithSeed(1))
				if err != nil {
					t.Fatal(err)
				}
				first := round == 0 && tmpl == 0
				if first && (res.Stats.Plan.SnapshotHit || res.Stats.Plan.RowsScanned != 4500) {
					t.Errorf("first sight of WHERE %q: SnapshotHit=%v RowsScanned=%d", where, res.Stats.Plan.SnapshotHit, res.Stats.Plan.RowsScanned)
				}
				if !first && (!res.Stats.Plan.SnapshotHit || res.Stats.Plan.RowsScanned != 0) {
					t.Errorf("round %d, T%d, WHERE %q: SnapshotHit=%v RowsScanned=%d, want a hit and 0",
						round, tmpl, where, res.Stats.Plan.SnapshotHit, res.Stats.Plan.RowsScanned)
				}
				if round == 0 {
					continue
				}
				var out bytes.Buffer
				pb.FormatResult(&out, sys, res)
				if !strings.Contains(out.String(), " scanned=0 snapshot-hit=true ") {
					t.Errorf("T%d: the footer does not say so:\n%s", tmpl, out.String())
				}
				ex, err := sys.Query("EXPLAIN " + q)
				if err != nil {
					t.Fatal(err)
				}
				if plan := ex.Stats.Plan.Explain(); !strings.Contains(plan, "; 0 rows scanned (candidate snapshot hit)\n") {
					t.Errorf("T%d: EXPLAIN's table line does not say so:\n%s", tmpl, plan)
				}
			}
		}
	}
}

// TestWriteStepScansWhatItAppended: a write step costs the next query what
// it changed. After INSERT k + DELETE m, the first query of each WHERE
// reports k rows scanned — WHERE evaluated on the appended rows alone —
// and no snapshot hit, in its Stats and its footer, and answers as a fresh
// System does; the store it advanced to carried every selection the five
// templates fold, so running all of them over it folds none again.
func TestWriteStepScansWhatItAppended(t *testing.T) {
	sys := newSystem(t, 4500)
	const k, m = 40, 15
	// Trees are built fresh on both sides, as in
	// TestInterleavedWritesMatchFreshSystem: the answer is the rows'.
	opts := []pb.Option{pb.WithSketchCache(false), pb.WithSeed(1)}
	for _, where := range []string{"", snapshotWhere} {
		for round := 0; round < 2; round++ {
			for tmpl := 0; tmpl < 5; tmpl++ {
				if _, err := sys.Query(templateQuery(tmpl, round, where), opts...); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	rows := dataset.Recipes(dataset.RecipesConfig{N: k, Seed: 29})
	for j, r := range rows {
		r[0] = value.Int(int64(90001 + j))
	}
	if _, err := sys.ExecSQL(insertSQL(rows)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ExecSQL(fmt.Sprintf("DELETE FROM recipes WHERE id >= 100 AND id < %d", 100+m)); err != nil {
		t.Fatal(err)
	}
	for _, where := range []string{"", snapshotWhere} {
		for tmpl := 0; tmpl < 5; tmpl++ {
			q := templateQuery(tmpl, 7, where)
			res, err := sys.Query(q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if tmpl > 0 {
				if !res.Stats.Plan.SnapshotHit || res.Stats.Plan.RowsScanned != 0 {
					t.Errorf("T%d, WHERE %q: SnapshotHit=%v RowsScanned=%d after the advance, want a hit", tmpl, where, res.Stats.Plan.SnapshotHit, res.Stats.Plan.RowsScanned)
				}
				continue
			}
			if res.Stats.Plan.SnapshotHit || res.Stats.Plan.RowsScanned != k {
				t.Errorf("WHERE %q: SnapshotHit=%v RowsScanned=%d after INSERT %d + DELETE %d, want an advance over %d rows",
					where, res.Stats.Plan.SnapshotHit, res.Stats.Plan.RowsScanned, k, m, k)
			}
			var out bytes.Buffer
			pb.FormatResult(&out, sys, res)
			if want := fmt.Sprintf(" scanned=%d snapshot-hit=false ", k); !strings.Contains(out.String(), want) {
				t.Errorf("WHERE %q: the footer does not say %q:\n%s", where, want, out.String())
			}
			if want, err := freshSystem(t, sys).Query(q, opts...); err != nil || resultDigest(want) != resultDigest(res) {
				t.Errorf("WHERE %q: the advanced snapshot's answer is not a fresh System's (err %v)", where, err)
			}
		}
		prep, err := sys.Prepare(templateQuery(0, 7, where))
		if err != nil {
			t.Fatal(err)
		}
		if !prep.SnapshotHit || prep.Instance.Passes.Folds() != 0 {
			t.Errorf("WHERE %q: the advanced store folded %d selections over the five templates; every one was carried",
				where, prep.Instance.Passes.Folds())
		}
	}
}

// workDigest is resultDigest plus what the solves did to get there: the
// certificate's pricing rounds and every solve's nodes and pivots.
func workDigest(st *pb.Stats) string {
	rounds := 0
	if st.Sketch != nil {
		rounds = st.Sketch.BoundRounds
	}
	return fmt.Sprintf("stage=%s rounds=%d nodes=%d pivots=%d", st.BoundStage, rounds, st.Nodes, st.LPIters)
}

// TestWarmShapesMatchFreshSystem is what every shape-level memo must keep:
// a query answered on a System whose snapshot keeps the shape's weight
// vectors is the query answered cold. The five benchmark templates (T2's eliminations among
// them) run with several constants each, under REPEAT and under LIMIT 3,
// and an explore session pins a tuple and asks for a replacement; every
// answer — packages, certified interval, bound stage and rounds, nodes
// and pivots — must be a fresh System's, byte for byte.
func TestWarmShapesMatchFreshSystem(t *testing.T) {
	sys := newSystem(t, 4500)
	opt := pb.WithSeed(1)
	var queries []string
	for _, k := range []int{0, 7, 19} {
		for tmpl := 0; tmpl < 5; tmpl++ {
			queries = append(queries, templateQuery(tmpl, k, ""))
		}
		queries = append(queries,
			templateQuery(0, k, " REPEAT 1"), templateQuery(3, k, " REPEAT 1"),
			templateQuery(4, k, "")+" LIMIT 3")
	}
	certified := 0
	for i, q := range queries {
		got, err := sys.Query(q, opt)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := freshSystem(t, sys).Query(q, opt)
		if err != nil {
			t.Fatalf("fresh system: %s: %v", q, err)
		}
		if got.Stats.Strategy != pb.SketchRefine {
			t.Fatalf("%s ran %s; the memos are sketch-refine's", q, got.Stats.Strategy)
		}
		if got.Stats.Certified && got.Stats.BoundStage == "raw-lp" {
			certified++
		}
		g := resultDigest(got) + workDigest(&got.Stats)
		if w := resultDigest(want) + workDigest(&want.Stats); g != w {
			t.Fatalf("query %d: %s\non the warm system:\n%s\non a fresh one:\n%s", i, q, g, w)
		}
	}
	if certified != len(queries) {
		t.Errorf("only %d of %d answers were certified by the raw-lp certificate", certified, len(queries))
	}

	explore := func(s *pb.System) string {
		ses, err := s.Explore(templateQuery(2, 3, ""), opt)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		cur, err := ses.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if err := ses.Pin(slices.IndexFunc(cur.Mult, func(m int) bool { return m > 0 })); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			p, err := ses.Replace()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "ids=%v objective=%x %s certified=%v bound=%x\n", p.TupleIDs(), math.Float64bits(p.Objective),
				workDigest(ses.Stats()), ses.Stats().Certified, math.Float64bits(ses.Stats().BoundValue))
		}
		return b.String()
	}
	if g, w := explore(sys), explore(freshSystem(t, sys)); g != w {
		t.Errorf("a pinned session's replacements on the warm system:\n%s\non a fresh one:\n%s", g, w)
	}
}

// A System nobody holds is garbage, tables, snapshots, trees and all:
// nothing of the engine's caches lives in a package-level variable.
func TestDiscardedSystemIsCollectable(t *testing.T) {
	collected := make(chan struct{})
	func() {
		sys := newSystem(t, 4500)
		for i := 0; i < 3; i++ {
			if _, err := sys.Query(templateQuery(0, i, ""), pb.WithSeed(1)); err != nil {
				t.Fatal(err)
			}
		}
		tab, _ := sys.DB().Table("recipes")
		runtime.AddCleanup(tab, func(ch chan struct{}) { close(ch) }, collected)
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Error("the discarded system's table is still reachable after 10 collections")
}
