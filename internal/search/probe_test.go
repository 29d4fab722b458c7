package search

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/minidb"
)

func TestReplacementProbe(t *testing.T) {
	rows := testRows()
	inst := instance(t, mealSrc, rows)
	// P0 = three heaviest tuples (550+800+650 = 2000: on the boundary).
	mult := make([]int, len(rows))
	mult[1], mult[4], mult[7] = 1, 1, 1
	sql, neigh, elapsed, err := ReplacementProbe(inst, mult, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "FROM") || strings.Contains(sql, "LIMIT") {
		t.Errorf("probe SQL should be a full-scan query: %s", sql)
	}
	if elapsed <= 0 {
		t.Error("elapsed not measured")
	}
	// Verify the neighbourhood against a direct enumeration oracle: all
	// (slot, candidate) swaps that keep every atom satisfied.
	want := 0
	for out := range mult {
		if mult[out] == 0 {
			continue
		}
		for in := range rows {
			if in == out || mult[in] > 0 {
				continue
			}
			trial := append([]int(nil), mult...)
			trial[out]--
			trial[in]++
			ok := true
			for _, at := range inst.Atoms {
				if !at.Check(trial) {
					ok = false
					break
				}
			}
			if ok {
				want++
			}
		}
	}
	if neigh != want {
		t.Errorf("neighbourhood = %d, oracle = %d", neigh, want)
	}
	// k=2 also runs
	if _, _, _, err := ReplacementProbe(inst, mult, 2); err != nil {
		t.Fatal(err)
	}
	// bad k rejected
	if _, _, _, err := ReplacementProbe(inst, mult, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, _, _, err := ReplacementProbe(inst, mult, 4); err == nil {
		t.Error("k=4 should fail")
	}
}

func TestLocalSearchAddDropRepair(t *testing.T) {
	// Variable-cardinality query: greedy starts at the lower bound, so
	// reaching the protein floor forces additions; a too-heavy random
	// start forces drops.
	rows := testRows()
	inst := instance(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) BETWEEN 2 AND 6
		      AND SUM(P.protein) >= 120
		      AND SUM(P.calories) <= 2600
		MINIMIZE SUM(P.calories)`, rows)
	// COUNT gives [2,6]; SUM(protein) >= 120 with MAX(protein)=45
	// tightens the lower bound to ceil(120/45) = 3.
	if inst.Bounds.Lo != 3 || inst.Bounds.Hi != 6 {
		t.Fatalf("bounds = %v", inst.Bounds)
	}
	db := minidb.New()
	res, err := LocalSearch(inst, db, Options{Seed: 5, Restarts: 8, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) == 0 {
		t.Fatal("local search found nothing")
	}
	for _, p := range res.Packages {
		ok, err := inst.Validate(p.Mult)
		if err != nil || !ok {
			t.Errorf("invalid package %v (%v)", p.Mult, err)
		}
	}
	// exact comparison: heuristic never better than optimum under MINIMIZE
	exact, err := PrunedEnumerate(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Packages) > 0 && inst.Better(res.Packages[0].Obj, exact.Packages[0].Obj) {
		t.Errorf("heuristic %g beats exact %g", res.Packages[0].Obj, exact.Packages[0].Obj)
	}
}

func TestRequireInEnumerators(t *testing.T) {
	rows := testRows()
	inst := instance(t, mealSrc, rows)
	// candidate 2 (Salad, 150 cal, 4 protein) is never in the optimum;
	// requiring it must constrain every returned package.
	req := Options{Limit: 100, Require: []int{2}}
	for name, run := range map[string]func() (*Result, error){
		"brute":  func() (*Result, error) { return BruteForce(inst, req) },
		"pruned": func() (*Result, error) { return PrunedEnumerate(inst, req) },
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Packages {
			if p.Mult[2] == 0 {
				t.Errorf("%s: package without required tuple: %v", name, p.Mult)
			}
		}
		// oracle: required package sets are a subset of unrestricted ones
		free, err := BruteForce(inst, Options{Limit: 100})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Packages) >= len(free.Packages) && len(free.Packages) > 0 {
			// equality is possible only if every package contains tuple 2
			all2 := true
			for _, p := range free.Packages {
				if p.Mult[2] == 0 {
					all2 = false
				}
			}
			if !all2 {
				t.Errorf("%s: require did not restrict the result set", name)
			}
		}
	}
	// local search honors pins too
	db := minidb.New()
	res, err := LocalSearch(inst, db, Options{Seed: 2, Restarts: 6, Require: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Packages {
		if p.Mult[2] == 0 {
			t.Errorf("local search dropped the pinned tuple: %v", p.Mult)
		}
	}
	// A pin outside the candidates is an error, never dropped.
	n := len(inst.Rows)
	bad := Options{Require: []int{2, n}}
	want := fmt.Sprintf("search: pinned candidate %d out of range [0,%d)", n, n)
	for name, run := range map[string]func() (*Result, error){
		"brute":  func() (*Result, error) { return BruteForce(inst, bad) },
		"pruned": func() (*Result, error) { return PrunedEnumerate(inst, bad) },
		"local":  func() (*Result, error) { return LocalSearch(inst, db, bad) },
	} {
		if _, err := run(); err == nil || err.Error() != want {
			t.Errorf("%s: err %v, want %q", name, err, want)
		}
	}
}

func TestCheckAtomsHelper(t *testing.T) {
	inst := instance(t, mealSrc, testRows())
	good := make([]int, len(inst.Rows))
	good[1], good[4], good[7] = 1, 1, 1 // 2000 cal, count 3
	if !inst.CheckAtoms(good) {
		t.Error("CheckAtoms rejects a valid package")
	}
	bad := make([]int, len(inst.Rows))
	bad[0] = 1
	if inst.CheckAtoms(bad) {
		t.Error("CheckAtoms accepts an invalid package")
	}
}

func TestStripSuffixClause(t *testing.T) {
	q := "SELECT x FROM t WHERE a ORDER BY b LIMIT 1"
	q = stripSuffixClause(q, " ORDER BY ")
	if strings.Contains(q, "ORDER") {
		t.Errorf("order not stripped: %s", q)
	}
	q2 := stripSuffixClause("SELECT 1 LIMIT 1", " LIMIT ")
	if strings.Contains(q2, "LIMIT") {
		t.Errorf("limit not stripped: %s", q2)
	}
	if got := stripSuffixClause("abc", " LIMIT "); got != "abc" {
		t.Errorf("no-op strip changed input: %s", got)
	}
}
