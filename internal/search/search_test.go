package search

import (
	"maps"
	"math"
	"math/rand"
	"testing"

	"repro/internal/minidb"
	"repro/internal/paql"
	"repro/internal/schema"
	"repro/internal/translate"
	"repro/internal/value"
)

func relSchema() schema.Schema {
	return schema.New(
		schema.Column{Name: "id", Type: schema.TInt},
		schema.Column{Name: "calories", Type: schema.TFloat},
		schema.Column{Name: "protein", Type: schema.TFloat},
		schema.Column{Name: "kind", Type: schema.TString},
	)
}

func mkRow(id int, cal, prot float64, kind string) schema.Row {
	return schema.Row{value.Int(int64(id)), value.Float(cal), value.Float(prot), value.Str(kind)}
}

func testRows() []schema.Row {
	return []schema.Row{
		mkRow(0, 300, 10, "meal"),
		mkRow(1, 550, 18, "meal"),
		mkRow(2, 150, 4, "snack"),
		mkRow(3, 420, 38, "meal"),
		mkRow(4, 800, 30, "meal"),
		mkRow(5, 380, 22, "snack"),
		mkRow(6, 200, 6, "snack"),
		mkRow(7, 650, 45, "meal"),
	}
}

func instance(t *testing.T, src string, rows []schema.Row) *Instance {
	t.Helper()
	q, err := paql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := paql.Analyze(q, relSchema())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(rows))
	for i := range ids {
		ids[i] = i
	}
	inst, err := NewInstance(nil, a, translate.NewPasses(rows), ids)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

const mealSrc = `
	SELECT PACKAGE(R) AS P FROM Recipes R
	SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
	MAXIMIZE SUM(P.protein)`

func TestNewInstanceDerivations(t *testing.T) {
	inst := instance(t, mealSrc, testRows())
	// COUNT(*)=3 yields EQ -> two atoms; BETWEEN yields GE+LE.
	if len(inst.Atoms) != 4 {
		t.Errorf("atoms = %d, want 4", len(inst.Atoms))
	}
	if !inst.Pure {
		t.Error("meal formula should be purely conjunctive-linear")
	}
	if inst.Bounds.Lo != 3 || inst.Bounds.Hi != 3 {
		t.Errorf("bounds = %v, want [3,3]", inst.Bounds)
	}
	if inst.ObjW == nil || inst.ObjW[3] != 38 {
		t.Errorf("objective weights = %v", inst.ObjW)
	}
	if inst.MaxMult != 1 {
		t.Errorf("maxMult = %d", inst.MaxMult)
	}
}

func TestBruteForceFindsOptimum(t *testing.T) {
	inst := instance(t, mealSrc, testRows())
	res, err := BruteForce(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Packages) != 1 {
		t.Fatalf("res = %+v", res)
	}
	// Optimum: need sum in [2000,2500] with 3 tuples, max protein:
	// {550,800,650} = 2000 cal, protein 18+30+45 = 93.
	if math.Abs(res.Packages[0].Obj-93) > 1e-9 {
		t.Errorf("best obj = %g, want 93", res.Packages[0].Obj)
	}
	if res.Examined == 0 {
		t.Error("examined count missing")
	}
	// multiplicity vector correct
	p := res.Packages[0]
	if p.Size() != 3 || p.Mult[1] != 1 || p.Mult[4] != 1 || p.Mult[7] != 1 {
		t.Errorf("best package = %v", p.Mult)
	}
}

func TestPrunedMatchesBruteExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const head = `SELECT PACKAGE(R) AS P FROM Recipes R `
	queries := []struct {
		src     string
		maxRows int  // 0 = the default 5..9 rows
		oracle  bool // also enumerate with paql.Satisfies, which shares no code with Atoms
	}{
		{src: head + `SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 900 AND 1500 MAXIMIZE SUM(P.protein)`},
		{src: head + `SUCH THAT SUM(P.calories) <= 800 MINIMIZE COUNT(*)`},
		{src: head + `SUCH THAT COUNT(*) BETWEEN 2 AND 4 AND SUM(P.protein) >= 80 MAXIMIZE SUM(P.protein)`},
		{src: head + `REPEAT 1 SUCH THAT COUNT(*) = 3 AND SUM(P.calories) <= 1200 MAXIMIZE SUM(P.protein)`},
		{src: head + `SUCH THAT COUNT(*) = 2 AND (SUM(P.calories) <= 500 OR SUM(P.calories) >= 1200) MAXIMIZE SUM(P.protein)`},
		{src: head + `SUCH THAT COUNT(*) = 2 AND MIN(P.calories) >= 300 MAXIMIZE SUM(P.protein)`},
		// Calories are multiples of 100, so both strict bounds are attained.
		{src: head + `SUCH THAT COUNT(*) = 2 AND SUM(P.calories) > 500 AND NOT (SUM(P.calories) >= 900) MAXIMIZE SUM(P.protein)`, oracle: true},
		// Multiplicities run to 10: packages that differ only above 9.
		{src: head + `REPEAT 9 SUCH THAT COUNT(*) BETWEEN 1 AND 10 AND SUM(P.calories) <= 2000 MAXIMIZE SUM(P.protein)`, maxRows: 3, oracle: true},
	}
	for trial := 0; trial < 4*len(queries); trial++ {
		q := queries[trial%len(queries)]
		n := 5 + rng.Intn(5)
		if q.maxRows > 0 {
			n = 1 + rng.Intn(q.maxRows)
		}
		rows := make([]schema.Row, n)
		for i := range rows {
			rows[i] = mkRow(i, float64(100+rng.Intn(9)*100), float64(rng.Intn(50)),
				[]string{"meal", "snack"}[rng.Intn(2)])
		}
		src := q.src
		inst := instance(t, src, rows)
		brute, err := BruteForce(inst, Options{Limit: 1000000})
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := PrunedEnumerate(inst, Options{Limit: 1000000})
		if err != nil {
			t.Fatal(err)
		}
		if !brute.Complete || !pruned.Complete {
			t.Fatalf("trial %d: incomplete searches", trial)
		}
		// identical package sets
		bKeys := map[string]bool{}
		for _, p := range brute.Packages {
			bKeys[p.Key()] = true
		}
		pKeys := map[string]bool{}
		for _, p := range pruned.Packages {
			pKeys[p.Key()] = true
		}
		if len(bKeys) != len(pKeys) {
			t.Fatalf("trial %d (%s): brute %d packages, pruned %d",
				trial, src, len(bKeys), len(pKeys))
		}
		for k := range bKeys {
			if !pKeys[k] {
				t.Fatalf("trial %d: pruning lost package %s", trial, k)
			}
		}
		if q.oracle {
			if want := satisfyingKeys(t, inst); !maps.Equal(want, pKeys) {
				t.Fatalf("trial %d (%s): paql.Satisfies accepts %d packages, pruned returned %d",
					trial, src, len(want), len(pKeys))
			}
		}
		// pruning must not explore more nodes than brute force leaves
		if pruned.Examined > brute.Examined*2 {
			t.Errorf("trial %d: pruned examined %d > 2x brute %d",
				trial, pruned.Examined, brute.Examined)
		}
	}
}

// satisfyingKeys enumerates every multiplicity vector of the instance
// and keeps those paql.Satisfies accepts.
func satisfyingKeys(t *testing.T, inst *Instance) map[string]bool {
	t.Helper()
	keys := map[string]bool{}
	mult := make([]int, len(inst.Rows))
	var rec func(i int)
	rec = func(i int) {
		if i == len(mult) {
			ok, err := inst.Validate(mult)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				keys[Pkg{Mult: mult}.Key()] = true
			}
			return
		}
		for m := 0; m <= inst.MaxMult; m++ {
			mult[i] = m
			rec(i + 1)
		}
		mult[i] = 0
	}
	rec(0)
	return keys
}

func TestPrunedObjectiveBoundKeepsOptimum(t *testing.T) {
	inst := instance(t, mealSrc, testRows())
	withBound, err := PrunedEnumerate(inst, Options{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	noBound, err := PrunedEnumerate(inst, Options{Limit: 1, NoObjBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(withBound.Packages) != 1 || len(noBound.Packages) != 1 {
		t.Fatal("expected one package each")
	}
	if math.Abs(withBound.Packages[0].Obj-noBound.Packages[0].Obj) > 1e-9 {
		t.Errorf("objective bound changed the optimum: %g vs %g",
			withBound.Packages[0].Obj, noBound.Packages[0].Obj)
	}
	if withBound.Examined > noBound.Examined {
		t.Errorf("objective bound did not reduce nodes: %d vs %d",
			withBound.Examined, noBound.Examined)
	}
}

func TestPruningReducesExaminedNodes(t *testing.T) {
	inst := instance(t, mealSrc, testRows())
	pruned, err := PrunedEnumerate(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The unpruned baseline is the 2^n enumeration itself: it counts one
	// examined node per leaf, the pruned search every node it enters.
	unpruned, err := BruteForce(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Examined >= unpruned.Examined {
		t.Errorf("pruning should reduce nodes: %d vs %d", pruned.Examined, unpruned.Examined)
	}
	if len(pruned.Packages) != 1 || len(unpruned.Packages) != 1 {
		t.Fatal("both searches should find the optimum")
	}
	if math.Abs(pruned.Packages[0].Obj-unpruned.Packages[0].Obj) > 1e-9 {
		t.Error("pruning changed the optimum")
	}
}

func TestInfeasibleBoundsShortCircuit(t *testing.T) {
	inst := instance(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 2 AND COUNT(*) = 5`, testRows())
	if !inst.Bounds.IsInfeasible() {
		t.Fatalf("bounds = %v", inst.Bounds)
	}
	res, err := PrunedEnumerate(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Packages) != 0 || res.Examined != 0 {
		t.Errorf("infeasible bounds should end immediately: %+v", res)
	}
}

func TestGreedyProducesStart(t *testing.T) {
	inst := instance(t, mealSrc, testRows())
	p := Greedy(inst, nil)
	if p.Size() != 3 {
		t.Errorf("greedy size = %d, want 3 (cardinality bound)", p.Size())
	}
	// deterministic without rng
	p2 := Greedy(inst, nil)
	if p.Key() != p2.Key() {
		t.Error("greedy should be deterministic without rng")
	}
	// random start respects bounds
	r := RandomStart(inst, rand.New(rand.NewSource(1)))
	if r.Size() != 3 {
		t.Errorf("random start size = %d", r.Size())
	}
}

func TestLocalSearchFindsValidPackages(t *testing.T) {
	inst := instance(t, mealSrc, testRows())
	db := minidb.New()
	res, err := LocalSearch(inst, db, Options{Seed: 3, Restarts: 6, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) == 0 {
		t.Fatal("local search found nothing on an easy instance")
	}
	for _, p := range res.Packages {
		ok, err := inst.Validate(p.Mult)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("local search returned invalid package %v", p.Mult)
		}
	}
	if res.Queries == 0 {
		t.Error("local search should have issued SQL replacement queries")
	}
	// heuristic result never beats the exact optimum
	exact, err := PrunedEnumerate(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Better(res.Packages[0].Obj, exact.Packages[0].Obj) {
		t.Errorf("heuristic %g beats exact %g", res.Packages[0].Obj, exact.Packages[0].Obj)
	}
	// scratch tables cleaned up
	for _, name := range db.TableNames() {
		t.Errorf("leftover scratch table %q", name)
	}
}

func TestLocalSearchHeuristicQuality(t *testing.T) {
	// Across random instances, local search with restarts should find a
	// valid package whenever one exists reasonably often, and never
	// return an invalid one. We assert validity always, and track the
	// hit rate loosely.
	rng := rand.New(rand.NewSource(23))
	db := minidb.New()
	hits, feasibleTrials := 0, 0
	for trial := 0; trial < 12; trial++ {
		n := 8 + rng.Intn(6)
		rows := make([]schema.Row, n)
		for i := range rows {
			rows[i] = mkRow(i, float64(100+rng.Intn(9)*100), float64(rng.Intn(50)),
				[]string{"meal", "snack"}[rng.Intn(2)])
		}
		inst := instance(t, mealSrc, rows)
		exact, err := PrunedEnumerate(inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(exact.Packages) == 0 {
			continue
		}
		feasibleTrials++
		res, err := LocalSearch(inst, db, Options{Seed: int64(trial), Restarts: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Packages) > 0 {
			hits++
			if inst.Better(res.Packages[0].Obj, exact.Packages[0].Obj) {
				t.Fatalf("trial %d: heuristic beats exact", trial)
			}
		}
	}
	if feasibleTrials > 0 && hits == 0 {
		t.Errorf("local search found nothing in %d feasible trials", feasibleTrials)
	}
}

func TestLocalSearchRepeatQueries(t *testing.T) {
	inst := instance(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 2
		SUCH THAT COUNT(*) = 4 AND SUM(P.calories) BETWEEN 1500 AND 2200
		MAXIMIZE SUM(P.protein)`, testRows()[:5])
	db := minidb.New()
	res, err := LocalSearch(inst, db, Options{Seed: 9, Restarts: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Packages {
		ok, _ := inst.Validate(p.Mult)
		if !ok {
			t.Errorf("invalid package %v", p.Mult)
		}
		for _, m := range p.Mult {
			if m > 3 {
				t.Errorf("multiplicity %d exceeds REPEAT 2 + 1", m)
			}
		}
	}
}

func TestLimitCollectsDistinctPackages(t *testing.T) {
	inst := instance(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= 1000
		MAXIMIZE SUM(P.protein) LIMIT 5`, testRows())
	res, err := PrunedEnumerate(inst, Options{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 5 {
		t.Fatalf("packages = %d, want 5", len(res.Packages))
	}
	seen := map[string]bool{}
	prev := math.Inf(1)
	for _, p := range res.Packages {
		if seen[p.Key()] {
			t.Error("duplicate package in results")
		}
		seen[p.Key()] = true
		if p.Obj > prev+1e-9 {
			t.Error("packages not sorted best-first")
		}
		prev = p.Obj
	}
}

func TestBudgetLimits(t *testing.T) {
	rows := make([]schema.Row, 24)
	for i := range rows {
		rows[i] = mkRow(i, float64(100+(i%9)*100), float64(i%50), "meal")
	}
	inst := instance(t, mealSrc, rows)
	res, err := BruteForce(inst, Options{MaxExamined: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Error("budget-capped brute force should be incomplete")
	}
	if res.Examined > 1100 {
		t.Errorf("examined %d exceeded budget", res.Examined)
	}
}

func TestUnboundedMultiplicityErrors(t *testing.T) {
	// REPEAT-less queries default to multiplicity 1 in PaQL, so force
	// the unlimited case through the instance.
	inst := instance(t, mealSrc, testRows())
	inst.MaxMult = 0
	if _, err := BruteForce(inst, Options{}); err == nil {
		t.Error("brute force should require bounded multiplicity")
	}
	if _, err := PrunedEnumerate(inst, Options{}); err == nil {
		t.Error("pruned enumeration should require bounded multiplicity")
	}
	if _, err := LocalSearch(inst, minidb.New(), Options{}); err == nil {
		t.Error("local search should require bounded multiplicity")
	}
}
