package main

import (
	"fmt"
	"math"

	packagebuilder "repro"
	"repro/internal/schema"
)

// tol absorbs float summation order: the engine and the harness add the
// same integers-as-floats and cent prices in different orders.
const tol = 1e-6

// aggregates are the harness's own recomputation over a package's rows.
type aggregates struct {
	count                                 int
	calories, protein, fat, price, rating float64
	minProtein, maxCalories               float64
}

func aggregate(rows []schema.Row) aggregates {
	a := aggregates{count: len(rows), minProtein: math.Inf(1), maxCalories: math.Inf(-1)}
	for _, r := range rows {
		a.calories += num(r, colCalories)
		a.protein += num(r, colProtein)
		a.fat += num(r, colFat)
		a.price += num(r, colPrice)
		a.rating += num(r, colRating)
		a.minProtein = math.Min(a.minProtein, num(r, colProtein))
		a.maxCalories = math.Max(a.maxCalories, num(r, colCalories))
	}
	return a
}

// objective is the template's MAXIMIZE expression over the aggregates.
func (o op) objective(a aggregates) float64 {
	if o.tmpl == 3 {
		return a.rating
	}
	return a.protein
}

// check holds the aggregates against the template's SUCH THAT clause
// with the op's drawn constant.
func (o op) check(a aggregates) error {
	k := float64(o.k)
	between := func(name string, v, lo, hi float64) error {
		if v < lo-tol || v > hi+tol {
			return fmt.Errorf("%s = %g outside [%g, %g]", name, v, lo, hi)
		}
		return nil
	}
	count := func(lo, hi int) error {
		if a.count < lo || a.count > hi {
			return fmt.Errorf("COUNT(*) = %d outside [%d, %d]", a.count, lo, hi)
		}
		return nil
	}
	var errs []error
	switch o.tmpl {
	case 0:
		errs = []error{count(3, 3), between("SUM(calories)", a.calories, k, k+500)}
	case 1:
		errs = []error{count(5, 5), between("AVG(calories)", a.calories/float64(max(a.count, 1)), math.Inf(-1), k)}
	case 2:
		errs = []error{count(5, 5), between("MIN(protein)", a.minProtein, 5, math.Inf(1)),
			between("MAX(calories)", a.maxCalories, math.Inf(-1), k), between("SUM(calories)", a.calories, 2500, 3500)}
	case 3:
		errs = []error{count(4, 8), between("SUM(price)", a.price, math.Inf(-1), k+halfCent), between("SUM(fat)", a.fat, math.Inf(-1), 120)}
	default:
		errs = []error{count(3, 3), between("SUM(calories)", a.calories, k, k+500), between("SUM(fat)", a.fat, 20, 200)}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sameRow compares an answered row with the harness's copy: strings
// exactly, numbers by value (an INSERT literal may store 424 where the
// CSV loader stored 424.0).
func sameRow(got, want schema.Row) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].IsNumeric() && want[i].IsNumeric() {
			if num(got, i) != num(want, i) {
				return false
			}
		} else if !got[i].Equal(want[i]) {
			return false
		}
	}
	return true
}

// validate checks one answer end to end and returns the package's
// certified tightness min(found, bound)/max(found, bound), 0 when the
// answer carries no certificate. live resolves a row id to the harness's
// copy of the row, false when no such row is alive in the table.
func validate(o op, exact bool, live func(id int) (schema.Row, bool), res *packagebuilder.Result) (tightness float64, err error) {
	if res == nil || len(res.Packages) == 0 {
		return 0, fmt.Errorf("empty answer")
	}
	pkg := res.Packages[0]
	seen := map[int]bool{}
	for _, r := range pkg.Rows {
		id, _ := r[colID].AsInt()
		if seen[int(id)] {
			return 0, fmt.Errorf("row %d repeated without REPEAT", id)
		}
		seen[int(id)] = true
		want, ok := live(int(id))
		if !ok {
			return 0, fmt.Errorf("row %d is not in the table", id)
		}
		if !sameRow(r, want) {
			return 0, fmt.Errorf("row %d differs from the generated row", id)
		}
		if !o.where.match(r) {
			return 0, fmt.Errorf("row %d fails the WHERE clause", id)
		}
	}
	a := aggregate(pkg.Rows)
	if err := o.check(a); err != nil {
		return 0, err
	}
	found := o.objective(a)
	if math.Abs(found-pkg.Objective) > tol {
		return 0, fmt.Errorf("objective %g reported, %g recomputed", pkg.Objective, found)
	}
	st := res.Stats
	if exact {
		if st.Strategy != packagebuilder.Solver || !st.Exact {
			return 0, fmt.Errorf("strategy %v exact=%v, want the exact solver", st.Strategy, st.Exact)
		}
	} else if st.Strategy != packagebuilder.SketchRefine {
		return 0, fmt.Errorf("strategy %v, want sketch-refine", st.Strategy)
	}
	if !st.Certified {
		return 0, nil
	}
	// Every template maximizes, so the certificate is found ≤ optimum ≤ bound.
	if found > st.BoundValue+tol*math.Max(1, math.Abs(found)) {
		return 0, fmt.Errorf("objective %g beats its certified bound %g", found, st.BoundValue)
	}
	if found <= 0 || st.BoundValue <= 0 {
		return 0, fmt.Errorf("non-positive certified interval [%g, %g]", found, st.BoundValue)
	}
	return math.Min(found, st.BoundValue) / math.Max(found, st.BoundValue), nil
}
