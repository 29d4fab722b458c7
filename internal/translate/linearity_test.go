package translate

import (
	"slices"
	"strings"
	"testing"
)

// linearClauses and nonlinearClauses are SUCH THAT clauses on either side
// of the line Translate draws. The last three non-linear ones compare
// against a constant with no number in it.
var linearClauses = []string{
	`SUCH THAT COUNT(*) = 3`,
	`SUCH THAT SUM(P.calories) BETWEEN 100 AND 200`,
	`SUCH THAT 2 * SUM(P.calories) - COUNT(*) <= 100`,
	`SUCH THAT SUM(P.calories) / 2 <= 100`,
	`SUCH THAT AVG(P.calories) <= 500`,
	`SUCH THAT MIN(P.calories) >= 100 AND MAX(P.calories) <= 700`,
	`SUCH THAT COUNT(*) = 3 OR SUM(P.calories) >= 1000`,
	`SUCH THAT NOT (SUM(P.calories) > 2500)`,
	`SUCH THAT AVG(P.calories) BETWEEN 100 AND 500`,
	`SUCH THAT COUNT(* WHERE P.kind = 'car') >= 1`,
	`SUCH THAT -SUM(P.calories) >= -2500 AND 100 <= MAX(P.calories)`,
	`SUCH THAT SUM(P.calories) * (2 + 3) / (4 - 2) <= ABS(-100) + 1`,
	`SUCH THAT 500 >= AVG(P.calories) AND TRUE`,
	`SUCH THAT SUM(P.calories) BETWEEN COUNT(*) AND 100`,
	`SUCH THAT SUM(P.calories) BETWEEN SUM(P.protein) AND 400`,
}
var nonlinearClauses = []string{
	`SUCH THAT SUM(P.calories) * SUM(P.protein) <= 100`,
	`SUCH THAT SUM(P.calories) / COUNT(*) <= 100 AND SUM(P.protein) / SUM(P.calories) > 1`,
	`SUCH THAT AVG(P.calories) + SUM(P.protein) <= 100`,
	`SUCH THAT MIN(P.calories) = 100`,
	`SUCH THAT SUM(P.calories) <> 100`,
	`SUCH THAT AVG(P.calories) = 500`,
	`SUCH THAT ABS(SUM(P.calories)) <= 100`,
	`SUCH THAT -AVG(P.calories) <= 100 OR SUM(P.calories) / SUM(P.protein) <= 2`,
	`SUCH THAT MIN(P.calories) * 2 BETWEEN 1 AND 100`,
	`SUCH THAT SUM(P.calories)`,
	`SUCH THAT COUNT(*) = 3 AND SUM(P.calories) <= NULL`,
	`SUCH THAT COUNT(*) = 3 AND SUM(P.calories) <= 'abc'`,
	`SUCH THAT COUNT(*) = 3 AND SUM(P.calories) <= 1/0`,
}

// TestLinearityClassification: the verdict is linear exactly when
// Translate encodes the query over a small table and exactly when
// CompileSketch lowers it (none of these clauses passes the DNF cap), and
// a failed translation's error is one of the verdict's reasons.
func TestLinearityClassification(t *testing.T) {
	rows := testRows()
	ids := make([]int, len(rows))
	for i := range ids {
		ids[i] = i
	}
	check := func(src string, wantLinear bool) {
		t.Helper()
		a := analyze(t, src)
		reasons := Nonlinear(a)
		if linear := reasons == nil; linear != wantLinear {
			t.Errorf("%q: linear = %v, want %v (reasons %q)", src, linear, wantLinear, reasons)
		}
		_, err := Translate(a, rows, ids)
		if (err == nil) != (reasons == nil) {
			t.Errorf("%q: Translate error %v, verdict reasons %q", src, err, reasons)
		}
		if err != nil && !slices.Contains(reasons, err.Error()) {
			t.Errorf("%q: Translate's error %q is not among the verdict's reasons %q", src, err, reasons)
		}
		if _, _, err := CompileSketch(a, 0); (err == nil) != (reasons == nil) {
			t.Errorf("%q: CompileSketch error %v, verdict reasons %q", src, err, reasons)
		}
	}
	for _, clause := range linearClauses {
		check(`SELECT PACKAGE(R) AS P FROM Recipes R `+clause, true)
	}
	for _, clause := range nonlinearClauses {
		check(`SELECT PACKAGE(R) AS P FROM Recipes R `+clause, false)
	}
	check(`SELECT PACKAGE(R) AS P FROM Recipes R MAXIMIZE SUM(P.protein) / COUNT(*)`, false)
	check(`SELECT PACKAGE(R) AS P FROM Recipes R MAXIMIZE SUM(P.protein) + NULL`, false)
	check(`SELECT PACKAGE(R) AS P FROM Recipes R MINIMIZE SUM(P.price) - 2 * COUNT(*)`, true)
}

// TestNonlinearGivesOneReasonPerObstruction: every comparison that does
// not lower, and the objective, is a reason of its own, in formula order.
func TestNonlinearGivesOneReasonPerObstruction(t *testing.T) {
	a := analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT SUM(P.calories) * SUM(P.protein) <= 100 AND COUNT(*) = 2
		      AND (MIN(P.calories) = 100 OR SUM(P.calories) <= NULL)
		MAXIMIZE AVG(P.protein)`)
	reasons := Nonlinear(a)
	want := []string{"SUM(R.calories) * SUM(R.protein)", "MIN(R.calories) = 100", "SUM(R.calories) <= NULL", "objective"}
	if len(reasons) != len(want) {
		t.Fatalf("reasons = %q, want one each for %q", reasons, want)
	}
	for i, w := range want {
		if !strings.Contains(reasons[i], w) {
			t.Errorf("reason %d = %q, want it to name %q", i, reasons[i], w)
		}
	}
}
