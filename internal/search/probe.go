package search

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/minidb"
)

// ReplacementProbe measures one §4.2 k-replacement neighbourhood query
// without applying any move: it materializes the package and candidate
// scratch tables in a private database, as LocalSearch does, runs the
// 2k-way join that enumerates every valid k-swap, and reports the
// generated SQL, the neighbourhood size, and the join's wall time. The
// E3 experiment uses this to reproduce the paper's claim that "for k
// replacements this method would require a 2k-way join, which quickly
// becomes intractable".
func ReplacementProbe(inst *Instance, mult []int, k int) (sql string, neighbourhood int, elapsed time.Duration, err error) {
	if k < 1 || k > 3 {
		return "", 0, 0, fmt.Errorf("search: probe supports k in 1..3, got %d", k)
	}
	ls := &localState{inst: inst, db: minidb.New(), res: &Result{}}
	if err := ls.createCandidateTable(); err != nil {
		return "", 0, 0, err
	}
	if _, err := ls.syncPackageTable(mult); err != nil {
		return "", 0, 0, err
	}

	sums := ls.atomSums(mult)
	var maxed []int
	for i, m := range mult {
		if m >= inst.MaxMult {
			maxed = append(maxed, i)
		}
	}
	q := ls.swapQuery(k, sums, maxed, false, true)
	// Count the whole neighbourhood: strip LIMIT and ORDER BY so the
	// measurement covers the full join, not an early-out.
	q = stripSuffixClause(q, " ORDER BY ")
	q = stripSuffixClause(q, " LIMIT ")
	start := time.Now()
	res, err := ls.db.Query(q)
	elapsed = time.Since(start)
	if err != nil {
		return q, 0, elapsed, fmt.Errorf("search: probe query: %w\n%s", err, q)
	}
	return q, len(res.Rows), elapsed, nil
}

func stripSuffixClause(q, marker string) string {
	if i := strings.LastIndex(q, marker); i >= 0 {
		return q[:i]
	}
	return q
}
