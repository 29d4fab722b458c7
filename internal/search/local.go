package search

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/lp"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/value"
)

// tableSeq disambiguates the scratch tables of concurrent searches.
var tableSeq atomic.Int64

// LocalSearch is the paper's §4.2 heuristic: starting from a candidate
// package, find k-tuple replacements leading to a valid (then better)
// package, where the replacement neighbourhood is computed by a single
// SQL join query against the DBMS — a 2k-way join between the current
// package and the candidate relation. Additions and removals repair
// cardinality; swaps repair sums and improve the objective. Restarts
// diversify; as the paper notes, "there is no guarantee that all valid
// solutions will be found".
func LocalSearch(inst *Instance, db *minidb.DB, opt Options) (*Result, error) {
	if inst.MaxMult <= 0 {
		return nil, fmt.Errorf("search: local search requires bounded multiplicity (REPEAT)")
	}
	start := time.Now()
	res := &Result{}
	deadline := opt.deadline()
	limit := opt.limit()
	restarts := opt.Restarts
	if restarts <= 0 {
		restarts = 4
	}
	maxK := opt.MaxK
	if maxK <= 0 {
		maxK = 2
	}
	if maxK > 3 {
		maxK = 3
	}
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	required, err := opt.requireSet(len(inst.Rows))
	if err != nil {
		return nil, err
	}

	ls := &localState{inst: inst, db: db, res: res, opt: opt,
		candTable: fmt.Sprintf("pb_cand_%d", tableSeq.Add(1)),
		required:  required,
	}
	if err := ls.createCandidateTable(); err != nil {
		return nil, err
	}
	defer func() { _ = db.DropTable(ls.candTable) }()

	for r := 0; r < restarts; r++ {
		if opt.stop(deadline) {
			break
		}
		var cur Pkg
		if r == 0 {
			cur = Greedy(inst, nil)
		} else if r == 1 {
			cur = Greedy(inst, rng)
		} else {
			cur = RandomStart(inst, rng)
		}
		for i := range ls.required {
			if cur.Mult[i] == 0 {
				cur.Mult[i] = 1
			}
		}
		if err := ls.climb(cur, maxK, limit, deadline); err != nil {
			_ = db.DropTable(ls.pkgTable())
			return nil, err
		}
		if limit == 1 && len(res.Packages) > 0 && inst.Analysis.Query.Objective == nil {
			break // any valid package suffices
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

type localState struct {
	inst      *Instance
	db        *minidb.DB
	res       *Result
	opt       Options
	candTable string
	pkgSeq    int
	required  map[int]bool // pinned candidates (adaptive exploration)
}

func (ls *localState) pkgTable() string {
	return fmt.Sprintf("%s_pkg%d", ls.candTable, ls.pkgSeq)
}

// createCandidateTable materializes the candidates with per-atom weight
// columns: rid (candidate index), obj, w0..wk.
func (ls *localState) createCandidateTable() error {
	cols := []schema.Column{
		{Name: "rid", Type: schema.TInt},
		{Name: "obj", Type: schema.TFloat},
	}
	for k := range ls.inst.Atoms {
		cols = append(cols, schema.Column{Name: fmt.Sprintf("w%d", k), Type: schema.TFloat})
	}
	if _, err := ls.db.CreateTable(ls.candTable, schema.Schema{Cols: cols}); err != nil {
		return err
	}
	rows := make([]schema.Row, len(ls.inst.Rows))
	for i := range ls.inst.Rows {
		row := make(schema.Row, 2+len(ls.inst.Atoms))
		row[0] = value.Int(int64(i))
		row[1] = value.Float(objWeight(ls.inst, i))
		for k, at := range ls.inst.Atoms {
			row[2+k] = value.Float(at.W[i])
		}
		rows[i] = row
	}
	return ls.db.InsertRows(ls.candTable, rows)
}

// syncPackageTable (re)materializes the current package, one row per
// multiplicity unit: idx (slot), rid, obj, w0..wk.
func (ls *localState) syncPackageTable(mult []int) ([]int, error) {
	old := ls.pkgTable()
	_ = ls.db.DropTable(old)
	ls.pkgSeq++
	name := ls.pkgTable()
	cols := []schema.Column{
		{Name: "idx", Type: schema.TInt},
		{Name: "rid", Type: schema.TInt},
		{Name: "obj", Type: schema.TFloat},
	}
	for k := range ls.inst.Atoms {
		cols = append(cols, schema.Column{Name: fmt.Sprintf("w%d", k), Type: schema.TFloat})
	}
	if _, err := ls.db.CreateTable(name, schema.Schema{Cols: cols}); err != nil {
		return nil, err
	}
	var rows []schema.Row
	var slots []int
	slot := 0
	for i, m := range mult {
		start := 0
		if ls.required[i] && m > 0 {
			start = 1 // the pinned unit never enters the swap pool
		}
		for u := start; u < m; u++ {
			row := make(schema.Row, 3+len(ls.inst.Atoms))
			row[0] = value.Int(int64(slot))
			row[1] = value.Int(int64(i))
			row[2] = value.Float(objWeight(ls.inst, i))
			for k, at := range ls.inst.Atoms {
				row[3+k] = value.Float(at.W[i])
			}
			rows = append(rows, row)
			slots = append(slots, i)
			slot++
		}
	}
	if len(rows) > 0 {
		if err := ls.db.InsertRows(name, rows); err != nil {
			return nil, err
		}
	}
	return slots, nil
}

func num(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if strings.HasPrefix(s, "-") {
		return "(0 " + s[:1] + " " + s[1:] + ")"
	}
	return s
}

// swapQuery builds the §4.2 replacement SQL for k simultaneous swaps.
// sums are the current atom sums; improving adds the objective-delta
// requirement; maximize orients it.
func (ls *localState) swapQuery(k int, sums []float64, maxed []int, improving, maximize bool) string {
	var from []string
	var selects []string
	var conds []string
	for j := 1; j <= k; j++ {
		from = append(from, fmt.Sprintf("%s p%d", ls.pkgTable(), j))
		selects = append(selects, fmt.Sprintf("p%d.idx", j))
	}
	for j := 1; j <= k; j++ {
		from = append(from, fmt.Sprintf("%s c%d", ls.candTable, j))
		selects = append(selects, fmt.Sprintf("c%d.rid", j))
	}
	for j := 1; j < k; j++ {
		conds = append(conds, fmt.Sprintf("p%d.idx < p%d.idx", j, j+1))
		conds = append(conds, fmt.Sprintf("c%d.rid < c%d.rid", j, j+1))
	}
	for j := 1; j <= k; j++ {
		conds = append(conds, fmt.Sprintf("c%d.rid <> p%d.rid", j, j))
		if len(maxed) > 0 {
			var lits []string
			for _, r := range maxed {
				lits = append(lits, strconv.Itoa(r))
			}
			conds = append(conds, fmt.Sprintf("c%d.rid NOT IN (%s)", j, strings.Join(lits, ", ")))
		}
	}
	for a, at := range ls.inst.Atoms {
		lhs := num(sums[a])
		for j := 1; j <= k; j++ {
			lhs += fmt.Sprintf(" - p%d.w%d + c%d.w%d", j, a, j, a)
		}
		op := "<="
		if at.Op == lp.GE {
			op = ">="
		}
		conds = append(conds, fmt.Sprintf("%s %s %s", lhs, op, num(at.RHS)))
	}
	delta := ""
	for j := 1; j <= k; j++ {
		if j > 1 {
			delta += " + "
		}
		delta += fmt.Sprintf("c%d.obj - p%d.obj", j, j)
	}
	if improving {
		if maximize {
			conds = append(conds, fmt.Sprintf("%s > 0.000000001", delta))
		} else {
			conds = append(conds, fmt.Sprintf("%s < -0.000000001", delta))
		}
	}
	// First-improvement: LIMIT 1 with no ORDER BY lets the streaming
	// executor stop at the first qualifying replacement instead of
	// materializing and sorting the whole neighbourhood. Hill climbing
	// still terminates (the objective strictly improves per move); the
	// final no-move-exists proof costs one full scan, same as
	// best-improvement's every iteration.
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s LIMIT 1",
		strings.Join(selects, ", "), strings.Join(from, ", "),
		strings.Join(conds, " AND "))
}

// climb runs one repair-then-improve trajectory from a start package.
func (ls *localState) climb(cur Pkg, maxK, limit int, deadline time.Time) error {
	inst := ls.inst
	maximize := inst.Analysis.Query.Objective != nil && inst.Better(1, 0)
	mult := append([]int(nil), cur.Mult...)
	maxIters := 60 + 12*len(inst.Atoms) + cur.Size()*4
	// First-improvement hill climbing can take many tiny steps on large
	// candidate sets; cap the improvement phase to keep the strategy in
	// its "fast but heuristic" regime (§4.2).
	improvesLeft := 12 + cur.Size()*4

	for iter := 0; iter < maxIters; iter++ {
		if ls.opt.stop(deadline) {
			return nil
		}
		sums := ls.atomSums(mult)
		atomsOK := true
		for k, at := range inst.Atoms {
			if !at.CheckSum(sums[k]) {
				atomsOK = false
				break
			}
		}
		countOK := true
		size := sizeOf(mult)
		if size < inst.Bounds.Lo || size > inst.Bounds.Hi {
			countOK = false
		}
		if atomsOK && countOK {
			valid, err := inst.Validate(mult)
			if err != nil {
				return err
			}
			if valid {
				obj, err := inst.Objective(mult)
				if err != nil {
					return err
				}
				ls.res.add(inst, Pkg{Mult: append([]int(nil), mult...), Obj: obj}, limit)
				if inst.Analysis.Query.Objective == nil {
					return nil
				}
				// Improve: first objective-improving swap that stays valid.
				if improvesLeft <= 0 {
					return nil // improvement budget spent
				}
				improvesLeft--
				applied, err := ls.trySwaps(mult, sums, 1, true, maximize)
				if err != nil {
					return err
				}
				if !applied {
					return nil // local optimum
				}
				continue
			}
			// Atoms hold but the full formula (disjunctive or
			// AVG/MIN/MAX parts) fails: perturb via a random swap.
			if applied, err := ls.trySwaps(mult, sums, 1, false, maximize); err != nil || !applied {
				return err
			}
			continue
		}
		// Repair: additions for low cardinality / unmet GE, removals for
		// excess, then SQL swaps of growing size.
		if size < inst.Bounds.Lo || ls.needsAddition(sums) {
			if ls.tryAdd(mult, sums) {
				continue
			}
		}
		if size > inst.Bounds.Hi || ls.needsRemoval(sums) {
			if ls.tryDrop(mult, sums) {
				continue
			}
		}
		moved := false
		for k := 1; k <= maxK; k++ {
			if swapCombos(sizeOf(mult), len(inst.Rows), k) > comboBudget {
				break // the 2k-way join would be intractable (§4.2)
			}
			applied, err := ls.trySwaps(mult, sums, k, false, maximize)
			if err != nil {
				return err
			}
			if applied {
				moved = true
				break
			}
		}
		if !moved {
			return nil // stuck; caller restarts
		}
	}
	return nil
}

// comboBudget caps the join size a repair swap may scan; beyond it the
// neighbourhood is skipped, mirroring the paper's observation that the
// 2k-way replacement join "quickly becomes intractable".
const comboBudget = 500_000

// swapCombos estimates the k-swap join size C(slots,k)*C(n,k).
func swapCombos(slots, n, k int) float64 {
	choose := func(m, r int) float64 {
		if r > m {
			return 0
		}
		out := 1.0
		for i := 0; i < r; i++ {
			out *= float64(m-i) / float64(i+1)
		}
		return out
	}
	return choose(slots, k) * choose(n, k)
}

func (ls *localState) atomSums(mult []int) []float64 {
	sums := make([]float64, len(ls.inst.Atoms))
	for k, at := range ls.inst.Atoms {
		s := 0.0
		for i, m := range mult {
			if m != 0 {
				s += at.W[i] * float64(m)
			}
		}
		sums[k] = s
	}
	return sums
}

func sizeOf(mult []int) int {
	s := 0
	for _, m := range mult {
		s += m
	}
	return s
}

func (ls *localState) needsAddition(sums []float64) bool {
	for k, at := range ls.inst.Atoms {
		if at.Op == lp.GE && sums[k] < at.RHS-1e-9 {
			return true
		}
	}
	return false
}

func (ls *localState) needsRemoval(sums []float64) bool {
	for k, at := range ls.inst.Atoms {
		if at.Op == lp.LE && sums[k] > at.RHS+1e-9 {
			return true
		}
	}
	return false
}

// tryAdd inserts the tuple that most reduces GE violations without
// breaking LE atoms (computed locally; the package is small but the
// candidate scan is linear, mirroring an indexed DBMS lookup).
func (ls *localState) tryAdd(mult []int, sums []float64) bool {
	inst := ls.inst
	if sizeOf(mult)+1 > inst.Bounds.Hi {
		return false
	}
	bestI := -1
	bestScore := 0.0
	for i := range inst.Rows {
		if mult[i] >= inst.MaxMult {
			continue
		}
		ok := true
		score := 0.0
		for k, at := range inst.Atoms {
			after := sums[k] + at.W[i]
			switch at.Op {
			case lp.LE:
				if after > at.RHS+1e-9 {
					ok = false
				}
			case lp.GE:
				if sums[k] < at.RHS {
					gain := minf(after, at.RHS) - sums[k]
					score += gain
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		if sizeOf(mult) < inst.Bounds.Lo {
			score += 1 // any legal addition helps cardinality
		}
		if score > bestScore {
			bestScore = score
			bestI = i
		}
	}
	if bestI == -1 {
		return false
	}
	mult[bestI]++
	return true
}

// tryDrop removes the tuple that most reduces LE violations without
// breaking GE atoms or the cardinality lower bound.
func (ls *localState) tryDrop(mult []int, sums []float64) bool {
	inst := ls.inst
	if sizeOf(mult)-1 < inst.Bounds.Lo {
		return false
	}
	bestI := -1
	bestScore := 0.0
	for i := range inst.Rows {
		if mult[i] == 0 || (ls.required[i] && mult[i] == 1) {
			continue
		}
		ok := true
		score := 0.0
		for k, at := range inst.Atoms {
			after := sums[k] - at.W[i]
			switch at.Op {
			case lp.GE:
				if after < at.RHS-1e-9 {
					ok = false
				}
			case lp.LE:
				if sums[k] > at.RHS {
					score += sums[k] - maxf(after, at.RHS)
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		if sizeOf(mult) > inst.Bounds.Hi {
			score += 1
		}
		if score > bestScore {
			bestScore = score
			bestI = i
		}
	}
	if bestI == -1 {
		return false
	}
	mult[bestI]--
	return true
}

// trySwaps issues the k-replacement SQL query and applies the top
// result. It reports whether a move was applied.
func (ls *localState) trySwaps(mult []int, sums []float64, k int, improving, maximize bool) (bool, error) {
	slots, err := ls.syncPackageTable(mult)
	if err != nil {
		return false, err
	}
	defer func() { _ = ls.db.DropTable(ls.pkgTable()) }()
	if len(slots) < k {
		return false, nil
	}
	var maxed []int
	for i, m := range mult {
		if m >= ls.inst.MaxMult {
			maxed = append(maxed, i)
		}
	}
	q := ls.swapQuery(k, sums, maxed, improving, maximize)
	res, err := ls.db.Query(q)
	ls.res.Queries++
	if err != nil {
		return false, fmt.Errorf("search: replacement query failed: %w\n%s", err, q)
	}
	ls.res.Examined += int64(len(res.Rows))
	if len(res.Rows) == 0 {
		return false, nil
	}
	row := res.Rows[0]
	// first k columns: slot indexes out; next k: candidate rids in
	for j := 0; j < k; j++ {
		slot, _ := row[j].AsInt()
		out := slots[slot]
		mult[out]--
	}
	for j := k; j < 2*k; j++ {
		in, _ := row[j].AsInt()
		mult[in]++
	}
	return true, nil
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
