package sketch

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/search"
	"repro/internal/translate"
)

// maxSweeps bounds the re-refinement passes after the first refine:
// each extra sweep re-solves every active partition against the real
// (no longer representative) contributions of the others, a coordinate
// descent that repairs cross-partition approximation error.
const maxSweeps = 3

// refine replaces each sketch-chosen representative with real tuples
// from its partition. The first pass is a concurrent wave: every active
// partition gets a sub-MILP over its own tuples whose constraint
// right-hand sides are the query atoms minus every other partition's
// representative contribution — the residuals come from one shared
// snapshot, so the solves are independent, run across workers, and
// merge in fixed partition order (largest sketch multiplicity first),
// keeping the result identical at any worker count. Infeasible or
// over-budget sub-problems fall back to a greedy repair that picks the
// tuples nearest the representative. Pinned tuples keep multiplicity
// ≥ 1 throughout: the sub-MILP floors their variables and the repair
// assigns them first. The final package is validated against the full
// formula (and the pins), with up to maxSweeps-1 sequential
// coordinate-descent passes — each re-solve seeing every earlier
// partition's real tuples — to absorb representative and
// cross-partition error.
func refine(inst *search.Instance, leaves []Node, attrs []int, atoms, repAtoms []*translate.LinearAtom, y []int, pins map[int]bool, opts Options, deadline time.Time, res *Result) {
	n := len(inst.Rows)
	mult := make([]int, n)

	// grpSum[g][k]: partition g's current contribution to atom k —
	// representative-based until g is refined, real afterwards.
	grpSum := make([][]float64, len(leaves))
	cur := make([]float64, len(atoms))
	for g := range leaves {
		grpSum[g] = make([]float64, len(atoms))
		if y[g] == 0 {
			continue
		}
		for k := range atoms {
			grpSum[g][k] = repAtoms[k].W[g] * float64(y[g])
			cur[k] += grpSum[g][k]
		}
	}

	var active []int
	for g, m := range y {
		if m > 0 {
			active = append(active, g)
		}
	}
	sort.SliceStable(active, func(i, j int) bool {
		if y[active[i]] != y[active[j]] {
			return y[active[i]] > y[active[j]]
		}
		return active[i] < active[j]
	})
	res.Active = len(active)

	// Scales feed only the greedy fallback's distance metric, and cost a
	// full candidate scan — computed on first use.
	var scales []float64
	repair := func(g int) {
		if scales == nil {
			scales = attrScales(inst, attrs)
		}
		greedyRepair(inst, &leaves[g], attrs, y[g], mult, pins, scales)
	}
	// syncGroup swaps g's tracked contribution from representative to
	// real tuples.
	syncGroup := func(g int) {
		for k := range atoms {
			s := 0.0
			for _, i := range leaves[g].Tuples {
				if mult[i] != 0 {
					s += atoms[k].W[i] * float64(mult[i])
				}
			}
			cur[k] += s - grpSum[g][k]
			grpSum[g][k] = s
		}
	}

	// Sweep 0: the concurrent wave. Partitions are disjoint, so each
	// solve writes only its own mult entries; the repair fallback and
	// the contribution bookkeeping run in the deterministic merge loop.
	oks := solveWave(inst, active, func(g int) []int { return leaves[g].Tuples },
		tupleBound(inst, pins), atoms, inst.ObjW, cur, grpSum, mult, opts, deadline, res)
	for ai, g := range active {
		if oks[ai] {
			res.Refined++
		} else {
			repair(g)
			res.Repaired++
		}
		syncGroup(g)
	}
	valid := checkAtoms(atoms, cur)

	// Repair sweeps are sequential coordinate descent: each re-solve
	// sees every earlier partition's real tuples (order-dependent state
	// keeps them serial), so the last feasible solve enforces the full
	// formula. They only run when the wave's shared-snapshot result
	// violates a constraint.
	for sweep := 1; !valid && sweep < maxSweeps; sweep++ {
		if sweep == 1 {
			res.Notes = append(res.Notes, "refined package violates a constraint; running repair sweeps")
		}
		for _, g := range active {
			residual := make([]float64, len(atoms))
			for k := range atoms {
				residual[k] = atoms[k].RHS - (cur[k] - grpSum[g][k])
			}
			if !residualSolve(inst, leaves[g].Tuples, tupleBound(inst, pins), atoms, inst.ObjW, residual, mult, opts, deadline, res) {
				repair(g)
			}
			syncGroup(g)
		}
		valid = checkAtoms(atoms, cur)
	}

	res.Mult = mult
	if obj, err := inst.Objective(mult); err == nil {
		res.Objective = obj
	}
	for i := range pins {
		if valid && mult[i] == 0 {
			valid = false
			res.Notes = append(res.Notes, "internal: a pinned tuple fell out of the refined package")
		}
	}
	if valid {
		// The atom set is a sufficient condition for the formula (one
		// DNF branch, with strict comparisons epsilon-tightened), but
		// validate end to end anyway; a disagreement is a bug upstream.
		full, err := inst.Validate(mult)
		valid = err == nil && full
		if !valid {
			res.Notes = append(res.Notes, "internal: atom check and full validation disagree")
		}
	}
	res.Feasible = valid
	if !valid {
		res.Notes = append(res.Notes,
			fmt.Sprintf("refine could not reach a feasible package within %d sweeps", maxSweeps))
	}
}

// residualSolve runs one residual sub-MILP shared by the refine step
// (members are partition tuples) and the hierarchical push-down
// (members are a level's nodes): variables are the members'
// multiplicities with caller-supplied bounds, constraints the atoms —
// weighted per member — against residual right-hand sides, objective
// the affine objective restricted to the members. Atoms the members
// cannot influence (all-zero weights) are skipped: their violation, if
// any, is another group's to repair. The solution lands in out, indexed
// by member id. Returns false when the MILP is infeasible, hits its
// limits without an incumbent, or the budget is spent.
func residualSolve(inst *search.Instance, members []int, bound func(id int) (lo, up float64), atoms []*translate.LinearAtom, objW []float64, residual []float64, out []int, opts Options, deadline time.Time, res *Result) bool {
	if !deadline.IsZero() && time.Now().After(deadline) {
		return false
	}
	if opts.stopped() {
		// Canceled: report failure so the wave's merge loop falls back
		// to the (cheap) greedy path and the caller's own checkpoint
		// surfaces the cancellation.
		return false
	}
	m := len(members)
	p := lp.NewProblem(m)
	for j, id := range members {
		lo, up := bound(id)
		if err := p.SetBounds(j, lo, up); err != nil {
			return false
		}
	}
	if inst.ObjW != nil && objW != nil {
		obj := make([]float64, m)
		for j, id := range members {
			obj[j] = objW[id]
		}
		if err := p.SetObjective(obj, objSense(inst)); err != nil {
			return false
		}
	}
	for k, at := range atoms {
		var coefs []lp.Coef
		for j, id := range members {
			if at.W[id] != 0 {
				coefs = append(coefs, lp.Coef{Var: j, Val: at.W[id]})
			}
		}
		if len(coefs) == 0 {
			continue
		}
		if _, err := p.AddConstraint(coefs, at.Op, residual[k]); err != nil {
			return false
		}
	}
	mp := milp.NewProblem(p)
	for j := 0; j < m; j++ {
		mp.SetInteger(j)
	}
	sol := milp.Solve(mp, milp.Options{MaxNodes: subMILPNodes, TimeLimit: timeShare(deadline, 4), Ctx: opts.Ctx})
	res.Nodes += int64(sol.Nodes)
	res.LPIters += sol.LPIters
	if sol.X == nil || (sol.Status != milp.StatusOptimal && sol.Status != milp.StatusFeasible) {
		return false
	}
	for j, id := range members {
		out[id] = int(math.Round(sol.X[j]))
	}
	return true
}

// solveWave runs one residual sub-MILP per group in order concurrently,
// every residual taken against the same cur/grpSum snapshot (each
// group's own contribution subtracted back out). Groups own disjoint
// entries of out, so the solves are independent and their results are
// deterministic regardless of scheduling; per-solve node/iteration
// counters are accumulated into res in group order. Both waves — the
// per-leaf refine and the hierarchical per-parent push-down — share it.
// Returns one success flag per group; the caller applies fallbacks and
// contribution updates in its own deterministic merge loop.
func solveWave(inst *search.Instance, order []int, members func(g int) []int, bound func(int) (float64, float64), atoms []*translate.LinearAtom, objW []float64, cur []float64, grpSum [][]float64, out []int, opts Options, deadline time.Time, res *Result) []bool {
	oks := make([]bool, len(order))
	subs := make([]Result, len(order))
	residuals := make([][]float64, len(order))
	for ai, g := range order {
		r := make([]float64, len(atoms))
		for k := range atoms {
			r[k] = atoms[k].RHS - (cur[k] - grpSum[g][k])
		}
		residuals[ai] = r
	}
	parallelFor(opts.workers(), len(order), func(ai int) {
		g := order[ai]
		oks[ai] = residualSolve(inst, members(g), bound, atoms, objW, residuals[ai], out, opts, deadline, &subs[ai])
	})
	for ai := range order {
		res.Nodes += subs[ai].Nodes
		res.LPIters += subs[ai].LPIters
	}
	return oks
}

// tupleBound is the refine step's bound function: pinned tuples floored
// at 1, capped at the query's REPEAT bound.
func tupleBound(inst *search.Instance, pins map[int]bool) func(int) (float64, float64) {
	return func(i int) (float64, float64) {
		lo := 0.0
		if pins[i] {
			lo = 1
		}
		up := lp.Inf
		if inst.MaxMult > 0 {
			up = float64(inst.MaxMult)
		}
		return lo, up
	}
}

// greedyRepair approximates the representative's contribution with real
// tuples when the sub-MILP fails: pinned tuples receive their unit
// first, then the remaining units the sketch owes are assigned
// round-robin to the partition's tuples nearest the representative in
// normalized attribute space.
func greedyRepair(inst *search.Instance, leaf *Node, attrs []int, units int, mult []int, pins map[int]bool, scales []float64) {
	floor := func(i int) int {
		if pins[i] {
			return 1
		}
		return 0
	}
	capacity := func(int) int {
		if inst.MaxMult > 0 {
			return inst.MaxMult
		}
		return max(units, 1)
	}
	dist := func(i int) float64 {
		d := 0.0
		for ai, a := range attrs {
			diff := (numAt(inst.Rows[i], a) - numAt(leaf.Rep, a)) / scales[ai]
			d += diff * diff
		}
		return d
	}
	allocate(leaf.Tuples, units, floor, capacity, dist, mult)
}

// allocate distributes units across members: every member first takes
// its floor (floors outrank units — the total placed is at least their
// sum), then the remainder goes round-robin in distance order (nearest
// first, member id on ties), respecting per-member capacity. Results
// land in out, indexed by member id; prior values are overwritten. Both
// greedy fallbacks — per-leaf repair and per-level spread — share it.
func allocate(members []int, units int, floor, capacity func(id int) int, dist func(id int) float64, out []int) {
	placed := 0
	for _, id := range members {
		f := floor(id)
		out[id] = f
		placed += f
	}
	if units < placed {
		units = placed
	}
	order := append([]int(nil), members...)
	sort.SliceStable(order, func(a, b int) bool {
		da, db := dist(order[a]), dist(order[b])
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	for placed < units {
		progressed := false
		for _, id := range order {
			if placed >= units {
				break
			}
			if out[id] < capacity(id) {
				out[id]++
				placed++
				progressed = true
			}
		}
		if !progressed {
			break // capacity exhausted
		}
	}
}

// attrScales normalizes each partition attribute by its spread across
// all candidates (1 for constant columns).
func attrScales(inst *search.Instance, attrs []int) []float64 {
	return rowScales(inst.Rows, attrs)
}

// checkAtoms verifies every atom against the tracked sums.
func checkAtoms(atoms []*translate.LinearAtom, sums []float64) bool {
	for k, at := range atoms {
		if !at.CheckSum(sums[k]) {
			return false
		}
	}
	return true
}
