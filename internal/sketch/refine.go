package sketch

import (
	"math"
	"sort"
	"time"

	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/translate"
)

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
// assigns them first. The package is checked against the atoms, and
// when it violates one, a single sequential repair sweep re-solves each
// partition in the same order against every other partition's real
// contribution, absorbing representative and cross-partition error.
// The result is validated against the full formula (and the pins).
//
// The atoms enforced are the branch's tuple-level rows plus one
// synthetic atom per exclusion cut; repAtoms is the same list weighed
// over the leaves' representatives, y the leaves' sketch multiplicities.
func (s *solver) refine(d *descent, tree *Tree, ba *branchAtoms, repAtoms []*translate.LinearAtom, y []int) {
	inst, leaves := s.inst, tree.Leaves()
	atoms := s.fullAtoms(ba)
	mult := make([]int, len(inst.Rows))
	sub := &residual{bound: s.tupleBound, atoms: atoms, objW: inst.ObjW, out: mult}

	// grpSum[g][k]: partition g's current contribution to atom k —
	// representative-based until g is refined, real afterwards.
	cur, grpSum := contributions(repAtoms, y)
	active := activeGroups(y)
	d.Active = len(active)

	near := &metric{ctx: s.opts.Ctx, passes: inst.Passes, attrs: tree.Attrs}
	// repair approximates the representative's contribution with the
	// real tuples nearest it.
	repair := func(g int) {
		sub.greedyFill(leaves[g].Tuples, y[g], func(i int) float64 { return near.dist(inst.Rows[i], leaves[g].Rep) })
	}
	// syncGroup swaps g's tracked contribution from representative to
	// real tuples.
	syncGroup := func(g int) {
		for k := range atoms {
			sum := 0.0
			for _, i := range leaves[g].Tuples {
				if mult[i] != 0 {
					sum += atoms[k].W[i] * float64(mult[i])
				}
			}
			cur[k] += sum - grpSum[g][k]
			grpSum[g][k] = sum
		}
	}

	// The concurrent wave. Partitions are disjoint, so each solve writes
	// only its own mult entries; the repair fallback and the
	// contribution bookkeeping run in the deterministic merge loop.
	oks := s.solveWave(sub, leaves, active, cur, grpSum)
	for ai, g := range active {
		if oks[ai] {
			d.Refined++
		} else {
			repair(g)
			d.Repaired++
		}
		syncGroup(g)
	}
	valid := checkAtoms(atoms, cur)

	// The repair sweep is sequential coordinate descent: each re-solve
	// sees every earlier partition's real tuples (order-dependent state
	// keeps it serial), so the last feasible solve enforces the full
	// formula. It only runs when the wave's shared-snapshot result
	// violates a constraint.
	if !valid {
		d.note("refined package violates a constraint; running a repair sweep")
		for _, g := range active {
			st, t, err := s.subMILP(sub, leaves[g].Tuples, residualRHS(atoms, cur, grpSum[g]), false)
			s.res.tally.merge(t)
			if err != nil || !solved(st) {
				repair(g)
			}
			syncGroup(g)
		}
		valid = checkAtoms(atoms, cur)
	}

	d.Mult = mult
	if obj, err := inst.Objective(mult); err == nil {
		d.Objective = obj
	}
	for i := range s.pins {
		if valid && mult[i] == 0 {
			valid = false
			d.note("internal: a pinned tuple fell out of the refined package")
		}
	}
	if valid {
		// The atom set is a sufficient condition for the formula (one
		// DNF branch, with strict comparisons epsilon-tightened), but
		// validate end to end anyway; a disagreement is a bug upstream.
		full, err := inst.Validate(mult)
		valid = err == nil && full
		if !valid {
			d.note("internal: atom check and full validation disagree")
		}
	}
	d.Feasible = valid
	if !valid {
		d.note("refine could not reach a feasible package")
	}
}

// fullAtoms is the working atom set of a branch: its tuple-level rows
// plus one synthetic atom per exclusion cut. Everything downstream — the
// per-level sketch MILPs, the refine residuals, the final check, the
// bound relaxation — enforces this extended set.
func (s *solver) fullAtoms(ba *branchAtoms) []*translate.LinearAtom {
	if len(s.exAtoms) == 0 {
		return ba.tuple
	}
	return append(append([]*translate.LinearAtom{}, ba.tuple...), s.exAtoms...)
}

// residual is one sketch MILP's data, which subMILP solves over a list
// of members: variables are members with bound's limits, constraints
// the atoms weighted per member, objective objW restricted to the
// members. Members index atoms' weights, objW and out alike — a level's
// nodes for the root solve and the push-down, tuples for the refine
// wave and the repair sweep.
type residual struct {
	bound func(id int) (lo, up float64)
	atoms []*translate.LinearAtom
	objW  []float64
	out   []int
}

// atomRHS is the atoms' own right-hand sides: the residual of a solve no
// other group contributes to.
func atomRHS(atoms []*translate.LinearAtom) []float64 {
	rhs := make([]float64, len(atoms))
	for k, at := range atoms {
		rhs[k] = at.RHS
	}
	return rhs
}

// residualRHS is the atoms' right-hand sides minus every group's current
// contribution but own's.
func residualRHS(atoms []*translate.LinearAtom, cur, own []float64) []float64 {
	rhs := make([]float64, len(atoms))
	for k := range atoms {
		rhs[k] = atoms[k].RHS - (cur[k] - own[k])
	}
	return rhs
}

// allMembers lists ids 0..n-1.
func allMembers(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// solved reports whether a sketch MILP's status carries a solution.
func solved(st milp.Status) bool {
	return st == milp.StatusOptimal || st == milp.StatusFeasible
}

// subMILP builds and solves one sketch MILP — the root solve, the
// push-down, a refine-wave or a repair-sweep solve — over members
// against the given right-hand sides; the solution lands in sub.out,
// indexed by member id, when the status is solved. The root solve keeps
// rows no member can move (their constant side decides infeasibility
// there) and gets half of what is left of the deadline. Every other
// solve skips such rows, since their violation is another group's to
// repair, gets a quarter, and is not started once the deadline has
// passed or the run is canceled (StatusLimit): its caller falls back to
// the cheap greedy path, and the caller's own checkpoint surfaces the
// cancellation. Crossed bounds on a member are StatusInfeasible without
// a solve, and a problem the LP layer refuses is StatusLimit with its
// error. Returns the work the solve cost, for the caller to merge in its
// own deterministic order.
func (s *solver) subMILP(sub *residual, members []int, rhs []float64, root bool) (milp.Status, tally, error) {
	var t tally
	if !root && (s.opts.stopped() || (!s.opts.Deadline.IsZero() && time.Now().After(s.opts.Deadline))) {
		return milp.StatusLimit, t, nil
	}
	m := len(members)
	p := lp.NewProblem(m)
	for j, id := range members {
		lo, up := sub.bound(id)
		if lo > up {
			// A pinned tuple inside a fully-eliminated subtree: nothing
			// over these members can honor both.
			return milp.StatusInfeasible, t, nil
		}
		if err := p.SetBounds(j, lo, up); err != nil {
			return milp.StatusLimit, t, err
		}
	}
	obj := make([]float64, m)
	for j, id := range members {
		obj[j] = sub.objW[id]
	}
	if err := p.SetObjective(obj, objSense(s.inst)); err != nil {
		return milp.StatusLimit, t, err
	}
	for k, at := range sub.atoms {
		var coefs []lp.Coef
		for j, id := range members {
			if at.W[id] != 0 {
				coefs = append(coefs, lp.Coef{Var: j, Val: at.W[id]})
			}
		}
		if len(coefs) == 0 && !root {
			continue
		}
		if _, err := p.AddConstraint(coefs, at.Op, rhs[k]); err != nil {
			return milp.StatusLimit, t, err
		}
	}
	mp := milp.NewProblem(p)
	for j := 0; j < m; j++ {
		mp.SetInteger(j)
	}
	share := 4
	if root {
		share = 2
	}
	sol := milp.Solve(mp, milp.Options{MaxNodes: subMILPNodes, Deadline: timeShare(s.opts.Deadline, share), Ctx: s.opts.Ctx})
	t.merge(tally{int64(sol.Nodes), sol.LPIters})
	if solved(sol.Status) {
		for j, id := range members {
			sub.out[id] = int(math.Round(sol.X[j]))
		}
	}
	return sol.Status, t, nil
}

// solveWave runs the refine wave: one sub-MILP per partition in order,
// concurrently, every residual taken against the same cur/grpSum
// snapshot (each partition's own contribution subtracted back out).
// Partitions own disjoint entries of sub.out, so the solves are
// independent and their results are deterministic regardless of
// scheduling; per-solve node/iteration counts are merged into the
// record in partition order. Returns one success flag per partition;
// refine applies the repair fallback and contribution updates in its
// own deterministic merge loop.
func (s *solver) solveWave(sub *residual, leaves []Node, order []int, cur []float64, grpSum [][]float64) []bool {
	oks := make([]bool, len(order))
	work := make([]tally, len(order))
	rhs := make([][]float64, len(order))
	for ai, g := range order {
		rhs[ai] = residualRHS(sub.atoms, cur, grpSum[g])
	}
	parallelFor(s.opts.workers(), len(order), func(ai int) {
		st, t, err := s.subMILP(sub, leaves[order[ai]].Tuples, rhs[ai], false)
		oks[ai], work[ai] = err == nil && solved(st), t
	})
	for _, t := range work {
		s.res.tally.merge(t)
	}
	return oks
}

// activeGroups lists the partitions with a positive sketch multiplicity
// in the order the refine wave merges them and the repair sweep walks
// them: largest multiplicity first, partition id on ties.
func activeGroups(mult []int) []int {
	var active []int
	for g, m := range mult {
		if m > 0 {
			active = append(active, g)
		}
	}
	sort.SliceStable(active, func(i, j int) bool {
		if mult[active[i]] != mult[active[j]] {
			return mult[active[i]] > mult[active[j]]
		}
		return active[i] < active[j]
	})
	return active
}

// contributions is the shared snapshot the refine wave's residuals are
// taken against: grpSum[g][k] is what partition g, at its representative
// and its multiplicity, adds to atom k, and cur[k] the sum over every
// partition.
func contributions(atoms []*translate.LinearAtom, mult []int) (cur []float64, grpSum [][]float64) {
	cur = make([]float64, len(atoms))
	grpSum = make([][]float64, len(mult))
	for g, m := range mult {
		grpSum[g] = make([]float64, len(atoms))
		if m == 0 {
			continue
		}
		for k := range atoms {
			grpSum[g][k] = atoms[k].W[g] * float64(m)
			cur[k] += grpSum[g][k]
		}
	}
	return cur, grpSum
}

// tupleBound is the refine step's bound function: pinned tuples floored
// at 1, capped at the query's REPEAT bound.
func (s *solver) tupleBound(i int) (lo, up float64) {
	if s.pins[i] {
		lo = 1
	}
	if s.inst.MaxMult > 0 {
		return lo, float64(s.inst.MaxMult)
	}
	return lo, lp.Inf
}

// greedyFill stands in for a residual sub-MILP that failed: every member
// first takes its lower bound (a pinned tuple its unit, a node its pinned
// count), then the remaining units the level above owes go round-robin
// to the members nearest by dist, each up to its upper bound (to the
// units themselves under an unbounded REPEAT).
func (sub *residual) greedyFill(members []int, units int, dist func(id int) float64) {
	floor := func(id int) int { lo, _ := sub.bound(id); return int(lo) }
	capacity := func(id int) int {
		if _, up := sub.bound(id); up < lp.Inf {
			return int(up)
		}
		return max(units, 1)
	}
	allocate(members, units, floor, capacity, dist, sub.out)
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

// checkAtoms verifies every atom against the tracked sums.
func checkAtoms(atoms []*translate.LinearAtom, sums []float64) bool {
	for k, at := range atoms {
		if !at.CheckSum(sums[k]) {
			return false
		}
	}
	return true
}
