package search

import (
	"math/rand"
	"sort"

	"repro/internal/lp"
)

// Greedy constructs a starting package: candidates are ranked by
// objective contribution (best first for MAXIMIZE), added while no
// upper-bounding atom breaks, then lower-bounding atoms are repaired by
// targeted additions. The result is a heuristic start — it may be
// infeasible; local search repairs it. A non-nil rng shuffles ties so
// restarts diversify.
func Greedy(inst *Instance, rng *rand.Rand) Pkg {
	n := len(inst.Rows)
	mult := make([]int, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if rng != nil {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	if inst.ObjW != nil && inst.Analysis.Query.Objective != nil {
		maximize := inst.Better(1, 0)
		sort.SliceStable(order, func(a, b int) bool {
			if maximize {
				return inst.ObjW[order[a]] > inst.ObjW[order[b]]
			}
			return inst.ObjW[order[a]] < inst.ObjW[order[b]]
		})
	}
	sums := make([]float64, len(inst.Atoms))
	count := 0
	targetLo := inst.Bounds.Lo
	targetHi := inst.Bounds.Hi
	if targetHi > n*inst.MaxMult {
		targetHi = n * inst.MaxMult
	}

	fits := func(i int) bool {
		if count+1 > targetHi {
			return false
		}
		for k, at := range inst.Atoms {
			if at.Op == lp.LE && sums[k]+at.W[i] > at.RHS+1e-9 {
				return false
			}
		}
		return true
	}
	take := func(i int) {
		mult[i]++
		count++
		for k, at := range inst.Atoms {
			sums[k] += at.W[i]
		}
	}

	// Phase 1: fill toward the lower cardinality bound greedily.
	for _, i := range order {
		for mult[i] < inst.MaxMult && count < targetLo && fits(i) {
			take(i)
		}
	}
	// Phase 2: repair violated GE atoms by adding the tuple with the
	// largest positive contribution that still fits.
	for pass := 0; pass < n*inst.MaxMult; pass++ {
		worstK := -1
		worstGap := 1e-9
		for k, at := range inst.Atoms {
			if at.Op == lp.GE && at.RHS-sums[k] > worstGap {
				worstGap = at.RHS - sums[k]
				worstK = k
			}
		}
		if worstK == -1 {
			break
		}
		at := inst.Atoms[worstK]
		bestI := -1
		bestW := 0.0
		for _, i := range order {
			if mult[i] >= inst.MaxMult || !fits(i) {
				continue
			}
			if at.W[i] > bestW {
				bestW = at.W[i]
				bestI = i
			}
		}
		if bestI == -1 {
			break // stuck: no tuple helps
		}
		take(bestI)
	}
	obj, err := inst.Objective(mult)
	if err != nil {
		obj = 0
	}
	return Pkg{Mult: mult, Obj: obj}
}

// RandomStart draws a uniform package of a size within the cardinality
// bounds (used by local-search restarts).
func RandomStart(inst *Instance, rng *rand.Rand) Pkg {
	n := len(inst.Rows)
	mult := make([]int, n)
	lo := inst.Bounds.Lo
	hi := inst.Bounds.Hi
	maxTotal := n * inst.MaxMult
	if hi > maxTotal {
		hi = maxTotal
	}
	if lo > hi {
		lo = hi
	}
	size := lo
	if hi > lo {
		size = lo + rng.Intn(hi-lo+1)
	}
	placed := 0
	for attempts := 0; placed < size && attempts < 50*size+100; attempts++ {
		i := rng.Intn(n)
		if mult[i] < inst.MaxMult {
			mult[i]++
			placed++
		}
	}
	obj, err := inst.Objective(mult)
	if err != nil {
		obj = 0
	}
	return Pkg{Mult: mult, Obj: obj}
}
