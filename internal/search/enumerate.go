package search

import (
	"fmt"
	"time"

	"repro/internal/lp"
	"repro/internal/paql"
)

// BruteForce enumerates every multiplicity vector and checks the full
// formula — the paper's impractical 2^n baseline (§4: "a brute-force
// approach that generates and evaluates all candidate packages is thus
// impractical"). It exists as the ground-truth oracle and as the E1/E2
// comparison baseline.
func BruteForce(inst *Instance, opt Options) (*Result, error) {
	if inst.MaxMult <= 0 {
		return nil, fmt.Errorf("search: brute force requires bounded multiplicity (REPEAT)")
	}
	start := time.Now()
	res := &Result{Complete: true}
	deadline := opt.deadline()
	limit := opt.limit()
	n := len(inst.Rows)
	required, err := opt.requireSet(n)
	if err != nil {
		return nil, err
	}
	mult := make([]int, n)
	sums := make([]float64, len(inst.Atoms))

	var best float64
	haveBest := false
	hasObj := inst.Analysis.Query.Objective != nil

	var rec func(i int) error
	rec = func(i int) error {
		if res.Examined%4096 == 0 && opt.stop(deadline) {
			res.Complete = false
			return nil
		}
		if i == n {
			res.Examined++
			ok := true
			for k, at := range inst.Atoms {
				if !at.CheckSum(sums[k]) {
					ok = false
					break
				}
			}
			if ok && !inst.Pure {
				valid, err := inst.Validate(mult)
				if err != nil {
					return err
				}
				ok = valid
			}
			if !ok {
				return nil
			}
			obj := 0.0
			if hasObj {
				var err error
				obj, err = inst.Objective(mult)
				if err != nil {
					return err
				}
			}
			p := Pkg{Mult: append([]int(nil), mult...), Obj: obj}
			if hasObj && (!haveBest || inst.Better(obj, best)) {
				best = obj
				haveBest = true
			}
			res.add(inst, p, limit)
			return nil
		}
		lowM := 0
		if required[i] {
			lowM = 1
		}
		for m := 0; m <= inst.MaxMult; m++ {
			if m > 0 {
				for k, at := range inst.Atoms {
					sums[k] += at.W[i]
				}
			}
			mult[i] = m
			if m >= lowM {
				if err := rec(i + 1); err != nil {
					return err
				}
			}
			if !res.Complete {
				break
			}
		}
		for m := mult[i]; m > 0; m-- {
			for k, at := range inst.Atoms {
				sums[k] -= at.W[i]
			}
		}
		mult[i] = 0
		return nil
	}
	err = rec(0)
	res.Elapsed = time.Since(start)
	return res, err
}

func objWeight(inst *Instance, i int) float64 {
	if inst.ObjW == nil {
		return 0
	}
	return inst.ObjW[i]
}

// PrunedEnumerate is the §4.1 strategy: depth-first enumeration
// restricted to the derived cardinality bounds [l, u], with sound
// branch-and-bound pruning on every conjunctive linear atom (optimistic
// suffix completions) and, when searching for a single optimal package,
// on the objective. Completeness is preserved: no valid package is
// skipped.
func PrunedEnumerate(inst *Instance, opt Options) (*Result, error) {
	if inst.MaxMult <= 0 {
		return nil, fmt.Errorf("search: enumeration requires bounded multiplicity (REPEAT)")
	}
	start := time.Now()
	res := &Result{Complete: true}
	deadline := opt.deadline()
	limit := opt.limit()
	n := len(inst.Rows)
	required, err := opt.requireSet(n)
	if err != nil {
		return nil, err
	}

	bounds := inst.Bounds
	if bounds.IsInfeasible() {
		res.Elapsed = time.Since(start)
		return res, nil // provably empty: zero packages, complete
	}

	// Suffix completion bounds per atom: the most the remaining tuples
	// can add (positive weights) or subtract (negative weights).
	nAtoms := len(inst.Atoms)
	sufMax := make([][]float64, nAtoms)
	sufMin := make([][]float64, nAtoms)
	for k, at := range inst.Atoms {
		sufMax[k] = make([]float64, n+1)
		sufMin[k] = make([]float64, n+1)
		for i := n - 1; i >= 0; i-- {
			w := at.W[i] * float64(inst.MaxMult)
			sufMax[k][i] = sufMax[k][i+1]
			sufMin[k][i] = sufMin[k][i+1]
			if w > 0 {
				sufMax[k][i] += w
			} else {
				sufMin[k][i] += w
			}
		}
	}
	// Objective optimistic suffix (for maximize: positive weights).
	hasObj := inst.Analysis.Query.Objective != nil
	useObjBound := hasObj && inst.ObjW != nil && limit == 1 && !opt.NoObjBound
	maximize := hasObj && inst.Analysis.Query.Objective.Sense == paql.Maximize
	var objSuf []float64
	if useObjBound {
		objSuf = make([]float64, n+1)
		for i := n - 1; i >= 0; i-- {
			w := inst.ObjW[i] * float64(inst.MaxMult)
			objSuf[i] = objSuf[i+1]
			if (maximize && w > 0) || (!maximize && w < 0) {
				objSuf[i] += w
			}
		}
	}

	mult := make([]int, n)
	sums := make([]float64, nAtoms)
	objSum := inst.ObjK
	count := 0
	var best float64
	haveBest := false
	const tol = 1e-9

	var rec func(i int) error
	rec = func(i int) error {
		if res.Examined%4096 == 0 && opt.stop(deadline) {
			res.Complete = false
			return nil
		}
		res.Examined++
		// Cardinality pruning (§4.1).
		if count > bounds.Hi {
			return nil
		}
		if count+(n-i)*inst.MaxMult < bounds.Lo {
			return nil
		}
		// Atom suffix pruning.
		for k, at := range inst.Atoms {
			switch at.Op {
			case lp.LE:
				if sums[k]+sufMin[k][i] > at.RHS+tol {
					return nil
				}
			case lp.GE:
				if sums[k]+sufMax[k][i] < at.RHS-tol {
					return nil
				}
			}
		}
		// Objective bound.
		if useObjBound && haveBest {
			optimistic := objSum + objSuf[i]
			if !inst.Better(optimistic, best) {
				return nil
			}
		}
		if i == n {
			if count < bounds.Lo || count > bounds.Hi {
				return nil
			}
			ok := true
			for k, at := range inst.Atoms {
				if !at.CheckSum(sums[k]) {
					ok = false
					break
				}
			}
			if ok && !inst.Pure {
				valid, err := inst.Validate(mult)
				if err != nil {
					return err
				}
				ok = valid
			}
			if !ok {
				return nil
			}
			obj := 0.0
			if hasObj {
				var err error
				obj, err = inst.Objective(mult)
				if err != nil {
					return err
				}
			}
			if hasObj && (!haveBest || inst.Better(obj, best)) {
				best = obj
				haveBest = true
			}
			res.add(inst, Pkg{Mult: append([]int(nil), mult...), Obj: obj}, limit)
			return nil
		}
		lowM := 0
		if required[i] {
			lowM = 1
		}
		for m := 0; m <= inst.MaxMult; m++ {
			if m > 0 {
				for k, at := range inst.Atoms {
					sums[k] += at.W[i]
				}
				objSum += objWeight(inst, i)
				count++
			}
			mult[i] = m
			if m >= lowM {
				if err := rec(i + 1); err != nil {
					return err
				}
			}
			if !res.Complete {
				break
			}
		}
		for m := mult[i]; m > 0; m-- {
			for k, at := range inst.Atoms {
				sums[k] -= at.W[i]
			}
			objSum -= objWeight(inst, i)
			count--
		}
		mult[i] = 0
		return nil
	}
	err = rec(0)
	res.Elapsed = time.Since(start)
	return res, err
}
