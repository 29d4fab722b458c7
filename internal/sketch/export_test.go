package sketch

import (
	"time"

	"repro/internal/bound"
	"repro/internal/search"
	"repro/internal/translate"
)

// ParallelForTest exposes the scheduling helper to the external test
// package.
var ParallelForTest = parallelFor

// RawLPBoundForTest computes the exact LP-relaxation bound over the raw
// candidates of the instance's first DNF branch, sidestepping
// plan.SketchThreshold — the tightness yardstick the bound tests compare the
// tree pipeline against.
func RawLPBoundForTest(inst *search.Instance) (bound.Outcome, error) {
	branches, _, err := translate.CompileSketch(inst.Analysis, MaxBranches)
	if err != nil {
		return bound.Outcome{}, err
	}
	ba, err := newBranchAtoms(nil, inst, branches[0])
	if err != nil {
		return bound.Outcome{}, err
	}
	groups := bound.Candidates(len(inst.Rows), inst.MaxMult, nil)
	p, err := bound.Relax(ba.tuple, inst.ObjW, objSense(inst), groups)
	if err != nil {
		return bound.Outcome{}, err
	}
	return bound.Solve(nil, p, inst.ObjK), nil
}

// SetRenameHook swaps the store's rename step for fault injection
// (crash-mid-resave tests); it returns a restore function.
func SetRenameHook(fn func(tmp, dst string) error) (restore func()) {
	old := renameFile
	renameFile = fn
	return func() { renameFile = old }
}

// ResetSweepForTest forgets that dir was already swept, so the next
// NewStore sweeps it again.
func ResetSweepForTest(dir string) { sweptDirs.Delete(dir) }

// SetStoreRetryForTest overrides the transient-I/O retry policy and
// returns a restore function (the chaos harness shrinks the backoff).
func SetStoreRetryForTest(attempts int, base, cap time.Duration) (restore func()) {
	oa, ob, oc := storeRetryAttempts, storeRetryBase, storeRetryCap
	storeRetryAttempts, storeRetryBase, storeRetryCap = attempts, base, cap
	return func() { storeRetryAttempts, storeRetryBase, storeRetryCap = oa, ob, oc }
}
