package sketch

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/lifecycle"
	"repro/internal/search"
	"repro/internal/translate"
)

// MaxBranches caps the disjunctive-normal-form expansion Compile
// accepts: each DNF branch of the SUCH THAT formula costs one sketch
// descent, so the cap bounds the total work. Formulas expanding past it
// are not sketch-applicable.
const MaxBranches = translate.DefaultMaxSketchBranches

// Compiled is the half of a SketchRefine evaluation that depends on the
// query and its candidates and on no Options value: the SUCH THAT
// formula lowered once into the DNF branches every solve descends (AVG
// atoms linearized as SUM − c·COUNT, MIN/MAX atoms lowered to
// prunable selector rows) — or the reason SketchRefine cannot
// run the query — and each branch's tuple-level rows, selectors and
// elimination mask, weighed over the candidates the first time a solve
// needs them and kept. The planner's applicability probe, the first
// solve, its parity pass and every exclusion-cut or perturbation
// re-solve read the same Compiled, so a query is lowered once and each
// of its branches weighed at most once however many solves it takes — and weighed against the instance's pass store, so what a
// weighing folds over the candidates is only what no earlier query over
// the same candidate snapshot has. Safe for concurrent Solve calls.
type Compiled struct {
	inst     *search.Instance
	branches []translate.SketchBranch
	rewrites int   // AVG/MIN/MAX source atoms rewritten into sketchable rows
	err      error // why SketchRefine cannot run the query; nil when it can

	weighed []lifecycle.Once[branchAtoms] // per branch
	weighs  atomic.Int64
}

// Compile lowers the instance's query for SketchRefine. It always
// returns a Compiled: one that cannot run reports why from Applicable
// and Solve. Nothing linear in the candidates happens here.
func Compile(inst *search.Instance) *Compiled {
	q := &Compiled{inst: inst}
	var err error
	if q.branches, q.rewrites, err = inst.Passes.CompileSketch(inst.Analysis, MaxBranches); err != nil {
		q.err = fmt.Errorf("sketch: %w", err)
	}
	q.weighed = make([]lifecycle.Once[branchAtoms], len(q.branches))
	return q
}

// Applicable reports whether the query can be evaluated with
// SketchRefine and, when it can, how many DNF branches Solve will
// descend; the error names the obstruction — for an atom the compiler
// cannot lower, the message names the offending aggregate.
func (q *Compiled) Applicable() (branches int, err error) {
	if q.err != nil {
		return 0, q.err
	}
	return len(q.branches), nil
}

// Weighed reports how many branch weighings the query has performed;
// never more than it has branches.
func (q *Compiled) Weighed() int { return int(q.weighs.Load()) }

// branch returns branch bi weighed over the candidates, weighing it on
// first use. Concurrent solves wait for one weighing rather than repeat
// it, each only as long as its own context lasts: no lock is held across
// the weighing. A failed weighing — in practice a canceled one — is not
// kept: the next solve starts it over.
func (q *Compiled) branch(ctx context.Context, bi int) (*branchAtoms, error) {
	return q.weighed[bi].Get(ctx, func() (*branchAtoms, error) {
		ba, err := newBranchAtoms(ctx, q.inst, q.branches[bi])
		if err == nil {
			q.weighs.Add(1)
		}
		return ba, err
	})
}

// Solve is Compile(inst).Solve(opts): one evaluation of a query nobody
// will evaluate again. core.Prepared compiles once and solves many
// times.
func Solve(inst *search.Instance, opts Options) (*Result, error) {
	return Compile(inst).Solve(opts)
}
