// Package lifecycle is the query-lifecycle layer: the typed error
// taxonomy every surface reports through, the one cancellation poll the
// solver layers share, and the admission controller that bounds
// concurrent solves on a serving front end.
//
// The package sits below internal/core and above nothing — it imports
// only the standard library, so the solver layers (milp, sketch,
// search) and the public API can all share one error vocabulary
// without cycles. Callers classify outcomes with errors.Is:
//
//	res, err := sys.QueryContext(ctx, q)
//	switch {
//	case errors.Is(err, lifecycle.ErrAdmission):      // shed: retry later
//	case errors.Is(err, lifecycle.ErrCanceled):       // caller gave up
//	case errors.Is(err, lifecycle.ErrBudgetExceeded): // too big to admit
//	case errors.Is(err, lifecycle.ErrInfeasible):     // proven: no package
//	}
//
// Wrapped causes stay visible: a canceled query satisfies both
// errors.Is(err, lifecycle.ErrCanceled) and errors.Is(err,
// context.Canceled).
package lifecycle

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel errors for the query-lifecycle outcomes. They are
// package-level variables so errors.Is works across process layers;
// every helper below wraps them, never replaces them.
var (
	// ErrInfeasible reports a *proven* empty answer: the exact solver
	// closed the search space (or the cardinality bounds are
	// contradictory) and no package satisfies the query. A heuristic
	// strategy merely failing to find a package does not qualify.
	ErrInfeasible = errors.New("infeasible: no package satisfies the query")

	// ErrCanceled reports that the query stopped before completing
	// because its context was canceled or its deadline passed. Partial
	// work has been discarded; shared caches are left consistent.
	ErrCanceled = errors.New("query canceled")

	// ErrBudgetExceeded reports that the planner's memory estimate for
	// the chosen strategy exceeds the per-query budget, so the solve was
	// rejected at admission rather than risking the process.
	ErrBudgetExceeded = errors.New("memory budget exceeded")

	// ErrAdmission reports that the admission controller shed the query:
	// the server is at capacity (or draining) and the wait queue is
	// full. The client should retry after the hinted delay.
	ErrAdmission = errors.New("admission: server at capacity")

	// ErrInternal reports an unexpected engine failure — typically a
	// recovered panic in a solve path. The query produced no answer,
	// but the process and its shared state (caches, admission slots)
	// remain consistent; the client may retry.
	ErrInternal = errors.New("internal: query failed unexpectedly")
)

// Canceled wraps a context error (or any cause) so the result matches
// both ErrCanceled and the original cause under errors.Is. A nil cause
// returns ErrCanceled itself.
func Canceled(cause error) error {
	if cause == nil {
		return ErrCanceled
	}
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// Infeasible wraps ErrInfeasible with a human-readable detail string,
// e.g. the contradiction the bounds derivation found.
func Infeasible(detail string) error {
	if detail == "" {
		return ErrInfeasible
	}
	return fmt.Errorf("%w (%s)", ErrInfeasible, detail)
}

// BudgetExceeded wraps ErrBudgetExceeded with the estimate and budget
// that collided, both in bytes.
func BudgetExceeded(estimate, budget int64) error {
	return fmt.Errorf("%w: estimated %s exceeds budget %s",
		ErrBudgetExceeded, FormatBytes(estimate), FormatBytes(budget))
}

// Shed wraps ErrAdmission with the reason a query was turned away
// ("queue full", "draining").
func Shed(reason string) error {
	if reason == "" {
		return ErrAdmission
	}
	return fmt.Errorf("%w (%s)", ErrAdmission, reason)
}

// Internal wraps a cause (usually a recovered panic rendered as an
// error) so the result matches ErrInternal under errors.Is. A nil
// cause returns ErrInternal itself.
func Internal(cause error) error {
	if cause == nil {
		return ErrInternal
	}
	return fmt.Errorf("%w: %w", ErrInternal, cause)
}

// ContextErr classifies a context's error into the lifecycle taxonomy:
// nil stays nil, everything else becomes an ErrCanceled wrap (deadline
// expiry included — the caller distinguishes via errors.Is(err,
// context.DeadlineExceeded) when it matters).
func ContextErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return Canceled(err)
	}
	return nil
}

// Poll is the one non-blocking cancellation poll: the function it returns
// reports whether ctx is done, reading ctx.Done() once per call. A nil
// context gives a nil poll, so a hot loop can skip polling altogether.
// Every cooperative checkpoint in the solver layers polls through it —
// the simplex's per-iteration hook, branch-and-bound's node loop, the
// tree build, the bound pass's rounds and the search strategies.
func Poll(ctx context.Context) func() bool {
	if ctx == nil {
		return nil
	}
	return func() bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
}

// FormatBytes renders a byte count with a binary-ish human unit, for
// error messages and EXPLAIN trails (1.5 MB, 12 KB, 180 B).
func FormatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}
