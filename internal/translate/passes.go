package translate

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/lifecycle"
	"repro/internal/paql"
	"repro/internal/schema"
)

// PollRows is the most rows a loop over candidates handles between two
// looks at its cancellation signal (search.PollRows is this constant; the
// pass fold below is the loop of this package).
const PollRows = 8192

// pass is one selection folded over one candidate set: per tuple, the
// number its argument contributes (0 when absent or not a number) and
// whether it is in the selection; over the set, the first non-numeric
// present value — reported to whoever needs numbers — and the minimum,
// maximum (±Inf over nothing) and size of the selection, which is what
// §4.1 pruning asks about a SUM.
type pass struct {
	num     []float64
	present []bool
	nonNum  error
	lo, hi  float64
	n       int
}

// foldTerms folds the aggregate's Term over the rows, the one loop that
// evaluates an aggregate's filter and argument per tuple. It looks at ctx
// every PollRows rows and ends with its error; nothing of a canceled fold
// is returned.
func foldTerms(ctx context.Context, agg *paql.Agg, rows []schema.Row) (*pass, error) {
	p := &pass{num: make([]float64, len(rows)), present: make([]bool, len(rows)), lo: math.Inf(1), hi: math.Inf(-1)}
	for i, row := range rows {
		if i%PollRows == 0 {
			if err := lifecycle.ContextErr(ctx); err != nil {
				return nil, err
			}
		}
		v, ok, err := agg.Term(row)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		p.present[i] = true
		p.n++
		if f, isNum := v.AsFloat(); isNum {
			p.num[i] = f
			p.lo, p.hi = min(p.lo, f), max(p.hi, f)
		} else if p.nonNum == nil {
			p.nonNum = fmt.Errorf("translate: non-numeric value %s under %s", v, agg)
		}
	}
	return p, nil
}

// Passes is the pass store of one candidate set: per distinct (argument,
// filter) selection, the fold of paql.Agg.Term over the set, made the
// first time any compilation against the store asks and kept for all of
// them; and per distinct compiled form — an affine comparison's or an
// objective's Σ coef·agg, keyed by its rendered terms — the weight vector
// composed from those folds. A query compiled against it (its Translate,
// ConjunctiveAtoms and CompileSketch methods) and §4.1 pruning (AggStats)
// share one fold per selection and one vector per form; queries over the
// same candidates — the same table version and WHERE — share the store
// itself, so the second query of a shape folds and weighs nothing: a
// query's constants land in its rows' right-hand sides, not in the
// vectors. What a constant does reach — an AVG rewrite's −c·COUNT, a
// selector row's threshold — is weighed per query. Safe for concurrent
// use; the rows and every slice handed out are read-only.
type Passes struct {
	rows []schema.Row

	mu     sync.Mutex
	slots  map[string]*lifecycle.Once[pass]
	forms  map[string]*lifecycle.Once[[]float64]
	folds  atomic.Int64
	weighs atomic.Int64
}

// NewPasses returns an empty pass store over the candidate rows.
func NewPasses(rows []schema.Row) *Passes {
	return &Passes{rows: rows, slots: map[string]*lifecycle.Once[pass]{}, forms: map[string]*lifecycle.Once[[]float64]{}}
}

// Rows returns the candidate set the store's passes range over.
func (ps *Passes) Rows() []schema.Row { return ps.rows }

// Folds reports how many folds over the candidates the store has made:
// one per distinct selection asked about, however many queries asked.
func (ps *Passes) Folds() int { return int(ps.folds.Load()) }

// Weighed reports how many weight vectors over the candidates the store
// has composed: one per distinct form asked about, however many queries
// asked.
func (ps *Passes) Weighed() int { return int(ps.weighs.Load()) }

// over reports whether rows is the store's own candidate set; a nil store
// is over nothing.
func (ps *Passes) over(rows []schema.Row) bool {
	return ps != nil && sameRows(rows, ps.rows)
}

// sameRows tells candidate sets apart by identity. Nothing is kept about
// an empty set: its fold is free.
func sameRows(a, b []schema.Row) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// pass returns the selection's pass over the store's candidates, folding
// on first use. A fold that fails — in practice a canceled one — is not
// kept, and a caller waiting on another query's fold stops waiting when
// its own ctx ends.
func (ps *Passes) pass(ctx context.Context, key string, agg *paql.Agg) (*pass, error) {
	return slotOf(&ps.mu, ps.slots, key).Get(ctx, func() (*pass, error) {
		ps.folds.Add(1)
		return foldTerms(ctx, agg, ps.rows)
	})
}

// weights returns the form's weight vector over the store's candidates,
// composing it on first use; like a fold, a failed composition is not
// kept.
func (ps *Passes) weights(ctx context.Context, l *linear) ([]float64, error) {
	w, err := slotOf(&ps.mu, ps.forms, l.key).Get(ctx, func() (*[]float64, error) {
		ps.weighs.Add(1)
		w, err := l.compose(ctx, ps.rows)
		return &w, err
	})
	if err != nil {
		return nil, err
	}
	return *w, nil
}

// slotOf returns key's slot in a store map guarded by mu, adding an empty
// one.
func slotOf[T any](mu *sync.Mutex, slots map[string]*lifecycle.Once[T], key string) *lifecycle.Once[T] {
	mu.Lock()
	defer mu.Unlock()
	slot := slots[key]
	if slot == nil {
		slot = new(lifecycle.Once[T])
		slots[key] = slot
	}
	return slot
}

// AggStats answers §4.1 pruning's question about an aggregate from its
// selection's pass: the MIN and MAX of the argument over the candidates
// (±Inf over nothing) and the size n of the selection. ok is false when
// the argument cannot be read as a number, or the fold was canceled.
func (ps *Passes) AggStats(ctx context.Context, a *paql.Agg) (lo, hi float64, n int, ok bool) {
	p, err := ps.pass(ctx, selectionKey(a), a)
	if err != nil || p.nonNum != nil {
		return 0, 0, 0, false
	}
	return p.lo, p.hi, p.n, true
}
