package translate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/lifecycle"
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
// §4.1 pruning asks about a SUM. agg is the aggregate that folded it, the
// one an advance folds the appended rows with.
type pass struct {
	agg     *expr.Agg
	num     []float64
	present []bool
	nonNum  error
	lo, hi  float64
	n       int
}

func newPass(agg *expr.Agg, n int) *pass {
	return &pass{agg: agg, num: make([]float64, n), present: make([]bool, n), lo: math.Inf(1), hi: math.Inf(-1)}
}

// foldTerms folds the aggregate's Term over the rows, the one loop that
// evaluates an aggregate's filter and argument per tuple. It looks at ctx
// every PollRows rows and ends with its error; nothing of a canceled fold
// is returned.
func foldTerms(ctx context.Context, agg *expr.Agg, rows []schema.Row) (*pass, error) {
	p := newPass(agg, len(rows))
	if err := p.fold(ctx, rows, 0); err != nil {
		return nil, err
	}
	return p, nil
}

// fold folds Term over rows[from:] into p's slots from on, compiling it
// once for the rows.
func (p *pass) fold(ctx context.Context, rows []schema.Row, from int) error {
	term := p.agg.Term()
	for i := from; i < len(rows); i++ {
		if (i-from)%PollRows == 0 {
			if err := lifecycle.ContextErr(ctx); err != nil {
				return err
			}
		}
		v, ok, err := term(rows[i])
		if err != nil {
			return err
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
			p.nonNum = fmt.Errorf("translate: non-numeric value %s", v)
		}
	}
	return nil
}

// survivorRuns is an advance's remap as block moves: runs of survivors
// that stay adjacent — source index, destination index, length — and the
// tuples that are gone. A write deletes a few tuples, so a vector is carried
// by a few copies.
type survivorRuns struct {
	runs [][3]int
	gone []int
	kept int
}

func runsOf(remap []int) survivorRuns {
	var s survivorRuns
	for i := 0; i < len(remap); {
		if remap[i] < 0 {
			s.gone = append(s.gone, i)
			i++
			continue
		}
		start := i
		for i++; i < len(remap) && remap[i] == remap[i-1]+1; i++ {
		}
		s.runs = append(s.runs, [3]int{start, remap[start], i - start})
		s.kept += i - start
	}
	return s
}

// carry is the pass over rows, the candidates an advance leaves, made from
// p without folding a survivor again: the survivors' numbers and flags are
// copied in their order, n drops by the present tuples gone, and the rows
// past the survivors are folded by Term — so the pass is the one a fold
// over rows makes, bit for bit. Every present number of a carried pass is
// one (a pass holding a non-numeric value is not carried), and without a
// NaN min and max order them all, −0 before +0: an extreme a gone tuple
// held stands while a survivor holds its bits, which one near the front
// usually does. With a NaN among them, or no survivor holding it, lo and
// hi are taken over the survivors in their order, as a fold takes them.
func (p *pass) carry(ctx context.Context, rows []schema.Row, s survivorRuns) (*pass, error) {
	if err := lifecycle.ContextErr(ctx); err != nil {
		return nil, err
	}
	q := newPass(p.agg, len(rows))
	for _, r := range s.runs {
		copy(q.num[r[1]:r[1]+r[2]], p.num[r[0]:])
		copy(q.present[r[1]:r[1]+r[2]], p.present[r[0]:])
	}
	q.n, q.lo, q.hi = p.n, p.lo, p.hi
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	loGone, hiGone := false, false
	for _, i := range s.gone {
		if p.present[i] {
			q.n--
			loGone = loGone || sameBits(p.num[i], p.lo)
			hiGone = hiGone || sameBits(p.num[i], p.hi)
		}
	}
	nan := math.IsNaN(p.lo) && q.n < p.n
	for j := 0; j < s.kept && (loGone || hiGone) && !nan; j++ {
		if j%PollRows == 0 {
			if err := lifecycle.ContextErr(ctx); err != nil {
				return nil, err
			}
		}
		if q.present[j] {
			loGone = loGone && !sameBits(q.num[j], p.lo)
			hiGone = hiGone && !sameBits(q.num[j], p.hi)
		}
	}
	if loGone || hiGone || nan {
		q.lo, q.hi = math.Inf(1), math.Inf(-1)
		for j := range s.kept {
			if j%PollRows == 0 {
				if err := lifecycle.ContextErr(ctx); err != nil {
					return nil, err
				}
			}
			if q.present[j] {
				q.lo, q.hi = min(q.lo, q.num[j]), max(q.hi, q.num[j])
			}
		}
	}
	if err := q.fold(ctx, rows, s.kept); err != nil {
		return nil, err
	}
	return q, nil
}

// Passes is the pass store of one candidate set: per distinct (argument,
// filter) selection, the fold of expr.Agg.Term over the set, made the
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
// selector row's threshold — is weighed per query. A write does not throw
// the folds away: Advance makes the store of the next version's candidates
// from them, folding the appended rows only. Safe for concurrent use; the
// rows and every slice handed out are read-only.
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
// one per distinct selection asked about, however many queries asked, and
// none for a selection it carried from the store it advanced from.
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
func (ps *Passes) pass(ctx context.Context, key string, agg *expr.Agg) (*pass, error) {
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

// Kept reports how many candidate-length vectors the store holds: one per
// completed fold and one per weight vector.
func (ps *Passes) Kept() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := 0
	for _, slot := range ps.slots {
		if slot.Peek() != nil {
			n++
		}
	}
	for _, slot := range ps.forms {
		if slot.Peek() != nil {
			n++
		}
	}
	return n
}

// Advance returns the pass store of a newer version of the same
// candidates: rows, whose first tuples are the store's survivors in their
// order — remap[i] is the store's tuple i's index in rows, or −1 when a
// write deleted it — and whose rest were appended since. Every fold the
// store has completed is carried, folding the appended rows only (see
// pass.carry), except one holding a non-numeric value: the first such
// value may be the one deleted, so that selection folds again when asked.
// Weight vectors are composed from the carried folds when first asked.
// The store and every slice it handed out stay as they are — queries
// prepared at its version still read them. A canceled advance returns the
// context's error; a selection whose Term fails on an appended row is left
// to fail when asked, as a fold over rows would.
func (ps *Passes) Advance(ctx context.Context, rows []schema.Row, remap []int) (*Passes, error) {
	ps.mu.Lock()
	folded := make(map[string]*pass, len(ps.slots))
	for key, slot := range ps.slots {
		if p := slot.Peek(); p != nil && p.nonNum == nil {
			folded[key] = p
		}
	}
	ps.mu.Unlock()
	next, moves := NewPasses(rows), runsOf(remap)
	for key, p := range folded {
		q, err := p.carry(ctx, rows, moves)
		if errors.Is(err, lifecycle.ErrCanceled) {
			return nil, err
		}
		if err != nil {
			continue
		}
		slot := new(lifecycle.Once[pass])
		slot.Get(nil, func() (*pass, error) { return q, nil })
		next.slots[key] = slot
	}
	return next, nil
}

// AggStats answers §4.1 pruning's question about an aggregate from its
// selection's pass: the MIN and MAX of the argument over the candidates
// (±Inf over nothing) and the size n of the selection. ok is false when
// the argument cannot be read as a number, or the fold was canceled.
func (ps *Passes) AggStats(ctx context.Context, a *expr.Agg) (lo, hi float64, n int, ok bool) {
	p, err := ps.pass(ctx, selectionKey(a), a)
	if err != nil || p.nonNum != nil {
		return 0, 0, 0, false
	}
	return p.lo, p.hi, p.n, true
}

// Spread is a column's spread over the candidates as the partition tree
// reads a cell — a NULL or non-numeric one as 0 — max − min, or 1 when
// the column does not spread: the scale a distance between tuples divides
// that column's difference by. It reads the fold of the column's plain
// SUM selection, which SUM(col) in a query shares, folding it on first
// use; the 0 joins the fold's own minimum and maximum when some tuple is
// outside the selection (NULL) or inside it with a non-number. A NaN
// makes the fold's minimum NaN where math.Min lets an infinity win, so
// then the numbers — 0 where a cell is not one — are read again.
func (ps *Passes) Spread(ctx context.Context, col int) (float64, error) {
	p, err := ps.pass(ctx, columnKey(col), &expr.Agg{Fn: "SUM", Arg: &expr.Col{Name: columnKey(col), Idx: col}})
	if err != nil {
		return 0, err
	}
	lo, hi := p.lo, p.hi
	switch {
	case math.IsNaN(lo):
		lo, hi = math.Inf(1), math.Inf(-1)
		for i, v := range p.num {
			if i%PollRows == 0 {
				if err := lifecycle.ContextErr(ctx); err != nil {
					return 0, err
				}
			}
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	case p.n < len(ps.rows) || p.nonNum != nil:
		lo, hi = min(lo, 0), max(hi, 0)
	}
	if hi > lo {
		return hi - lo, nil
	}
	return 1, nil
}
