// Package prune implements the paper's §4.1 cardinality-based pruning:
// from each global constraint it derives lower and upper bounds [l, u]
// on the size of any satisfying package, using only column statistics
// (MIN/MAX of each aggregate argument over the candidate tuples). With
// n candidate tuples and no repetition, pruning shrinks the search
// space from 2^n to Σ_{k=l..u} C(n,k) without losing any valid package.
//
// Bound soundness is the invariant everything rests on: the derived
// interval must CONTAIN the cardinality of every satisfying package
// (over-approximation is fine, under-approximation would lose
// solutions). The rules, for candidate statistics maxX = MAX(x),
// minX = MIN(x):
//
//	COUNT(*) = c            ->  [c, c]
//	COUNT(*) ≤ c            ->  [0, c]
//	COUNT(*) ≥ c            ->  [c, ∞)
//	SUM(x) ≥ a, a>0, maxX>0 ->  [⌈a/maxX⌉, ∞)   (k·maxX ≥ sum ≥ a)
//	SUM(x) ≥ a, a>0, maxX≤0 ->  infeasible
//	SUM(x) ≤ b, minX>0      ->  [0, ⌊b/minX⌋]   (sum ≥ k·minX)
//	SUM(x) ≤ b<0, minX≥0    ->  infeasible
//	SUM/AVG/MIN/MAX ⋚ c     ->  [1, ∞)          (NULL over nothing fails the atom)
//
// Filtered aggregates (COUNT(* WHERE p), SUM(x WHERE p)) bound only the
// filtered sub-multiset, which still lower-bounds the package size but
// never upper-bounds it. Conjunctions intersect intervals, disjunctions
// take the union, and negation pushes through comparisons by flipping
// the operator. Anything else contributes the trivial interval.
package prune

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/expr"
	"repro/internal/paql"
)

// Unbounded marks an upper bound of "no limit".
const Unbounded = math.MaxInt

// Bounds is a cardinality interval. Lo > Hi encodes "provably
// infeasible" (no package of any size satisfies the formula).
type Bounds struct {
	Lo int
	Hi int
}

// Trivial is the no-information interval [0, ∞).
func Trivial() Bounds { return Bounds{Lo: 0, Hi: Unbounded} }

// Infeasible returns a provably-empty interval.
func Infeasible() Bounds { return Bounds{Lo: 1, Hi: 0} }

// IsInfeasible reports whether the interval is empty.
func (b Bounds) IsInfeasible() bool { return b.Lo > b.Hi }

// Intersect combines bounds from conjoined constraints.
func (b Bounds) Intersect(o Bounds) Bounds {
	return Bounds{Lo: max(b.Lo, o.Lo), Hi: min(b.Hi, o.Hi)}
}

// Union combines bounds from disjoined constraints.
func (b Bounds) Union(o Bounds) Bounds {
	if b.IsInfeasible() {
		return o
	}
	if o.IsInfeasible() {
		return b
	}
	return Bounds{Lo: min(b.Lo, o.Lo), Hi: max(b.Hi, o.Hi)}
}

// String renders "[l, u]" with ∞ for unbounded.
func (b Bounds) String() string {
	if b.IsInfeasible() {
		return "[infeasible]"
	}
	if b.Hi == Unbounded {
		return fmt.Sprintf("[%d, inf)", b.Lo)
	}
	return fmt.Sprintf("[%d, %d]", b.Lo, b.Hi)
}

// StatsProvider supplies candidate-tuple statistics for an aggregate:
// MIN and MAX of the aggregate's argument over the candidate relation
// (restricted to the aggregate's filter, when present) and the number n
// of candidates in its selection (filter passes, argument not NULL).
// ok=false means statistics are unavailable (non-numeric argument),
// which yields trivial bounds.
type StatsProvider interface {
	AggStats(a *paql.Agg) (minVal, maxVal float64, n int, ok bool)
}

// Derive computes cardinality bounds for a SUCH THAT formula. n is the
// number of candidate tuples (post-WHERE) and maxMult the maximum tuple
// multiplicity (0 = unlimited). The result is clamped to [0, n·maxMult].
func Derive(f expr.Expr, sp StatsProvider, n, maxMult int) Bounds {
	b := Trivial()
	if f != nil {
		b = derive(f, false, sp)
	}
	if b.Lo < 0 {
		b.Lo = 0
	}
	if maxMult > 0 {
		capHi := n * maxMult
		if b.Hi > capHi {
			b.Hi = capHi
		}
		if b.Lo > capHi {
			return Infeasible()
		}
	}
	return b
}

func derive(f expr.Expr, neg bool, sp StatsProvider) Bounds {
	switch node := f.(type) {
	case *expr.Binary:
		switch node.Op {
		case expr.OpAnd:
			l := derive(node.L, neg, sp)
			r := derive(node.R, neg, sp)
			if neg { // NOT(a AND b) = NOT a OR NOT b
				return l.Union(r)
			}
			return l.Intersect(r)
		case expr.OpOr:
			l := derive(node.L, neg, sp)
			r := derive(node.R, neg, sp)
			if neg {
				return l.Intersect(r)
			}
			return l.Union(r)
		}
		if node.Op.Comparison() {
			op := node.Op
			if neg {
				var ok bool
				op, ok = op.Negate()
				if !ok {
					return Trivial()
				}
			}
			return compareBounds(node.L, op, node.R, sp)
		}
		return Trivial()
	case *expr.Not:
		return derive(node.X, !neg, sp)
	case *expr.Between:
		if node.Invert != neg { // effective NOT BETWEEN: union of two strict sides
			lo := compareBounds(node.X, expr.OpLt, node.Lo, sp)
			hi := compareBounds(node.X, expr.OpGt, node.Hi, sp)
			return lo.Union(hi)
		}
		lo := compareBounds(node.X, expr.OpGe, node.Lo, sp)
		hi := compareBounds(node.X, expr.OpLe, node.Hi, sp)
		return lo.Intersect(hi)
	case *expr.Const:
		// A constant FALSE formula admits no package at all.
		b, null := node.Val.Truthy()
		effective := b != neg
		if !null && !effective {
			return Infeasible()
		}
		return Trivial()
	}
	return Trivial()
}

// compareBounds handles one comparison atom. Only `Agg cmp const` and
// `const cmp Agg` shapes carry information; everything else is trivial.
func compareBounds(l expr.Expr, op expr.BinOp, r expr.Expr, sp StatsProvider) Bounds {
	agg, okL := l.(*paql.Agg)
	c, okR := constValue(r)
	if !okL || !okR { // try the flipped orientation
		if agg, okL = r.(*paql.Agg); okL {
			c, okR = constValue(l)
		}
		if !okL || !okR {
			return Trivial()
		}
		op = op.Flip()
	}
	// Every aggregate but COUNT is NULL over an empty selection and NULL
	// fails a comparison (the table in internal/paql/semantics_test.go).
	nonEmpty := Bounds{Lo: 1, Hi: Unbounded}
	switch agg.Fn {
	case "COUNT":
		return countBounds(agg, op, c)
	case "SUM":
		return sumBounds(agg, op, c, sp).Intersect(nonEmpty)
	}
	return nonEmpty
}

func constValue(e expr.Expr) (float64, bool) {
	cst, ok := e.(*expr.Const)
	if !ok {
		return 0, false
	}
	f, ok := cst.Val.AsFloat()
	return f, ok
}

func countBounds(agg *paql.Agg, op expr.BinOp, c float64) Bounds {
	filtered := agg.Filter != nil
	switch op {
	case expr.OpEq:
		k := int(math.Round(c))
		if float64(k) != c {
			return Infeasible() // COUNT = 2.5 is unsatisfiable
		}
		if filtered {
			// k filtered tuples must exist in the package.
			return Bounds{Lo: k, Hi: Unbounded}
		}
		return Bounds{Lo: k, Hi: k}
	case expr.OpLe, expr.OpLt:
		hi := int(math.Floor(c))
		if op == expr.OpLt && float64(hi) == c {
			hi--
		}
		if hi < 0 {
			return Infeasible() // count is never negative
		}
		if filtered {
			return Trivial()
		}
		return Bounds{Lo: 0, Hi: hi}
	case expr.OpGe, expr.OpGt:
		lo := int(math.Ceil(c))
		if op == expr.OpGt && float64(lo) == c {
			lo++
		}
		if lo < 0 {
			lo = 0
		}
		return Bounds{Lo: lo, Hi: Unbounded}
	}
	return Trivial()
}

// sumBounds bounds the package size from SUM(x) op c by the extremes of x
// over the candidates; an empty selection leaves the SUM NULL whatever
// the package (same table), so the atom cannot hold.
func sumBounds(agg *paql.Agg, op expr.BinOp, c float64, sp StatsProvider) Bounds {
	if sp == nil {
		return Trivial()
	}
	minX, maxX, n, ok := sp.AggStats(agg)
	if !ok {
		return Trivial()
	}
	if n == 0 {
		return Infeasible()
	}
	filtered := agg.Filter != nil
	switch op {
	case expr.OpGe, expr.OpGt:
		if c <= 0 {
			return Trivial()
		}
		if maxX <= 0 {
			return Infeasible() // positive sum unreachable
		}
		lo := int(math.Ceil(c / maxX))
		return Bounds{Lo: lo, Hi: Unbounded}
	case expr.OpLe, expr.OpLt:
		if c < 0 && minX >= 0 {
			return Infeasible() // non-negative contributions cannot go below 0
		}
		if minX <= 0 || filtered {
			// Negative or zero contributions allow arbitrarily large
			// packages; a filter bounds only the filtered subset.
			return Trivial()
		}
		hi := int(math.Floor(c / minX))
		if hi < 0 {
			return Infeasible()
		}
		return Bounds{Lo: 0, Hi: hi}
	case expr.OpEq:
		ge := sumBounds(agg, expr.OpGe, c, sp)
		le := sumBounds(agg, expr.OpLe, c, sp)
		return ge.Intersect(le)
	}
	return Trivial()
}

// SpaceSize returns the pruned search-space size Σ_{k=l..min(u,n)}
// C(n, k) and the unpruned size 2^n, for packages without repetition.
// This is the quantity the paper reports for §4.1.
func SpaceSize(n int, b Bounds) (pruned, full *big.Int) {
	full = new(big.Int).Lsh(big.NewInt(1), uint(n))
	pruned = new(big.Int)
	if b.IsInfeasible() {
		return pruned, full
	}
	hi := b.Hi
	if hi > n {
		hi = n
	}
	for k := b.Lo; k <= hi; k++ {
		pruned.Add(pruned, new(big.Int).Binomial(int64(n), int64(k)))
	}
	return pruned, full
}

// ReductionFactor returns full/pruned as a float (∞ when pruned is 0).
func ReductionFactor(n int, b Bounds) float64 {
	pruned, full := SpaceSize(n, b)
	if pruned.Sign() == 0 {
		return math.Inf(1)
	}
	pf, _ := new(big.Float).SetInt(pruned).Float64()
	ff, _ := new(big.Float).SetInt(full).Float64()
	return ff / pf
}
