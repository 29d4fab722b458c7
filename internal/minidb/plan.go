package minidb

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/value"
)

// planSelect compiles a SELECT into an operator tree. The plan is a
// left-deep nested-loop join of heap scans in FROM order with:
//   - scalar sub-queries folded to constants,
//   - constant and single-source WHERE conjuncts pushed down to scans
//     (constant ones to the first),
//   - every other conjunct at the first join step where it binds, as
//     that step's nested-loop condition (equi-joins included),
//   - with aggregates, one global fold to a single row,
//   - projection and LIMIT.
func (db *DB) planSelect(st *SelectStmt) (operator, error) {
	st, err := db.foldSubqueries(st)
	if err != nil {
		return nil, err
	}

	// --- sources ---------------------------------------------------------
	if len(st.From) == 0 {
		return nil, fmt.Errorf("minidb: query has no FROM clause")
	}
	scans := make([]*scanOp, len(st.From))
	starts := make([]int, len(st.From)) // first ordinal in the joined schema
	joined := schema.Schema{}
	bindings := map[string]bool{}
	for i, ref := range st.From {
		b := strings.ToLower(ref.Binding())
		if bindings[b] {
			return nil, fmt.Errorf("minidb: duplicate table binding %q", ref.Binding())
		}
		bindings[b] = true
		t, ok := db.tables[strings.ToLower(ref.Name)]
		if !ok {
			return nil, fmt.Errorf("minidb: table %q does not exist", ref.Name)
		}
		scans[i] = newScanOp(t, ref.Binding())
		starts[i] = joined.Len()
		joined = joined.Concat(scans[i].schema())
	}

	// --- conjuncts -----------------------------------------------------------
	// Each conjunct is bound against the full joined schema to find the
	// sources it reads; the left-deep prefix property makes those
	// ordinals valid at the join step where its last source joins. A
	// conjunct reading at most one source filters that source's scan
	// (a constant one the first scan's) under its local ordinals.
	steps := make([][]expr.Expr, len(scans))
	for _, e := range splitAnd(st.Where) {
		if err := expr.Bind(e, joined); err != nil {
			return nil, err
		}
		mn, mx := len(scans), 0
		for _, c := range expr.Columns(e) {
			si := 0
			for i := range scans {
				if c.Idx >= starts[i] {
					si = i
				}
			}
			mn, mx = min(mn, si), max(mx, si)
		}
		if mn < mx {
			steps[mx] = append(steps[mx], e)
			continue
		}
		sc := scans[mx]
		local := expr.Clone(e)
		if err := expr.Bind(local, sc.schema()); err != nil {
			return nil, err
		}
		sc.filter = expr.AndAll(sc.filter, local)
	}
	var acc operator = scans[0]
	for i := 1; i < len(scans); i++ {
		acc = newNLJoin(acc, scans[i], expr.AndAll(steps[i]...))
	}

	// --- aggregation ---------------------------------------------------------
	items := st.Items // the folded copy's own slice
	aggs := collectAggs(items)
	aggregated := len(aggs) > 0
	if aggregated {
		for _, item := range items {
			if item.Star {
				return nil, fmt.Errorf("minidb: SELECT * cannot be combined with aggregation")
			}
		}
		for _, a := range aggs {
			if a.Filter != nil {
				return nil, fmt.Errorf("minidb: %s: an aggregate filter is PaQL's; SQL filters rows with WHERE", a)
			}
			if a.Star {
				continue
			}
			if err := expr.Bind(a.Arg, joined); err != nil {
				return nil, err
			}
		}
		acc = newAggOp(acc, aggs)
		for i := range items {
			e, err := rewriteAggExpr(items[i].Expr, aggs)
			if err != nil {
				return nil, err
			}
			items[i].Expr = e
		}
	}
	inputSchema := acc.schema() // post-join or post-agg

	// --- projection -----------------------------------------------------------
	var outExprs []expr.Expr
	var outCols []schema.Column
	for _, item := range items {
		if item.Star {
			for i, c := range inputSchema.Cols {
				if item.StarQual != "" && !strings.EqualFold(c.Table, item.StarQual) {
					continue
				}
				outExprs = append(outExprs, &expr.Col{Table: c.Table, Name: c.Name, Idx: i})
				outCols = append(outCols, schema.Column{Table: c.Table, Name: c.Name, Type: c.Type})
			}
			if item.StarQual != "" && len(outExprs) == 0 {
				return nil, fmt.Errorf("minidb: unknown table %q in %s.*", item.StarQual, item.StarQual)
			}
			continue
		}
		e := item.Expr
		if !aggregated {
			if err := expr.Bind(e, inputSchema); err != nil {
				return nil, err
			}
		}
		name := item.Alias
		if name == "" {
			if c, ok := e.(*expr.Col); ok {
				name = c.Name
			} else {
				name = e.String()
			}
		}
		outExprs = append(outExprs, e)
		outCols = append(outCols, schema.Column{Name: name, Type: typeOf(e, inputSchema)})
	}
	var top operator = &projectOp{child: acc, exprs: outExprs, sch: schema.Schema{Cols: outCols}}

	// --- limit ---------------------------------------------------------------
	if st.Limit != nil {
		top = &limitOp{child: top, limit: *st.Limit}
	}
	return top, nil
}

// FoldSubqueries replaces every scalar sub-query in e with the value it
// computes, under the one rule SQL's and PaQL's sub-queries share
// (Result.Scalar). Sub-queries must be uncorrelated. The engine folds
// PaQL's SUCH THAT and objective with it; a nil e folds to nil.
func (db *DB) FoldSubqueries(e expr.Expr) (expr.Expr, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.fold(e)
}

// fold is FoldSubqueries under the caller's lock.
func (db *DB) fold(e expr.Expr) (expr.Expr, error) {
	var firstErr error
	out := expr.Transform(e, func(n expr.Expr) expr.Expr {
		sq, ok := n.(*Subquery)
		if !ok {
			return nil
		}
		res, err := db.runSelect(sq.Stmt)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("minidb: scalar sub-query: %w", err)
			}
			return &expr.Const{Val: value.Null()}
		}
		v, err := res.Scalar()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return &expr.Const{Val: v}
	})
	return out, firstErr
}

// foldSubqueries folds the scalar sub-queries in every expression
// position of st, returning a folded copy.
func (db *DB) foldSubqueries(st *SelectStmt) (*SelectStmt, error) {
	out := *st
	where, err := db.fold(st.Where)
	out.Where = where
	out.Items = append([]SelectItem{}, st.Items...)
	for i := range out.Items {
		if out.Items[i].Star {
			continue
		}
		e, ierr := db.fold(out.Items[i].Expr)
		if err == nil {
			err = ierr
		}
		out.Items[i].Expr = e
	}
	return &out, err
}

// splitAnd flattens a conjunction into its conjuncts.
func splitAnd(e expr.Expr) []expr.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*expr.Binary); ok && b.Op == expr.OpAnd {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []expr.Expr{e}
}

// collectAggs gathers the distinct aggregate calls (by rendered text)
// appearing in the select items.
func collectAggs(items []SelectItem) []*expr.Agg {
	es := make([]expr.Expr, len(items))
	for i, it := range items {
		es[i] = it.Expr // nil for a star item
	}
	return expr.Aggregates(es...)
}

// rewriteAggExpr rewrites an expression for evaluation over the
// aggregation's one output row: aggregate calls become references to its
// columns. Any remaining raw column reference is an error.
func rewriteAggExpr(e expr.Expr, aggs []*expr.Agg) (expr.Expr, error) {
	aStrs := make([]string, len(aggs))
	for i, a := range aggs {
		aStrs[i] = a.String()
	}
	out := expr.Transform(e, func(n expr.Expr) expr.Expr {
		if a, ok := n.(*expr.Agg); ok {
			as := a.String()
			for i, s := range aStrs {
				if as == s {
					return &expr.Col{Name: s, Idx: i}
				}
			}
		}
		return nil
	})
	var badCol *expr.Col
	expr.Walk(out, func(n expr.Expr) {
		if c, ok := n.(*expr.Col); ok && c.Idx < 0 && badCol == nil {
			badCol = c
		}
	})
	if badCol != nil {
		return nil, fmt.Errorf("minidb: column %s must appear inside an aggregate", badCol)
	}
	return out, nil
}

// typeOf infers a best-effort output column type for result schemas.
func typeOf(e expr.Expr, in schema.Schema) schema.Type {
	switch n := e.(type) {
	case *expr.Const:
		switch n.Val.Kind() {
		case value.KindBool:
			return schema.TBool
		case value.KindInt:
			return schema.TInt
		case value.KindString:
			return schema.TString
		default:
			return schema.TFloat
		}
	case *expr.Col:
		if n.Idx >= 0 && n.Idx < in.Len() {
			return in.Cols[n.Idx].Type
		}
		return schema.TFloat
	case *expr.Binary:
		if n.Op.Comparison() || n.Op == expr.OpAnd || n.Op == expr.OpOr {
			return schema.TBool
		}
		lt := typeOf(n.L, in)
		rt := typeOf(n.R, in)
		if n.Op == expr.OpDiv {
			return schema.TFloat
		}
		if lt == schema.TInt && rt == schema.TInt {
			return schema.TInt
		}
		if lt == schema.TString && rt == schema.TString {
			return schema.TString
		}
		return schema.TFloat
	case *expr.Not, *expr.Between, *expr.InList, *expr.IsNull, *expr.Like:
		return schema.TBool
	case *expr.Neg:
		return typeOf(n.X, in)
	case *expr.Call:
		switch n.Name {
		case "LOWER", "UPPER":
			return schema.TString
		case "LENGTH":
			return schema.TInt
		case "ABS", "COALESCE", "LEAST", "GREATEST":
			if len(n.Args) > 0 {
				return typeOf(n.Args[0], in)
			}
		}
		return schema.TFloat
	}
	return schema.TFloat
}
