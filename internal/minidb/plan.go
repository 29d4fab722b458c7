package minidb

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/value"
)

// planSelect compiles a SELECT into an operator tree. The plan is
// left-deep in FROM order with:
//   - scalar sub-queries folded to constants,
//   - single-source WHERE conjuncts pushed down to heap scans,
//   - every other conjunct at the first join step where it binds, as
//     that step's nested-loop condition (equi-joins included),
//   - hash aggregation with HAVING,
//   - projection, DISTINCT, ORDER BY (output aliases, ordinals, or
//     hidden input-level keys) and LIMIT/OFFSET.
func (db *DB) planSelect(st *SelectStmt) (operator, error) {
	st, err := db.foldSubqueries(st)
	if err != nil {
		return nil, err
	}

	// --- sources ---------------------------------------------------------
	type source struct {
		ref   TableRef
		op    operator
		sch   schema.Schema
		scan  *scanOp // non-nil for base tables (pushdown target)
		start int     // first ordinal in the joined schema
	}
	if len(st.From) == 0 {
		return nil, fmt.Errorf("minidb: query has no FROM clause")
	}
	var sources []*source
	joined := schema.Schema{}
	bindings := map[string]bool{}
	for _, ref := range st.From {
		b := strings.ToLower(ref.Binding())
		if b == "" {
			return nil, fmt.Errorf("minidb: FROM item requires a name or alias")
		}
		if bindings[b] {
			return nil, fmt.Errorf("minidb: duplicate table binding %q", ref.Binding())
		}
		bindings[b] = true
		src := &source{ref: ref, start: joined.Len()}
		if ref.Sub != nil {
			res, err := db.runSelect(ref.Sub)
			if err != nil {
				return nil, err
			}
			src.sch = res.Schema.WithQualifier(ref.Binding())
			src.op = &valuesOp{rows: res.Rows, sch: src.sch}
		} else {
			t, ok := db.tables[strings.ToLower(ref.Name)]
			if !ok {
				return nil, fmt.Errorf("minidb: table %q does not exist", ref.Name)
			}
			sc := newScanOp(t, ref.Binding())
			src.scan = sc
			src.op = sc
			src.sch = sc.schema()
		}
		sources = append(sources, src)
		joined = joined.Concat(src.sch)
	}

	// --- conjunct classification ------------------------------------------
	// All conjuncts are bound against the full joined schema; the
	// left-deep prefix property makes those ordinals valid at the join
	// step where the conjunct first becomes evaluable.
	type conj struct {
		e         expr.Expr
		maxSource int // last source referenced; -1 for constant conjuncts
		minSource int
	}
	classify := func(e expr.Expr) (conj, error) {
		if err := expr.Bind(e, joined); err != nil {
			return conj{}, err
		}
		mn, mx := len(sources), -1
		for _, c := range expr.Columns(e) {
			si := 0
			for i := range sources {
				if c.Idx >= sources[i].start {
					si = i
				}
			}
			if si < mn {
				mn = si
			}
			if si > mx {
				mx = si
			}
		}
		if mx == -1 {
			mn = -1
		}
		return conj{e: e, maxSource: mx, minSource: mn}, nil
	}
	var conjs []conj
	for _, e := range splitAnd(st.Where) {
		c, err := classify(e)
		if err != nil {
			return nil, err
		}
		conjs = append(conjs, c)
	}
	for i, src := range sources {
		for _, e := range splitAnd(src.ref.JoinCond) {
			c, err := classify(e)
			if err != nil {
				return nil, err
			}
			if c.maxSource > i {
				return nil, fmt.Errorf("minidb: JOIN condition %s references tables to its right", e)
			}
			// ON conditions stay at their join step even if they bind
			// earlier (they cannot filter before the join syntactically,
			// but for inner joins pushing is semantics-preserving; keep
			// them at step i for clarity).
			c.maxSource = i
			if c.minSource < 0 {
				c.minSource = i
			}
			conjs = append(conjs, c)
		}
	}

	// Push single-source conjuncts into base-table scans.
	var remaining []conj
	for _, c := range conjs {
		if c.maxSource >= 0 && c.maxSource == c.minSource && sources[c.maxSource].scan != nil {
			src := sources[c.maxSource]
			local := expr.Clone(c.e)
			if err := expr.Bind(local, src.sch); err != nil {
				// e.g. unqualified name unique globally but ambiguous
				// locally cannot happen; keep the conjunct at its step.
				remaining = append(remaining, c)
				continue
			}
			src.scan.filter = expr.AndAll(src.scan.filter, local)
			continue
		}
		remaining = append(remaining, c)
	}

	// --- joins -------------------------------------------------------------
	// A remaining conjunct runs at the step where its last source joins:
	// source 0's (a derived table's, which takes no pushdown) as a filter,
	// a later step's as that step's nested-loop condition. Constant
	// conjuncts (no column references) filter once on top.
	steps := make([][]expr.Expr, len(sources))
	var consts []expr.Expr
	for _, c := range remaining {
		if c.maxSource < 0 {
			consts = append(consts, c.e)
		} else {
			steps[c.maxSource] = append(steps[c.maxSource], c.e)
		}
	}
	acc := sources[0].op
	if f := expr.AndAll(steps[0]...); f != nil {
		acc = &filterOp{child: acc, pred: f}
	}
	for i := 1; i < len(sources); i++ {
		acc = newNLJoin(acc, sources[i].op, expr.AndAll(steps[i]...))
	}
	if f := expr.AndAll(consts...); f != nil {
		acc = &filterOp{child: acc, pred: f}
	}

	// --- aggregation ---------------------------------------------------------
	aggs := collectAggs(st)
	havingExpr := st.Having
	orderExprs := make([]OrderItem, len(st.OrderBy))
	copy(orderExprs, st.OrderBy)
	itemExprs := make([]SelectItem, len(st.Items))
	copy(itemExprs, st.Items)
	aggregated := len(aggs) > 0 || len(st.GroupBy) > 0

	if aggregated {
		for _, item := range itemExprs {
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
		for _, g := range st.GroupBy {
			if err := expr.Bind(g, joined); err != nil {
				return nil, err
			}
		}
		agg := newAggOp(acc, st.GroupBy, aggs)
		rewrite := func(e expr.Expr) (expr.Expr, error) {
			return rewriteAggExpr(e, st.GroupBy, aggs, joined)
		}
		for i := range itemExprs {
			e, err := rewrite(itemExprs[i].Expr)
			if err != nil {
				return nil, err
			}
			itemExprs[i].Expr = e
		}
		if havingExpr != nil {
			e, err := rewrite(havingExpr)
			if err != nil {
				return nil, err
			}
			havingExpr = e
		}
		for i := range orderExprs {
			e, err := rewrite(orderExprs[i].E)
			if err != nil {
				return nil, err
			}
			orderExprs[i].E = e
		}
		acc = agg
	} else if st.Having != nil {
		return nil, fmt.Errorf("minidb: HAVING requires GROUP BY or aggregates")
	}
	if havingExpr != nil {
		acc = &filterOp{child: acc, pred: havingExpr}
	}

	inputSchema := acc.schema() // post-join or post-agg

	// --- projection -----------------------------------------------------------
	var outExprs []expr.Expr
	var outCols []schema.Column
	for _, item := range itemExprs {
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
	outSchema := schema.Schema{Cols: outCols}
	proj := &projectOp{child: acc, exprs: outExprs, sch: outSchema}
	var top operator = proj

	if st.Distinct {
		top = &distinctOp{child: top}
	}

	// --- order by ----------------------------------------------------------------
	if len(orderExprs) > 0 {
		outKeys, hiddenKeys, err := resolveOrderBy(orderExprs, outSchema, inputSchema, aggregated)
		if err != nil {
			return nil, err
		}
		if len(hiddenKeys) == 0 {
			top = &sortOp{child: top, keys: outKeys}
		} else {
			if st.Distinct {
				return nil, fmt.Errorf("minidb: ORDER BY expressions must appear in the select list when DISTINCT is used")
			}
			// Extend the projection with hidden sort columns, sort, trim.
			extExprs := append(append([]expr.Expr{}, outExprs...), hiddenKeys...)
			extCols := append([]schema.Column{}, outCols...)
			for i := range hiddenKeys {
				extCols = append(extCols, schema.Column{Name: fmt.Sprintf("__sort%d", i), Type: schema.TFloat})
			}
			extSchema := schema.Schema{Cols: extCols}
			ext := &projectOp{child: acc, exprs: extExprs, sch: extSchema}
			sorted := &sortOp{child: ext, keys: outKeys}
			trimExprs := make([]expr.Expr, len(outCols))
			for i, c := range outCols {
				trimExprs[i] = &expr.Col{Name: c.Name, Idx: i}
			}
			top = &projectOp{child: sorted, exprs: trimExprs, sch: outSchema}
		}
	}

	// --- limit/offset ---------------------------------------------------------------
	if st.Limit != nil || st.Offset != nil {
		lim := int64(-1)
		if st.Limit != nil {
			lim = *st.Limit
		}
		off := int64(0)
		if st.Offset != nil {
			off = *st.Offset
		}
		top = &limitOp{child: top, limit: lim, offset: off}
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
	var firstErr error
	fold := func(e expr.Expr) expr.Expr {
		out, err := db.fold(e)
		if firstErr == nil {
			firstErr = err
		}
		return out
	}
	out := *st
	out.Where = fold(st.Where)
	out.Having = fold(st.Having)
	out.Items = append([]SelectItem{}, st.Items...)
	for i := range out.Items {
		if !out.Items[i].Star {
			out.Items[i].Expr = fold(out.Items[i].Expr)
		}
	}
	out.GroupBy = append([]expr.Expr{}, st.GroupBy...)
	for i := range out.GroupBy {
		out.GroupBy[i] = fold(out.GroupBy[i])
	}
	out.OrderBy = append([]OrderItem{}, st.OrderBy...)
	for i := range out.OrderBy {
		out.OrderBy[i].E = fold(out.OrderBy[i].E)
	}
	out.From = append([]TableRef{}, st.From...)
	for i := range out.From {
		out.From[i].JoinCond = fold(out.From[i].JoinCond)
	}
	return &out, firstErr
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
// appearing in SELECT items, HAVING and ORDER BY.
func collectAggs(st *SelectStmt) []*expr.Agg {
	var es []expr.Expr
	for _, it := range st.Items {
		es = append(es, it.Expr) // nil for a star item
	}
	es = append(es, st.Having)
	for _, o := range st.OrderBy {
		es = append(es, o.E)
	}
	return expr.Aggregates(es...)
}

// rewriteAggExpr rewrites an expression for evaluation over aggregation
// output: group-by expressions become references to the leading output
// columns, aggregate calls become references to the trailing ones. Any
// remaining raw column reference is an error (not grouped).
func rewriteAggExpr(e expr.Expr, groupBy []expr.Expr, aggs []*expr.Agg, joined schema.Schema) (expr.Expr, error) {
	gStrs := make([]string, len(groupBy))
	for i, g := range groupBy {
		gStrs[i] = g.String()
	}
	aStrs := make([]string, len(aggs))
	for i, a := range aggs {
		aStrs[i] = a.String()
	}
	out := expr.Transform(e, func(n expr.Expr) expr.Expr {
		ns := n.String()
		for i, gs := range gStrs {
			if ns == gs {
				name := gs
				if c, ok := n.(*expr.Col); ok {
					name = c.Name
				}
				return &expr.Col{Name: name, Idx: i}
			}
		}
		// A column that resolves to the same ordinal as a group-by
		// column also matches (e.g. GROUP BY r.cal, SELECT cal).
		if c, ok := n.(*expr.Col); ok {
			probe := expr.Clone(c)
			if err := expr.Bind(probe, joined); err == nil {
				pc := probe.(*expr.Col)
				for i, g := range groupBy {
					if gc, ok := g.(*expr.Col); ok && gc.Idx == pc.Idx {
						return &expr.Col{Name: c.Name, Idx: i}
					}
				}
			}
		}
		if a, ok := n.(*expr.Agg); ok {
			as := a.String()
			for i, s := range aStrs {
				if as == s {
					return &expr.Col{Name: s, Idx: len(groupBy) + i}
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
		return nil, fmt.Errorf("minidb: column %s must appear in GROUP BY or inside an aggregate", badCol)
	}
	return out, nil
}

// resolveOrderBy binds ORDER BY keys. Keys that reference output aliases
// or ordinals sort the projected rows; anything else becomes a hidden
// input-level key (second return value), and the caller extends the
// projection. With aggregation, expressions were already rewritten and
// bound, so they sort the pre-projection (aggregated) rows via hidden keys
// unless they match output columns.
func resolveOrderBy(items []OrderItem, outSchema, inSchema schema.Schema, aggregated bool) (keys []OrderItem, hidden []expr.Expr, err error) {
	hiddenStart := outSchema.Len()
	for _, it := range items {
		// ORDER BY <ordinal>
		if c, ok := it.E.(*expr.Const); ok && c.Val.Kind() == value.KindInt {
			n := int(c.Val.IntVal())
			if n < 1 || n > outSchema.Len() {
				return nil, nil, fmt.Errorf("minidb: ORDER BY position %d out of range", n)
			}
			keys = append(keys, OrderItem{E: &expr.Col{Idx: n - 1}, Desc: it.Desc})
			continue
		}
		if aggregated {
			// Already rewritten+bound against the agg schema (== input
			// schema here). Check whether it coincides with an output
			// column; otherwise it is a hidden key.
			if c, ok := it.E.(*expr.Col); ok {
				matched := false
				for i, oc := range outSchema.Cols {
					if strings.EqualFold(oc.Name, c.Name) {
						keys = append(keys, OrderItem{E: &expr.Col{Idx: i}, Desc: it.Desc})
						matched = true
						break
					}
				}
				if matched {
					continue
				}
			}
			keys = append(keys, OrderItem{E: &expr.Col{Idx: hiddenStart + len(hidden)}, Desc: it.Desc})
			hidden = append(hidden, it.E)
			continue
		}
		// Try output schema first (aliases), then input schema.
		probe := expr.Clone(it.E)
		if err := expr.Bind(probe, outSchema); err == nil {
			keys = append(keys, OrderItem{E: probe, Desc: it.Desc})
			continue
		}
		probe = expr.Clone(it.E)
		if err := expr.Bind(probe, inSchema); err != nil {
			return nil, nil, fmt.Errorf("minidb: cannot resolve ORDER BY expression %s: %w", it.E, err)
		}
		keys = append(keys, OrderItem{E: &expr.Col{Idx: hiddenStart + len(hidden)}, Desc: it.Desc})
		hidden = append(hidden, probe)
	}
	return keys, hidden, nil
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
