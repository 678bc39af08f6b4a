package sparksql

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// DataFrame is a distributed collection of rows with a schema (paper §3.1):
// a logical plan that executes only on output operations (Collect, Count,
// Show), but is analyzed eagerly so schema errors surface immediately.
type DataFrame struct {
	ctx      *Context
	logical  plan.LogicalPlan
	analyzed plan.LogicalPlan
	// sqlText is the originating SQL statement when this frame came from
	// Context.SQL — the shippable form of the query for distributed
	// execution. Derived frames clear it: a DSL transformation on top of
	// a SQL frame is no longer the statement the text describes.
	sqlText string
	// originSQL is the SQL statement this frame descends from, kept across
	// derivations for the query event log only — a Show/Take on a SQL frame
	// logs under the user's statement even though the limited plan itself
	// is no longer shippable as that text.
	originSQL string
}

// derive builds a child DataFrame, eagerly analyzing the new plan.
func (df *DataFrame) derive(lp plan.LogicalPlan) (*DataFrame, error) {
	child, err := df.ctx.newDataFrame(lp)
	if err != nil {
		return nil, err
	}
	if df.sqlText != "" {
		child.originSQL = df.sqlText
	} else {
		child.originSQL = df.originSQL
	}
	return child, nil
}

// Schema returns the DataFrame's schema.
func (df *DataFrame) Schema() StructType { return plan.Schema(df.analyzed) }

// LogicalPlan exposes the underlying (unanalyzed) logical plan for
// libraries extending Catalyst (paper §7's research extensions rewrite
// query plans with transform calls).
func (df *DataFrame) LogicalPlan() plan.LogicalPlan { return df.logical }

// AnalyzedPlan exposes the resolved logical plan.
func (df *DataFrame) AnalyzedPlan() plan.LogicalPlan { return df.analyzed }

// FromPlan wraps a logical plan as a DataFrame (for plan-rewriting
// extensions); the plan is analyzed eagerly like any other construction.
func (c *Context) FromPlan(lp plan.LogicalPlan) (*DataFrame, error) {
	return c.newDataFrame(lp)
}

// Columns returns the output column names.
func (df *DataFrame) Columns() []string { return df.Schema().FieldNames() }

// Col returns a resolved column of this DataFrame, usable to disambiguate
// join inputs (the paper's employees("deptId")).
func (df *DataFrame) Col(name string) (Column, error) {
	out := df.analyzed.Output()
	resolved, err := analysisResolve(name, out)
	if err != nil {
		return Column{}, err
	}
	return Column{e: resolved}, nil
}

// MustCol is Col for known-good names (panics on error) — keeps examples
// close to the paper's syntax.
func (df *DataFrame) MustCol(name string) Column {
	c, err := df.Col(name)
	if err != nil {
		panic(err)
	}
	return c
}

func analysisResolve(name string, out []*expr.AttributeReference) (expr.Expression, error) {
	parts := splitDots(name)
	for _, a := range out {
		if strings.EqualFold(a.Name, parts[0]) {
			var e expr.Expression = a
			for _, f := range parts[1:] {
				e = &expr.GetField{Child: e, FieldName: f}
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("sparksql: no such column %q (have %v)", name, attrNamesOf(out))
}

func attrNamesOf(out []*expr.AttributeReference) []string {
	names := make([]string, len(out))
	for i, a := range out {
		names[i] = a.Name
	}
	return names
}

// Select projects columns; arguments are column names (string), Columns,
// or "*".
func (df *DataFrame) Select(cols ...any) (*DataFrame, error) {
	list := make([]expr.Expression, len(cols))
	for i, c := range cols {
		if s, ok := c.(string); ok && s == "*" {
			list[i] = &expr.Star{}
			continue
		}
		list[i] = toCol(c).e
	}
	return df.derive(&plan.Project{List: list, Child: df.logical})
}

// SelectExpr projects SQL expression strings ("a+b AS total").
func (df *DataFrame) SelectExpr(exprs ...string) (*DataFrame, error) {
	list := make([]expr.Expression, len(exprs))
	for i, s := range exprs {
		e, err := sqlparser.ParseExpression(s)
		if err != nil {
			return nil, err
		}
		list[i] = e
	}
	return df.derive(&plan.Project{List: list, Child: df.logical})
}

// WithColumn appends (or replaces) a named column.
func (df *DataFrame) WithColumn(name string, col Column) (*DataFrame, error) {
	list := []expr.Expression{}
	replaced := false
	for _, a := range df.analyzed.Output() {
		if strings.EqualFold(a.Name, name) {
			list = append(list, expr.NewAlias(col.e, name))
			replaced = true
			continue
		}
		list = append(list, a)
	}
	if !replaced {
		list = append(list, expr.NewAlias(col.e, name))
	}
	return df.derive(&plan.Project{List: list, Child: df.logical})
}

// Where filters rows (paper: users.where(users("age") < 21)).
func (df *DataFrame) Where(cond Column) (*DataFrame, error) {
	return df.derive(&plan.Filter{Cond: cond.e, Child: df.logical})
}

// Filter is an alias for Where.
func (df *DataFrame) Filter(cond Column) (*DataFrame, error) { return df.Where(cond) }

// WhereSQL filters with a SQL expression string.
func (df *DataFrame) WhereSQL(cond string) (*DataFrame, error) {
	e, err := sqlparser.ParseExpression(cond)
	if err != nil {
		return nil, err
	}
	return df.derive(&plan.Filter{Cond: e, Child: df.logical})
}

// Join inner-joins with another DataFrame on a condition.
func (df *DataFrame) Join(other *DataFrame, on Column) (*DataFrame, error) {
	return df.JoinWith(other, on, "inner")
}

// JoinWith joins with an explicit type: "inner", "left_outer",
// "right_outer", "full_outer", "left_semi" or "cross".
func (df *DataFrame) JoinWith(other *DataFrame, on Column, joinType string) (*DataFrame, error) {
	var jt plan.JoinType
	switch strings.ToLower(joinType) {
	case "inner":
		jt = plan.InnerJoin
	case "left_outer", "left":
		jt = plan.LeftOuterJoin
	case "right_outer", "right":
		jt = plan.RightOuterJoin
	case "full_outer", "full", "outer":
		jt = plan.FullOuterJoin
	case "left_semi", "semi":
		jt = plan.LeftSemiJoin
	case "cross":
		jt = plan.CrossJoin
	default:
		return nil, fmt.Errorf("sparksql: unknown join type %q", joinType)
	}
	var cond expr.Expression
	if on != (Column{}) {
		cond = on.e
	}
	return df.derive(&plan.Join{Left: df.logical, Right: other.logical, Type: jt, Cond: cond})
}

// CrossJoin joins without a condition.
func (df *DataFrame) CrossJoin(other *DataFrame) (*DataFrame, error) {
	return df.derive(&plan.Join{Left: df.logical, Right: other.logical, Type: plan.CrossJoin})
}

// GroupBy starts a grouped aggregation.
func (df *DataFrame) GroupBy(cols ...any) *GroupedData {
	grouping := make([]expr.Expression, len(cols))
	for i, c := range cols {
		grouping[i] = toCol(c).e
	}
	return &GroupedData{df: df, grouping: grouping}
}

// Agg computes ungrouped aggregates over the whole DataFrame.
func (df *DataFrame) Agg(aggs ...Column) (*DataFrame, error) {
	return df.GroupBy().Agg(aggs...)
}

// OrderBy totally orders the result; use Column.Desc() for descending.
func (df *DataFrame) OrderBy(cols ...any) (*DataFrame, error) {
	orders := make([]*expr.SortOrder, len(cols))
	for i, c := range cols {
		e := toCol(c).e
		if so, ok := e.(*expr.SortOrder); ok {
			orders[i] = so
		} else {
			orders[i] = expr.Asc(e)
		}
	}
	return df.derive(&plan.Sort{Orders: orders, Global: true, Child: df.logical})
}

// Limit keeps the first n rows.
func (df *DataFrame) Limit(n int) (*DataFrame, error) {
	return df.derive(&plan.Limit{N: n, Child: df.logical})
}

// Distinct removes duplicate rows.
func (df *DataFrame) Distinct() (*DataFrame, error) {
	return df.derive(&plan.Distinct{Child: df.logical})
}

// UnionAll concatenates two DataFrames with compatible schemas.
func (df *DataFrame) UnionAll(other *DataFrame) (*DataFrame, error) {
	return df.derive(&plan.Union{Kids: []plan.LogicalPlan{df.logical, other.logical}})
}

// Alias names this DataFrame for qualified references (self-joins).
func (df *DataFrame) Alias(name string) (*DataFrame, error) {
	return df.derive(&plan.SubqueryAlias{Name: strings.ToLower(name), Child: df.logical})
}

// Sample keeps a deterministic pseudo-random fraction of rows.
func (df *DataFrame) Sample(fraction float64, seed int64) (*DataFrame, error) {
	return df.derive(&plan.Sample{Fraction: fraction, Seed: seed, Child: df.logical})
}

// RegisterTempTable registers the DataFrame as an unmaterialized view in
// the catalog (paper §3.3) — later SQL composes with this plan and is
// optimized across the boundary.
func (df *DataFrame) RegisterTempTable(name string) {
	df.ctx.engine.Catalog.RegisterTable(name, df.logical)
}

// --- output operations (execution happens here) ---

// queryExecution runs the Catalyst phases over the eagerly analyzed plan:
// the relation versions resolved when the frame was built are the ones the
// action reads, so a query pinned before a concurrent UPDATE/DELETE on a
// persistent table returns the pre-write rows.
func (df *DataFrame) queryExecution() (qe queryExec, err error) {
	q, err := df.ctx.engine.ExecuteResolved(df.logical, df.analyzed)
	if err != nil {
		return queryExec{}, err
	}
	if df.sqlText != "" {
		q.SetSQL(df.sqlText)
	} else {
		q.SetSQL(df.originSQL)
	}
	return queryExec{q}, nil
}

// distributable reports whether an action on this frame may ship to
// cluster workers: it must have originated as SQL text (closures cannot
// serialize), a cluster must be running, and every pinned persistent-table
// version must still be the store's current one — workers re-resolve the
// shipped text against the current catalog, so executing a stale snapshot
// remotely would silently read the wrong version. Stale frames run
// locally, preserving snapshot isolation.
func (df *DataFrame) distributable() bool {
	if df.sqlText == "" || df.ctx.engine.Cluster() == nil {
		return false
	}
	stale := false
	var walk func(lp plan.LogicalPlan)
	walk = func(lp plan.LogicalPlan) {
		if stale {
			return
		}
		if rel, ok := lp.(*plan.InMemoryRelation); ok && rel.Origin != "" {
			if df.ctx.store == nil || df.ctx.store.Snapshot(rel.Origin) != rel {
				stale = true
			}
		}
		for _, child := range lp.Children() {
			walk(child)
		}
	}
	walk(df.analyzed)
	return !stale
}

// Collect materializes all rows. Task failures (including recovered
// compute panics, after retries from lineage) surface as a *rdd.JobError
// carrying the failing stage, partition, attempt count and cause. Under
// Config.MemoryBudget the query executes against a per-query memory pool —
// blocking operators spill to the engine's DFS when it is exhausted — and
// every spill file is deleted before Collect returns, whether the query
// completes, fails or is cancelled. The rows of one task share one value
// arena and each row is capacity-clipped, so appending to a row copies it and
// never reaches the next one.
func (df *DataFrame) Collect() ([]Row, error) {
	return df.CollectContext(context.Background())
}

// CollectContext is Collect under a caller context: cancelling ctx (or an
// expired deadline, or the engine's QueryTimeout) cancels all in-flight
// and pending tasks of the query and returns the context's error.
func (df *DataFrame) CollectContext(ctx context.Context) ([]Row, error) {
	qe, err := df.queryExecution()
	if err != nil {
		return nil, err
	}
	if df.distributable() {
		return qe.q.CollectDistributedContext(ctx, df.sqlText)
	}
	return qe.q.CollectContext(ctx)
}

// Count returns the number of rows.
func (df *DataFrame) Count() (int64, error) {
	return df.CountContext(context.Background())
}

// CountContext is Count under a caller context.
func (df *DataFrame) CountContext(ctx context.Context) (int64, error) {
	qe, err := df.queryExecution()
	if err != nil {
		return 0, err
	}
	if df.distributable() {
		return qe.q.CountDistributedContext(ctx, df.sqlText)
	}
	return qe.q.CountContext(ctx)
}

// Take returns up to n leading rows.
func (df *DataFrame) Take(n int) ([]Row, error) {
	limited, err := df.Limit(n)
	if err != nil {
		return nil, err
	}
	return limited.Collect()
}

// ToRDD exposes the result as an RDD of rows for procedural processing —
// the relational↔procedural bridge of §3.1 and the Figure 10 pipeline.
func (df *DataFrame) ToRDD() (*rdd.RDD[Row], error) {
	qe, err := df.queryExecution()
	if err != nil {
		return nil, err
	}
	return qe.q.RDD(), nil
}

// AdaptedQuery plans the query, replays a coordinator's adaptive decision
// list over the static physical plan, and returns the result RDD together
// with the decision-applied plan's fingerprint. Cluster workers use it to
// execute the exact plan the coordinator adapted — stages materialize once,
// on the coordinator, and workers only replay the recorded rewrites. An
// empty decision list yields the static plan, identical to ToRDD.
func (df *DataFrame) AdaptedQuery(decisions []physical.Decision) (*rdd.RDD[Row], uint64, error) {
	qe, err := df.queryExecution()
	if err != nil {
		return nil, 0, err
	}
	if err := qe.q.ApplyDecisions(decisions); err != nil {
		return nil, 0, err
	}
	return qe.q.ExecutedRDD(), qe.q.PlanHash(), nil
}

// Explain renders the logical, analyzed, optimized and physical plans.
func (df *DataFrame) Explain() (string, error) {
	qe, err := df.queryExecution()
	if err != nil {
		return "", err
	}
	return qe.q.Explain(), nil
}

// ExplainAnalyze runs the query with per-operator instrumentation forced
// on and renders the physical plan annotated with both the optimizer's
// `est:` prediction and the measured `actual:` rows and wall time per
// node, plus a runtime summary — the paper ecosystem's SQL metrics tab in
// text form, and the feedback loop that confronts cost-based estimates
// with what the run actually did.
func (df *DataFrame) ExplainAnalyze() (string, error) {
	return df.ExplainAnalyzeContext(context.Background())
}

// ExplainAnalyzeContext is ExplainAnalyze under a caller context.
func (df *DataFrame) ExplainAnalyzeContext(ctx context.Context) (string, error) {
	qe, err := df.queryExecution()
	if err != nil {
		return "", err
	}
	return qe.q.ExplainAnalyzeContext(ctx)
}

// PlanHash returns a stable fingerprint of the query's physical plan
// (expression IDs normalized out), correlating log lines that ran the
// same plan shape.
func (df *DataFrame) PlanHash() (uint64, error) {
	qe, err := df.queryExecution()
	if err != nil {
		return 0, err
	}
	return qe.q.PlanHash(), nil
}

// Show renders up to n rows as a text table.
func (df *DataFrame) Show(n int) (string, error) {
	rows, err := df.Take(n)
	if err != nil {
		return "", err
	}
	return FormatTable(df.Columns(), rows), nil
}

// FormatTable renders rows with a header, Spark-style.
func FormatTable(headers []string, rows []Row) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	cells := make([][]string, len(rows))
	for ri, r := range rows {
		cells[ri] = make([]string, len(headers))
		for ci := range headers {
			var v any
			if ci < len(r) {
				v = r[ci]
			}
			s := row.FormatValue(v)
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	writeSep := func() {
		for _, w := range widths {
			sb.WriteByte('+')
			sb.WriteString(strings.Repeat("-", w+2))
		}
		sb.WriteString("+\n")
	}
	writeRow := func(vals []string) {
		for i, v := range vals {
			fmt.Fprintf(&sb, "| %-*s ", widths[i], v)
		}
		sb.WriteString("|\n")
	}
	writeSep()
	writeRow(headers)
	writeSep()
	for _, r := range cells {
		writeRow(r)
	}
	writeSep()
	return sb.String()
}

// Cache materializes the DataFrame into compressed columnar storage (paper
// §3.6) and redirects this DataFrame's plan to the cache. Returns cache
// statistics.
func (df *DataFrame) Cache() (CacheInfo, error) {
	qe, err := df.queryExecution()
	if err != nil {
		return CacheInfo{}, err
	}
	r := qe.q.RDD()
	parts := make([][]row.Row, r.NumPartitions())
	if err := r.ForeachPartition(func(p int, data []row.Row) { parts[p] = data }); err != nil {
		return CacheInfo{}, fmt.Errorf("sparksql: caching failed: %w", err)
	}
	schema := df.Schema()
	table := columnar.BuildTable(schema, parts, columnar.DefaultBatchSize)
	mem := &plan.InMemoryRelation{
		Attrs:       df.analyzed.Output(),
		Table:       table,
		SizeInBytes: table.SizeBytes(),
		RowCount:    table.RowCount(),
		TableStats:  table.Stats,
	}
	df.logical = mem
	df.analyzed = mem
	var objectBytes int64
	for _, p := range parts {
		for _, rr := range p {
			objectBytes += rr.ObjectSize()
		}
	}
	return CacheInfo{
		Rows:          table.RowCount(),
		ColumnarBytes: table.SizeBytes(),
		ObjectBytes:   objectBytes,
		Encodings:     table.Encodings(),
	}, nil
}

// CacheInfo reports the footprint of a cached DataFrame under the columnar
// format versus the boxed-object model (§3.6's order-of-magnitude claim).
type CacheInfo struct {
	Rows          int64
	ColumnarBytes int64
	ObjectBytes   int64
	Encodings     []string
}

// GroupedData is the result of GroupBy, awaiting aggregates (paper §3.3).
type GroupedData struct {
	df       *DataFrame
	grouping []expr.Expression
}

// Agg computes the given aggregates; the output contains the grouping
// columns followed by the aggregates.
func (g *GroupedData) Agg(aggs ...Column) (*DataFrame, error) {
	list := make([]expr.Expression, 0, len(g.grouping)+len(aggs))
	list = append(list, g.grouping...)
	for _, a := range aggs {
		list = append(list, a.e)
	}
	return g.df.derive(&plan.Aggregate{Grouping: g.grouping, Aggs: list, Child: g.df.logical})
}

// Count counts rows per group.
func (g *GroupedData) Count() (*DataFrame, error) {
	return g.Agg(CountStar().As("count"))
}

// Avg averages the named columns per group (df.groupBy("a").avg("b")).
func (g *GroupedData) Avg(cols ...string) (*DataFrame, error) {
	aggs := make([]Column, len(cols))
	for i, c := range cols {
		aggs[i] = Avg(Col(c)).As("avg(" + c + ")")
	}
	return g.Agg(aggs...)
}

// Sum sums the named columns per group.
func (g *GroupedData) Sum(cols ...string) (*DataFrame, error) {
	aggs := make([]Column, len(cols))
	for i, c := range cols {
		aggs[i] = Sum(Col(c)).As("sum(" + c + ")")
	}
	return g.Agg(aggs...)
}

// Max takes per-group maxima of the named columns.
func (g *GroupedData) Max(cols ...string) (*DataFrame, error) {
	aggs := make([]Column, len(cols))
	for i, c := range cols {
		aggs[i] = Max(Col(c)).As("max(" + c + ")")
	}
	return g.Agg(aggs...)
}

// Min takes per-group minima of the named columns.
func (g *GroupedData) Min(cols ...string) (*DataFrame, error) {
	aggs := make([]Column, len(cols))
	for i, c := range cols {
		aggs[i] = Min(Col(c)).As("min(" + c + ")")
	}
	return g.Agg(aggs...)
}

// queryExec wraps core.QueryExecution without exporting internal types in
// the public API surface.
type queryExec struct {
	q interface {
		Collect() ([]row.Row, error)
		CollectContext(ctx context.Context) ([]row.Row, error)
		Count() (int64, error)
		CountContext(ctx context.Context) (int64, error)
		RDD() *rdd.RDD[row.Row]
		Explain() string
		ExplainAnalyzeContext(ctx context.Context) (string, error)
		PlanHash() uint64
		CollectDistributedContext(ctx context.Context, sql string) ([]row.Row, error)
		CountDistributedContext(ctx context.Context, sql string) (int64, error)
		ApplyDecisions(ds []physical.Decision) error
		ExecutedRDD() *rdd.RDD[row.Row]
	}
}

// Ensure plan schema compatibility for writers.
var _ = types.StructType{}
