package plan

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/columnar"
	"repro/internal/datasource"
	"repro/internal/expr"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/stats"
	"repro/internal/types"
)

// Leaf operators: relations data flows out of.

// UnresolvedRelation is a by-name table reference awaiting catalog lookup
// (paper §4.3.1: "looking up relations by name from the catalog").
type UnresolvedRelation struct {
	Name string
}

func (u *UnresolvedRelation) Children() []LogicalPlan { return nil }
func (u *UnresolvedRelation) WithNewChildren(children []LogicalPlan) LogicalPlan {
	return u
}
func (u *UnresolvedRelation) Output() []*expr.AttributeReference {
	panic(fmt.Sprintf("plan: Output on unresolved relation %q", u.Name))
}
func (u *UnresolvedRelation) Expressions() []expr.Expression { return nil }
func (u *UnresolvedRelation) WithNewExpressions(exprs []expr.Expression) LogicalPlan {
	return u
}
func (u *UnresolvedRelation) Resolved() bool { return false }
func (u *UnresolvedRelation) SimpleString() string {
	return fmt.Sprintf("'UnresolvedRelation %s", u.Name)
}
func (u *UnresolvedRelation) String() string { return Format(u) }

// UnresolvedTableFunction is a table-valued function call in FROM —
// the MADLib-style table UDFs of paper §3.7 ("UDFs that operate on an
// entire table by taking its name"). Args name the input tables; the
// analyzer resolves them through the catalog and invokes the registered
// function to produce this node's replacement plan.
type UnresolvedTableFunction struct {
	Name string
	Args []string
}

func (u *UnresolvedTableFunction) Children() []LogicalPlan { return nil }
func (u *UnresolvedTableFunction) WithNewChildren(children []LogicalPlan) LogicalPlan {
	return u
}
func (u *UnresolvedTableFunction) Output() []*expr.AttributeReference {
	panic(fmt.Sprintf("plan: Output on unresolved table function %q", u.Name))
}
func (u *UnresolvedTableFunction) Expressions() []expr.Expression { return nil }
func (u *UnresolvedTableFunction) WithNewExpressions(exprs []expr.Expression) LogicalPlan {
	return u
}
func (u *UnresolvedTableFunction) Resolved() bool { return false }
func (u *UnresolvedTableFunction) SimpleString() string {
	return fmt.Sprintf("'TableFunction %s(%s)", u.Name, strings.Join(u.Args, ", "))
}
func (u *UnresolvedTableFunction) String() string { return Format(u) }

// LocalRelation is an in-memory table of rows — what ctx.CreateDataFrame
// and constant test fixtures produce. Rows is immutable once the relation
// exists: its flat size, and the blocks a cluster ships, are derived once.
type LocalRelation struct {
	Attrs []*expr.AttributeReference
	Rows  []row.Row
	// TableStats carries ANALYZE-collected statistics (nil until analyzed).
	TableStats *stats.Table
	// size memoizes Rows' flat size in a cell the constructors create and
	// struct copies share; a bare literal has none and walks every time.
	size *flatSizeMemo
}

type flatSizeMemo struct {
	once  sync.Once
	bytes int64
}

var flatSizeWalks atomic.Int64 // walks over a relation's rows, for tests

// NewLocalRelation builds a local relation from a schema (allocating fresh
// attribute IDs) and rows, which it adopts: no copy, immutable from then on.
func NewLocalRelation(schema types.StructType, rows []row.Row) *LocalRelation {
	attrs := make([]*expr.AttributeReference, len(schema.Fields))
	for i, f := range schema.Fields {
		attrs[i] = expr.NewAttribute(f.Name, f.Type, f.Nullable)
	}
	return NewLocalRelationFromAttrs(attrs, rows)
}

// NewLocalRelationFromAttrs builds a local relation over existing attrs.
func NewLocalRelationFromAttrs(attrs []*expr.AttributeReference, rows []row.Row) *LocalRelation {
	return &LocalRelation{Attrs: attrs, Rows: rows, size: new(flatSizeMemo)}
}

// flatSize sums the rows' flat sizes, at most once per cell.
func (l *LocalRelation) flatSize() int64 {
	m := l.size
	if m == nil {
		m = new(flatSizeMemo)
	}
	m.once.Do(func() {
		flatSizeWalks.Add(1)
		for _, r := range l.Rows {
			m.bytes += r.FlatSize()
		}
	})
	return m.bytes
}

func (l *LocalRelation) Children() []LogicalPlan { return nil }
func (l *LocalRelation) WithNewChildren(children []LogicalPlan) LogicalPlan {
	return l
}
func (l *LocalRelation) Output() []*expr.AttributeReference { return l.Attrs }
func (l *LocalRelation) Expressions() []expr.Expression     { return nil }
func (l *LocalRelation) WithNewExpressions(exprs []expr.Expression) LogicalPlan {
	return l
}
func (l *LocalRelation) Resolved() bool { return true }
func (l *LocalRelation) SimpleString() string {
	return fmt.Sprintf("LocalRelation %s, %d rows", attrsString(l.Attrs), len(l.Rows))
}
func (l *LocalRelation) String() string { return Format(l) }

// LogicalRDD scans an existing RDD of rows — the bridge that lets relational
// operators run over native datasets inside a Spark program (paper §3.5).
type LogicalRDD struct {
	Attrs []*expr.AttributeReference
	RDD   *rdd.RDD[row.Row]
	// SizeHint, when > 0, feeds the cost model (external files and cached
	// data report sizes; anonymous RDDs default to "too big to
	// broadcast").
	SizeHint int64
	// TableStats carries ANALYZE-collected statistics (nil until analyzed).
	TableStats *stats.Table
}

func (l *LogicalRDD) Children() []LogicalPlan { return nil }
func (l *LogicalRDD) WithNewChildren(children []LogicalPlan) LogicalPlan {
	return l
}
func (l *LogicalRDD) Output() []*expr.AttributeReference { return l.Attrs }
func (l *LogicalRDD) Expressions() []expr.Expression     { return nil }
func (l *LogicalRDD) WithNewExpressions(exprs []expr.Expression) LogicalPlan {
	return l
}
func (l *LogicalRDD) Resolved() bool { return true }
func (l *LogicalRDD) SimpleString() string {
	return fmt.Sprintf("LogicalRDD %s", attrsString(l.Attrs))
}
func (l *LogicalRDD) String() string { return Format(l) }

// Range produces the integers [Start, End) with the given Step as a single
// BIGINT column — handy for synthetic workloads.
type Range struct {
	Start, End, Step int64
	Partitions       int
	Attr             *expr.AttributeReference
}

// NewRange builds a range relation with a fresh `id` attribute.
func NewRange(start, end, step int64, partitions int) *Range {
	return &Range{
		Start: start, End: end, Step: step, Partitions: partitions,
		Attr: expr.NewAttribute("id", types.Long, false),
	}
}

// Count returns the number of rows the range produces.
func (r *Range) Count() int64 {
	if r.Step == 0 || (r.End-r.Start)/r.Step < 0 {
		return 0
	}
	return (r.End - r.Start + r.Step - sign(r.Step)) / r.Step
}

func sign(x int64) int64 {
	if x < 0 {
		return -1
	}
	return 1
}

func (r *Range) Children() []LogicalPlan { return nil }
func (r *Range) WithNewChildren(children []LogicalPlan) LogicalPlan {
	return r
}
func (r *Range) Output() []*expr.AttributeReference { return []*expr.AttributeReference{r.Attr} }
func (r *Range) Expressions() []expr.Expression     { return nil }
func (r *Range) WithNewExpressions(exprs []expr.Expression) LogicalPlan {
	return r
}
func (r *Range) Resolved() bool { return true }
func (r *Range) SimpleString() string {
	return fmt.Sprintf("Range(%d, %d, step=%d)", r.Start, r.End, r.Step)
}
func (r *Range) String() string { return Format(r) }

// DataSourceRelation wraps an external data source (paper §4.4.1). The
// optimizer may push column pruning and filters into it depending on which
// scan interfaces the relation implements; PushedColumns/PushedFilters
// record what was pushed.
type DataSourceRelation struct {
	Name  string
	Rel   datasource.Relation
	Attrs []*expr.AttributeReference
	// SizeHint comes from the relation's size estimate (broadcast-join
	// cost input; paper footnote 5).
	SizeHint int64
	// PushedColumns, when non-nil, restricts the scan to these column
	// names (projection pushdown); Attrs is already pruned to match.
	PushedColumns []string
	// PushedFilters are source-evaluated predicates. They are advisory
	// (the source may return false positives), so the optimizer keeps a
	// Filter above unless the source reports exact evaluation.
	PushedFilters []datasource.Filter
	// PushedPredicates are complete Catalyst expression trees handed to
	// CatalystScan sources (paper §4.4.1's most powerful interface);
	// always advisory.
	PushedPredicates []expr.Expression
	// TableStats carries ANALYZE-collected statistics (nil until analyzed).
	TableStats *stats.Table
}

func (d *DataSourceRelation) Children() []LogicalPlan { return nil }
func (d *DataSourceRelation) WithNewChildren(children []LogicalPlan) LogicalPlan {
	return d
}
func (d *DataSourceRelation) Output() []*expr.AttributeReference { return d.Attrs }
func (d *DataSourceRelation) Expressions() []expr.Expression     { return nil }
func (d *DataSourceRelation) WithNewExpressions(exprs []expr.Expression) LogicalPlan {
	return d
}
func (d *DataSourceRelation) Resolved() bool { return true }
func (d *DataSourceRelation) SimpleString() string {
	s := fmt.Sprintf("Relation[%s] %s", d.Name, attrsString(d.Attrs))
	if len(d.PushedColumns) > 0 {
		s += fmt.Sprintf(" pruned=%v", d.PushedColumns)
	}
	if len(d.PushedFilters) > 0 {
		s += fmt.Sprintf(" pushed=%v", d.PushedFilters)
	}
	if len(d.PushedPredicates) > 0 {
		s += fmt.Sprintf(" pushedExprs=%v", d.PushedPredicates)
	}
	return s
}
func (d *DataSourceRelation) String() string { return Format(d) }

// InMemoryRelation scans the columnar cache built by DataFrame.Cache()
// (paper §3.6).
type InMemoryRelation struct {
	Attrs       []*expr.AttributeReference
	Table       *columnar.CachedTable
	SizeInBytes int64
	RowCount    int64
	// PrunedOrdinals, when non-nil, restricts the scan to these column
	// ordinals of the cached table (Attrs is already pruned to match) —
	// the "only scanning the age column" optimization of paper §3.1.
	PrunedOrdinals []int
	// TableStats carries per-column statistics collected while building
	// the columnar cache (nil for pre-statistics relations).
	TableStats *stats.Table
	// Origin names the persistent store table this relation is a pinned
	// version of ("" for cached query results and other in-memory tables).
	// Queries holding an Origin relation read that exact version — the
	// snapshot-isolation pin — and the engine checks it against the store's
	// current version before shipping a query to cluster workers.
	Origin string
}

func (m *InMemoryRelation) Children() []LogicalPlan { return nil }
func (m *InMemoryRelation) WithNewChildren(children []LogicalPlan) LogicalPlan {
	return m
}
func (m *InMemoryRelation) Output() []*expr.AttributeReference { return m.Attrs }
func (m *InMemoryRelation) Expressions() []expr.Expression     { return nil }
func (m *InMemoryRelation) WithNewExpressions(exprs []expr.Expression) LogicalPlan {
	return m
}
func (m *InMemoryRelation) Resolved() bool { return true }
func (m *InMemoryRelation) SimpleString() string {
	return fmt.Sprintf("InMemoryRelation %s, %d rows, %dB columnar",
		attrsString(m.Attrs), m.RowCount, m.SizeInBytes)
}
func (m *InMemoryRelation) String() string { return Format(m) }

// OneRowRelation is the implicit FROM of `SELECT 1+1`.
type OneRowRelation struct{}

func (o *OneRowRelation) Children() []LogicalPlan { return nil }
func (o *OneRowRelation) WithNewChildren(children []LogicalPlan) LogicalPlan {
	return o
}
func (o *OneRowRelation) Output() []*expr.AttributeReference { return nil }
func (o *OneRowRelation) Expressions() []expr.Expression     { return nil }
func (o *OneRowRelation) WithNewExpressions(exprs []expr.Expression) LogicalPlan {
	return o
}
func (o *OneRowRelation) Resolved() bool       { return true }
func (o *OneRowRelation) SimpleString() string { return "OneRowRelation" }
func (o *OneRowRelation) String() string       { return Format(o) }

func attrsString(attrs []*expr.AttributeReference) string {
	s := "["
	for i, a := range attrs {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s + "]"
}
