// Package physical implements physical planning and execution (paper
// §4.3.3): strategies translate an optimized logical plan into physical
// operators over the RDD engine, with a cost model selecting broadcast
// versus shuffled hash joins, and a choice between compiled (closure-fused)
// and interpreted expression evaluation (§4.3.4). A SparkPlan is a
// catalyst.TreeNode: the preparation rules that pipeline projections and
// filters into one map operation, vectorize it and fuse it into its sink
// are catalyst.TransformUp bodies, run as one fixed-point batch of the
// planner's RuleExecutor (Planner.Prepare).
package physical

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/columnar"
	"repro/internal/dfs"
	"repro/internal/expr"
	"repro/internal/memory"
	"repro/internal/rdd"
	"repro/internal/row"
)

// ExecContext carries execution-wide configuration.
type ExecContext struct {
	// RDD is the task execution context.
	RDD *rdd.Context
	// Codegen selects compiled closures (true) or the tree-walking
	// interpreter (false) for expression evaluation — the Figure 4 knob.
	Codegen bool
	// ShufflePartitions is the reducer count for exchanges, and the number
	// of hash buckets a grouped aggregate's phase 1 splits its groups into.
	ShufflePartitions int
	// Planner is the config the plan was made under: adaptive re-planning
	// prices from it, and a batch pipeline cuts its leaf's small partitions
	// into task runs by its TargetPartitionBytes (0 = no runs).
	Planner PlannerConfig
	// Metrics enables per-operator instrumentation: each exec node attaches
	// an OperatorMetrics (via its PlanMetrics embed) and records rows,
	// batches and wall time per partition. EXPLAIN ANALYZE reads them back.
	Metrics bool
	// Adaptive enables stage-graph re-planning from runtime statistics
	// (AdaptPlan); false executes the static plan unchanged, byte-identical
	// to pre-adaptive behavior.
	Adaptive bool
	// Pool is the query's memory budget; when non-nil (and SpillFS is set)
	// the blocking operators reserve memory through it and spill sorted
	// runs / hash partitions to SpillFS instead of buffering unbounded.
	Pool *memory.Pool
	// SpillFS receives spill files; typically the engine's shared simulated
	// DFS so spill I/O is metered and chaos-testable like any other file.
	SpillFS *dfs.FileSystem

	// Spill-scope tracking: every task-local spill scope registers its path
	// prefix here so CleanupSpills can sweep stragglers at query end even
	// after cancellation (the per-task defers are the primary cleanup).
	spillSeq      atomic.Int64
	spillMu       sync.Mutex
	spillPrefixes map[string]struct{}
}

// newSpillPrefix reserves a query-unique DFS path prefix for one spill
// scope (one operator instance in one task attempt) and registers it for
// end-of-query cleanup.
func (ctx *ExecContext) newSpillPrefix(op string) string {
	prefix := fmt.Sprintf("/spill/%s-%d", op, ctx.spillSeq.Add(1))
	ctx.spillMu.Lock()
	if ctx.spillPrefixes == nil {
		ctx.spillPrefixes = make(map[string]struct{})
	}
	ctx.spillPrefixes[prefix] = struct{}{}
	ctx.spillMu.Unlock()
	return prefix
}

// releaseSpillPrefix deletes a scope's files and drops its registration.
func (ctx *ExecContext) releaseSpillPrefix(prefix string) {
	if ctx.SpillFS != nil {
		ctx.SpillFS.DeletePrefix(prefix)
	}
	ctx.spillMu.Lock()
	delete(ctx.spillPrefixes, prefix)
	ctx.spillMu.Unlock()
}

// CleanupSpills deletes every spill file still registered — the query-level
// backstop run (deferred) by Collect/Count/ExplainAnalyze so no temp files
// outlive the query, completed or cancelled. Safe to call repeatedly.
func (ctx *ExecContext) CleanupSpills() {
	if ctx.SpillFS == nil {
		return
	}
	ctx.spillMu.Lock()
	prefixes := make([]string, 0, len(ctx.spillPrefixes))
	for p := range ctx.spillPrefixes {
		prefixes = append(prefixes, p)
	}
	ctx.spillPrefixes = nil
	ctx.spillMu.Unlock()
	for _, p := range prefixes {
		ctx.SpillFS.DeletePrefix(p)
	}
}

// evaluator builds a row evaluator for a bound expression honoring the
// codegen setting.
func (ctx *ExecContext) evaluator(e expr.Expression) func(row.Row) any {
	if ctx.Codegen {
		return expr.Compile(e)
	}
	return e.Eval
}

// vecKernel builds a batch kernel for a bound expression, and says whether it
// is native: compiled under codegen, the interpreter lifted to batches (never
// native) without it.
func vecKernel(e expr.Expression, codegen bool) (expr.VecEval, bool) {
	if codegen {
		return expr.CompileVec(e)
	}
	return expr.VecFromScalar(e.Eval, e.DataType()), false
}

// predicate builds a filter (NULL = reject) honoring the codegen setting.
func (ctx *ExecContext) predicate(e expr.Expression) func(row.Row) bool {
	if ctx.Codegen {
		return expr.CompilePredicate(e)
	}
	return func(r row.Row) bool { return e.Eval(r) == true }
}

// SparkPlan is a physical operator. Execute is called once per query; the
// resulting RDD is lazy.
type SparkPlan interface {
	Children() []SparkPlan
	WithNewChildren(children []SparkPlan) SparkPlan
	// Output lists the attributes the operator produces, in row order.
	Output() []*expr.AttributeReference
	// Execute builds the operator's RDD.
	Execute(ctx *ExecContext) *rdd.RDD[row.Row]
	SimpleString() string
	String() string
}

// BatchTop is an operator whose tasks end holding columns: a vectorized
// pipeline, an aggregate's reducers, a fused join. Results runs its one task
// body handing each output batch to sink while the batch's lanes are live, a
// partition being one task's arenas in batch order; its row Execute is the
// BoxSink instance with each task's row headers cut in the task (boxedRows).
type BatchTop interface {
	SparkPlan
	Results(ctx *ExecContext, sink ResultSink) *rdd.RDD[expr.Arena]
}

// ResultSink turns one output batch — its columns and selected positions —
// into what the task keeps of it, retaining neither.
type ResultSink func(cols []*columnar.Vector, sel []int32) expr.Arena

// BoxSink boxes the batch into an arena of its own.
func BoxSink(cols []*columnar.Vector, sel []int32) expr.Arena {
	a := expr.Arena{Cells: make([]any, len(sel)*len(cols)), N: len(sel), W: len(cols)}
	expr.BoxValues(cols, sel, a.Cells)
	return a
}

// CountSink keeps the batch's row count only.
func CountSink(_ []*columnar.Vector, sel []int32) expr.Arena { return expr.Arena{N: len(sel)} }

func boxedRows(top BatchTop, ctx *ExecContext) *rdd.RDD[row.Row] {
	return rdd.MapOutput(top.Results(ctx, BoxSink), expr.CutRows)
}

// Format renders a physical plan subtree with indentation.
func Format(p SparkPlan) string {
	var sb strings.Builder
	writeTree(&sb, p, 0)
	return sb.String()
}

func writeTree(sb *strings.Builder, p SparkPlan, depth int) {
	if qs, ok := p.(*QueryStageExec); ok {
		// Materialization barriers are an execution detail: print the
		// subtree they hold at the same depth, so a stage-materialized
		// tree and the equivalent live tree render identical strings
		// (the cluster plan-hash parity check depends on this).
		writeTree(sb, qs.Child, depth)
		return
	}
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	sb.WriteString(p.SimpleString())
	note := func(s string) {
		if s != "" {
			sb.WriteString("  (")
			sb.WriteString(s)
			sb.WriteString(")")
		}
	}
	if fa, ok := p.(FusionAnnotated); ok {
		note(fa.Fusion())
	}
	if ca, ok := p.(CostAnnotated); ok {
		if est, has := ca.Estimate(); has {
			note(est.EstString())
		}
	}
	if ma, ok := p.(MetricsAnnotated); ok && ma.Runtime() != nil {
		note(ma.Runtime().ActualString())
	}
	if aa, ok := p.(AdaptiveAnnotated); ok {
		note(aa.Adapted())
	}
	sb.WriteByte('\n')
	for _, c := range p.Children() {
		writeTree(sb, c, depth+1)
	}
}

// bind rewrites attributes in e to ordinals of the input attribute list.
func bind(e expr.Expression, input []*expr.AttributeReference) expr.Expression {
	return expr.MustBind(e, input)
}

func bindAll(exprs []expr.Expression, input []*expr.AttributeReference) []expr.Expression {
	out := make([]expr.Expression, len(exprs))
	for i, e := range exprs {
		out[i] = bind(e, input)
	}
	return out
}

func exprListString(exprs []expr.Expression) string {
	parts := make([]string, len(exprs))
	for i, e := range exprs {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

func attrsString(attrs []*expr.AttributeReference) string {
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = a.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
