// Package core ties the Catalyst phases together (paper Figure 3): a
// QueryExecution carries a query from logical plan through analysis,
// logical optimization and physical planning to RDD execution. The Engine
// owns the catalog, the RDD execution context and the configuration knobs
// that the evaluation section's baselines toggle (code generation, logical
// optimization, pipelining, pushdown).
package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/dfs"
	"repro/internal/memory"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
)

// Config selects an engine operating mode.
type Config struct {
	// Codegen compiles expressions to fused closures (the paper's §4.3.4
	// code generation); false falls back to the tree-walking interpreter.
	Codegen bool
	// Optimizer toggles logical optimization groups.
	Optimizer optimizer.Config
	// Planner carries physical-planning knobs (broadcast threshold,
	// pipeline collapse).
	Planner physical.PlannerConfig
	// ShufflePartitions is the reducer count for exchanges.
	ShufflePartitions int
	// Parallelism is the task concurrency (defaults to GOMAXPROCS).
	Parallelism int
	// QueryTimeout, when positive, bounds each query execution; a query
	// exceeding it is cancelled (all in-flight and pending tasks torn
	// down) and returns context.DeadlineExceeded.
	QueryTimeout time.Duration
	// Speculation enables straggler mitigation: a task running longer
	// than SpeculationMultiplier × the job's median completed-task time
	// gets a backup attempt, and the first finisher wins.
	Speculation bool
	// SpeculationMultiplier is the straggler threshold (0 = default 3x).
	SpeculationMultiplier float64
	// SpeculationMin is the minimum elapsed time before a task may be
	// considered a straggler (0 = default).
	SpeculationMin time.Duration
	// Metrics enables per-operator instrumentation: every physical exec
	// node records rows, batches, build sizes and wall time per partition
	// into its PlanMetrics embed, which EXPLAIN ANALYZE reads back. The
	// recording cost is a few atomic adds per partition (never per row),
	// cheap enough to leave on; EXPLAIN ANALYZE forces it on regardless.
	Metrics bool
	// MemoryBudget bounds each query's execution memory (bytes; zero =
	// unlimited). When set, every query runs under a memory pool: blocking
	// operators (sort, aggregation, sort-merge join, distinct) reserve
	// their buffered state through it and spill encoded runs/partitions to
	// the engine's spill DFS when the pool is exhausted, with results
	// byte-identical to the unbounded path.
	MemoryBudget int64
	// Adaptive enables adaptive query execution: plans split into a stage
	// DAG at their exchanges, stages materialize bottom-up, and observed
	// output statistics drive re-planning (partition coalescing,
	// broadcast promotion/demotion, skew-split). Off, plans and results
	// are byte-identical to static execution.
	Adaptive bool
	// SkewFactor is the multiple of the mean reduce-bucket size above which
	// adaptive execution splits a skewed partition (0 = default 4x).
	SkewFactor float64
	// Observability enables distributed query observability: each action
	// gets a trace id threaded through its job context (and, under a
	// cluster, shipped in task specs so worker spans merge back with
	// attribution), and completed actions append to the engine's query
	// event log. Off, task payloads and replies are byte-identical to an
	// engine without this layer.
	Observability bool
}

// DefaultConfig is the full Spark SQL feature set.
func DefaultConfig() Config {
	return Config{
		Codegen:           true,
		Optimizer:         optimizer.DefaultConfig(),
		Planner:           physical.DefaultPlannerConfig(),
		ShufflePartitions: runtime.GOMAXPROCS(0),
		Parallelism:       runtime.GOMAXPROCS(0),
		Metrics:           true,
		Adaptive:          true,
		Observability:     true,
	}
}

// SharkConfig models the paper's Shark baseline: same engine and storage,
// but no Catalyst code generation, no whole-stage pipelining, and no
// pushdown into data sources — the features §6.1 credits for Spark SQL's
// win over Shark.
func SharkConfig() Config {
	cfg := DefaultConfig()
	cfg.Codegen = false
	cfg.Planner.CollapsePipelines = false
	cfg.Planner.Vectorize = false
	cfg.Optimizer.SourcePushdown = false
	cfg.Optimizer.DecimalAggregates = false
	return cfg
}

// Engine is the shared query-execution machinery under a Context.
type Engine struct {
	Catalog *analysis.Catalog
	RDDCtx  *rdd.Context
	Cfg     Config
	// SpillFS receives operator spill files when MemoryBudget is set — a
	// simulated DFS shared by all queries so spill I/O is metered and
	// fault-injectable like any other file traffic.
	SpillFS *dfs.FileSystem
	// Events is the append-only query event log (eventlog.go); populated
	// only when Cfg.Observability is on, but always non-nil so history
	// surfaces are unconditional.
	Events  *EventLog
	planner *physical.Planner
	opt     *optimizer.Optimizer
	// cluster is the distributed-execution runtime (nil = local engine);
	// see cluster.go and EnableCluster.
	cluster *ClusterRuntime
	// traceSeq numbers this engine's query traces.
	traceSeq atomic.Uint64
}

// NewEngine builds an engine with the given configuration.
func NewEngine(cfg Config) *Engine {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.ShufflePartitions <= 0 {
		cfg.ShufflePartitions = cfg.Parallelism
	}
	cfg.Planner.MemoryBudget = cfg.MemoryBudget
	pl := physical.NewPlanner(cfg.Planner)
	pl.TranslateFilter = optimizer.TranslateFilter
	rddCtx := rdd.NewContext(cfg.Parallelism)
	if cfg.Speculation {
		rddCtx.SetSpeculation(true, cfg.SpeculationMultiplier, cfg.SpeculationMin)
	}
	return &Engine{
		Catalog: analysis.NewCatalog(),
		RDDCtx:  rddCtx,
		Cfg:     cfg,
		SpillFS: dfs.New(),
		Events:  NewEventLog(),
		planner: pl,
		opt:     optimizer.New(cfg.Optimizer),
	}
}

// AddStrategy registers a custom planner strategy (the §7 extension point).
func (e *Engine) AddStrategy(s physical.Strategy) {
	e.planner.Strategies = append(e.planner.Strategies, s)
}

// Analyze resolves a logical plan against the catalog.
func (e *Engine) Analyze(lp plan.LogicalPlan) (plan.LogicalPlan, error) {
	return analysis.Analyze(e.Catalog, lp)
}

// QueryExecution is the Figure 3 pipeline for one query, with every
// intermediate plan retained for EXPLAIN and tests.
type QueryExecution struct {
	engine    *Engine
	Logical   plan.LogicalPlan
	Analyzed  plan.LogicalPlan
	Optimized plan.LogicalPlan
	Physical  physical.SparkPlan
	// SQLText is the statement this execution came from (""
	// for programmatically built plans); the event log records it.
	SQLText string
	// Executed is the adaptively re-planned tree (stage barriers in place)
	// once a query action has run with Config.Adaptive on; nil means the
	// static Physical plan is (or will be) what executes. Decisions is the
	// rewrite list that derives Executed from Physical — the coordinator
	// ships it so workers reproduce the identical adapted plan.
	Executed  physical.SparkPlan
	Decisions []physical.Decision
}

// Execute runs analysis, optimization and physical planning.
func (e *Engine) Execute(lp plan.LogicalPlan) (*QueryExecution, error) {
	analyzed, err := e.Analyze(lp)
	if err != nil {
		return nil, err
	}
	return e.ExecuteResolved(lp, analyzed)
}

// ExecuteResolved runs optimization and physical planning over an
// already-analyzed plan, keeping logical as the pre-resolution tree for
// EXPLAIN. DataFrames use it so an action executes against the exact
// relation versions its eager analysis resolved — for persistent store
// tables, that pin is what makes reads snapshot-isolated against
// concurrent DML.
func (e *Engine) ExecuteResolved(logical, analyzed plan.LogicalPlan) (*QueryExecution, error) {
	optimized, err := e.opt.Optimize(analyzed)
	if err != nil {
		return nil, fmt.Errorf("core: optimization: %w", err)
	}
	phys, err := e.planner.Plan(optimized)
	if err != nil {
		return nil, fmt.Errorf("core: physical planning: %w", err)
	}
	return &QueryExecution{
		engine:    e,
		Logical:   logical,
		Analyzed:  analyzed,
		Optimized: optimized,
		Physical:  phys,
	}, nil
}

// ExecContext builds the physical execution context. With a MemoryBudget
// configured it attaches a fresh per-query memory pool and the engine's
// spill DFS; the caller then owns spill-file cleanup (CleanupSpills), which
// Collect/Count/ExplainAnalyze defer.
func (e *Engine) ExecContext() *physical.ExecContext {
	ec := &physical.ExecContext{
		RDD:                  e.RDDCtx,
		Codegen:              e.Cfg.Codegen,
		ShufflePartitions:    e.Cfg.ShufflePartitions,
		TargetPartitionBytes: e.Cfg.Planner.TargetPartitionBytes,
		Metrics:              e.Cfg.Metrics,
	}
	if e.Cfg.Adaptive {
		ec.Adaptive = &physical.AdaptiveConfig{
			BroadcastThreshold: e.Cfg.Planner.BroadcastThreshold,
			MemoryBudget:       e.Cfg.MemoryBudget,
			SkewFactor:         e.Cfg.SkewFactor,
		}
	}
	if e.Cfg.MemoryBudget > 0 {
		ec.Pool = memory.NewPool(e.Cfg.MemoryBudget, e.RDDCtx.Metrics().Scoped("memory"))
		ec.SpillFS = e.SpillFS
	}
	return ec
}

// RDD lazily builds the result RDD. The context it executes under has no
// memory pool: spill lifecycle needs a query scope to clean up after, which
// a bare RDD handed to arbitrary caller code does not have. Operators run
// their unbounded in-memory paths, exactly as before memory management.
func (q *QueryExecution) RDD() *rdd.RDD[row.Row] {
	ec := q.engine.ExecContext()
	ec.Pool = nil
	ec.SpillFS = nil
	// Adaptation is eager (it materializes stages under a job context); a
	// lazy RDD handle executes the static plan.
	ec.Adaptive = nil
	return q.Physical.Execute(ec)
}

// prepare resolves the plan a query action executes: with adaptation off it
// is the static Physical plan untouched; with adaptation on the adaptive
// driver materializes stages bottom-up and re-plans from observed
// statistics. The adapted tree and its decision list are memoized so every
// action of this QueryExecution (and the cluster path) runs one plan.
func (q *QueryExecution) prepare(jc context.Context, ec *physical.ExecContext) (physical.SparkPlan, error) {
	if ec.Adaptive == nil {
		return q.Physical, nil
	}
	if q.Executed != nil {
		return q.Executed, nil
	}
	adapted, decisions, err := physical.AdaptPlan(jc, ec, q.Physical)
	if err != nil {
		return nil, err
	}
	q.Executed = adapted
	q.Decisions = decisions
	return adapted, nil
}

// executedPlan is the plan that runs (or ran): the adapted tree when
// adaptation produced one, the static plan otherwise.
func (q *QueryExecution) executedPlan() physical.SparkPlan {
	if q.Executed != nil {
		return q.Executed
	}
	return q.Physical
}

// queryContext derives the job context for one query execution, applying
// the engine's QueryTimeout when set.
func (e *Engine) queryContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.Cfg.QueryTimeout > 0 {
		return context.WithTimeout(ctx, e.Cfg.QueryTimeout)
	}
	return context.WithCancel(ctx)
}

// Collect materializes the full result. Task failures (including recovered
// compute panics) surface as a *rdd.JobError; no recover wrapper is needed
// because no panic crosses the rdd boundary for task failures.
func (q *QueryExecution) Collect() ([]row.Row, error) {
	return q.CollectContext(context.Background())
}

// CollectContext is Collect under a caller context: cancelling it (or the
// engine's QueryTimeout expiring) tears down all in-flight and pending
// tasks and returns the context error.
func (q *QueryExecution) CollectContext(ctx context.Context) ([]row.Row, error) {
	ec := q.engine.ExecContext()
	defer ec.CleanupSpills()
	jc, cancel := q.engine.queryContext(ctx)
	defer cancel()
	jc, tid := q.engine.beginQuery(jc)
	start := time.Now()
	p, err := q.prepare(jc, ec)
	if err != nil {
		q.finishEvent(tid, "collect", start, 0, err)
		return nil, err
	}
	rows, err := p.Execute(ec).CollectContext(jc)
	q.finishEvent(tid, "collect", start, int64(len(rows)), err)
	return rows, err
}

// Count counts result rows without materializing them centrally.
func (q *QueryExecution) Count() (int64, error) {
	return q.CountContext(context.Background())
}

// CountContext is Count under a caller context.
func (q *QueryExecution) CountContext(ctx context.Context) (int64, error) {
	ec := q.engine.ExecContext()
	defer ec.CleanupSpills()
	jc, cancel := q.engine.queryContext(ctx)
	defer cancel()
	jc, tid := q.engine.beginQuery(jc)
	start := time.Now()
	p, err := q.prepare(jc, ec)
	if err != nil {
		q.finishEvent(tid, "count", start, 0, err)
		return 0, err
	}
	n, err := p.Execute(ec).CountContext(jc)
	q.finishEvent(tid, "count", start, n, err)
	return n, err
}

// Explain renders all plan phases.
func (q *QueryExecution) Explain() string {
	var sb strings.Builder
	sb.WriteString("== Logical Plan ==\n")
	sb.WriteString(q.Logical.String())
	sb.WriteString("== Analyzed Plan ==\n")
	sb.WriteString(plan.FormatEstimated(q.Analyzed))
	sb.WriteString("== Optimized Plan ==\n")
	sb.WriteString(plan.FormatEstimated(q.Optimized))
	sb.WriteString("== Physical Plan ==\n")
	sb.WriteString(q.Physical.String())
	return sb.String()
}

// ExplainAnalyze is ExplainAnalyzeContext under a background context.
func (q *QueryExecution) ExplainAnalyze() (string, error) {
	return q.ExplainAnalyzeContext(context.Background())
}

// ExplainAnalyzeContext runs the query with per-operator instrumentation
// forced on (regardless of Config.Metrics) and renders the optimized plan
// with cardinality estimates and the physical plan annotated with both
// `est:` (the CBO's prediction) and `actual:` (what the run measured) per
// node — the feedback loop that confronts estimates with reality — plus a
// runtime summary of the result cardinality and wall time.
func (q *QueryExecution) ExplainAnalyzeContext(ctx context.Context) (string, error) {
	ec := q.engine.ExecContext()
	ec.Metrics = true
	defer ec.CleanupSpills()
	jc, cancel := q.engine.queryContext(ctx)
	defer cancel()
	jc, tid := q.engine.beginQuery(jc)
	start := time.Now()
	p, err := q.prepare(jc, ec)
	if err != nil {
		q.finishEvent(tid, "explain-analyze", start, 0, err)
		return "", err
	}
	rows, err := p.Execute(ec).CollectContext(jc)
	q.finishEvent(tid, "explain-analyze", start, int64(len(rows)), err)
	if err != nil {
		return "", err
	}
	elapsed := time.Since(start)
	var sb strings.Builder
	sb.WriteString("== Optimized Plan ==\n")
	sb.WriteString(plan.FormatEstimated(q.Optimized))
	sb.WriteString("== Physical Plan ==\n")
	sb.WriteString(p.String())
	fmt.Fprintf(&sb, "== Runtime ==\nresult: %d rows in %.1f ms\n",
		len(rows), float64(elapsed.Microseconds())/1e3)
	if q.engine.cluster != nil {
		sb.WriteString("== Cluster ==\n")
		sb.WriteString(q.engine.cluster.ClusterSummary())
	}
	return sb.String(), nil
}

// planIDs matches the per-process unique expression IDs (#42) that differ
// between two plannings of the same query text.
var planIDs = regexp.MustCompile(`#\d+`)

// planActuals matches the runtime "(actual: ...)" annotations that
// instrumentation appends to operator strings once a plan has executed;
// they must not perturb the plan fingerprint.
var planActuals = regexp.MustCompile(`  \(actual: [^)]*\)`)

// planAdapted matches the adaptive "(adapted: <from> -> <to> (<reason>))"
// annotations. Unlike actuals, reasons nest one paren level (and a skewed
// join can carry two adapted segments in one annotation), so the body
// admits any run of non-paren text or single-level groups.
var planAdapted = regexp.MustCompile(`  \(adapted: (?:[^()]|\([^()]*\))*\)`)

// PlanHash returns a stable FNV-1a fingerprint of the physical plan with
// expression IDs normalized out, so identical statements (and identical
// plan shapes) hash alike across executions — the query log's correlation
// key for "which plan ran". Runtime annotations (actuals, adapted notes)
// are stripped: two runs of one adapted plan shape hash alike even when
// the observed byte counts in their notes differ.
func (q *QueryExecution) PlanHash() uint64 {
	h := fnv.New64a()
	norm := planIDs.ReplaceAllString(q.executedPlan().String(), "#")
	norm = planActuals.ReplaceAllString(norm, "")
	norm = planAdapted.ReplaceAllString(norm, "")
	h.Write([]byte(norm))
	return h.Sum64()
}
