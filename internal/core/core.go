// Package core ties the Catalyst phases together (paper Figure 3): a
// QueryExecution carries a query from logical plan through analysis,
// logical optimization and physical planning to RDD execution. The Engine
// owns the catalog and the RDD execution context. Config declares every
// engine knob — the ones the evaluation section's baselines toggle (code
// generation, pipelining, pushdown) and the rest — once: package sparksql
// re-exports it, Engine.Cfg holds it resolved with the optimizer's and the
// planner's views derived from it, and a cluster session ships it to the
// workers as is.
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
	"repro/internal/expr"
	"repro/internal/memory"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
)

// Config selects the engine's operating mode and declares every engine knob
// once. The zero value is invalid; start from DefaultConfig (everything on)
// or SharkConfig (the paper's baseline). A cluster coordinator ships its
// resolved Config to the workers: a field ships unless tagged `json:"-"`.
type Config struct {
	// Codegen compiles expressions to fused closures (paper §4.3.4).
	Codegen bool
	// LogicalOptimization enables the Catalyst optimizer rule batches.
	LogicalOptimization bool
	// SourcePushdown enables projection/filter pushdown into data sources.
	SourcePushdown bool
	// JoinReorder enables cost-based reordering of inner-join chains by
	// estimated output size (uses statistics collected by Cache() or
	// ANALYZE TABLE; without them plans come out unchanged).
	JoinReorder bool
	// PipelineCollapse fuses adjacent projects/filters into one map stage.
	PipelineCollapse bool
	// Vectorized runs fused pipelines over the columnar cache batch-at-a-time
	// with typed vectors and selection vectors instead of row-at-a-time; it
	// requires PipelineCollapse (vectorization applies to fused pipelines).
	Vectorized bool
	// Fusion extends vectorization to whole-stage fusion: aggregation
	// updates and broadcast-join probes run inside the batch pipeline over
	// type-specialized hash tables, never materializing intermediate rows.
	// Requires Vectorized; results are byte-identical either way, and
	// EXPLAIN annotates each candidate operator with `fused: true` or
	// `fallback: <reason>`.
	Fusion bool
	// BroadcastThreshold is the max estimated bytes for a broadcast join
	// side (paper §4.3.3). 0 means the planner default (10 MB).
	BroadcastThreshold int64
	// TargetPartitionBytes is the per-reduce-partition size the planner
	// aims for when it sizes shuffle exchanges from estimated (and, with
	// Adaptive, observed) input bytes. 0 means the planner default (4 MB).
	TargetPartitionBytes int64
	// ShufflePartitions is the reducer count, and a grouped aggregate's
	// hash bucket count (which, unlike its reducer count, decides the
	// order of its result); Parallelism the worker count. 0 resolves to
	// GOMAXPROCS (ShufflePartitions to Parallelism) when the engine is
	// built, and workers receive the resolved counts.
	ShufflePartitions int
	Parallelism       int
	// MemoryBudget bounds each query's execution memory in bytes (0 =
	// unlimited, the default). When set, sorts, aggregation reducers and
	// DISTINCT reserve their buffered state from a per-query pool and spill
	// encoded runs/partitions to the engine's simulated DFS when it is
	// exhausted; EXPLAIN ANALYZE reports `spilled: N B, R runs` per
	// operator. A shuffled join holds its reduce partition and hash table
	// unreserved, and a join side broadcasts only under half the budget.
	// Results are byte-identical to the unbounded path at any budget.
	MemoryBudget int64

	// The knobs below are process-local: they shape how this process runs
	// its queries, not which plan a query gets, and never ship.

	// QueryTimeout, when positive, bounds every query execution under this
	// context: a query exceeding it is cancelled (all in-flight and
	// pending tasks torn down) and returns context.DeadlineExceeded.
	QueryTimeout time.Duration `json:"-"`
	// Speculation enables straggler mitigation: a task running longer than
	// SpeculationMultiplier × the job's median completed-task time gets a
	// backup attempt and the first finisher wins. Off by default — backup
	// attempts recompute partitions, which perturbs task-count metrics.
	Speculation bool `json:"-"`
	// SpeculationMultiplier is the straggler threshold (0 = default 3x).
	SpeculationMultiplier float64 `json:"-"`
	// Metrics enables per-operator instrumentation (rows, batches, build
	// sizes, wall time per exec node) read back by EXPLAIN ANALYZE. The
	// cost is a few atomic adds per partition — never per row — so it is
	// on by default; EXPLAIN ANALYZE forces it on for its own run even
	// when disabled here.
	Metrics bool `json:"-"`
	// Adaptive enables adaptive query execution (Spark 3.x AQE): plans are
	// split at their exchanges into a stage DAG, each stage's observed
	// output statistics feed a re-planning step — shuffle partition counts
	// coalesce to the observed data size, broadcast joins demote when the
	// build side blows past its estimate (and shuffled joins promote when
	// an input turns out tiny), and skewed reduce partitions split into
	// parallel chunks. On by default; results are byte-identical with it
	// on or off, and off reproduces today's static plans exactly. EXPLAIN
	// ANALYZE records every decision as `adapted: <from> -> <to> (<reason>)`.
	// Workers never adapt: they replay the coordinator's decisions.
	Adaptive bool `json:"-"`
	// SkewFactor is the multiple of the mean reduce-bucket size above which
	// adaptive execution splits a skewed partition (0 = default 4x).
	SkewFactor float64 `json:"-"`
	// Observability enables distributed query observability (on by
	// default): every query action gets a trace id threaded through its
	// spans, completed actions append to the query event log (SHOW
	// HISTORY, /history), and under a cluster the id ships in task specs
	// so worker-side spans and counters merge back with attribution. Off,
	// no trace id ships, worker replies carry rows only, and every result
	// is identical.
	Observability bool `json:"-"`
	// DataDir, when set, makes persistent tables durable: the table store's
	// write-ahead log and checkpoints mirror to this host directory, and a
	// new context on the same directory recovers every committed
	// transaction (crash recovery replays the WAL past the last
	// checkpoint). Empty means persistent tables live for the process only.
	DataDir string `json:"-"`
	// StatsRefreshRows is the minimum DML row-delta before a commit to a
	// persistent table automatically recomputes its optimizer statistics
	// (0 = default 256; negative = only ANALYZE TABLE refreshes). Large
	// tables additionally require ~12.5% drift so sustained ingest never
	// goes quadratic on stats recomputes.
	StatsRefreshRows int64 `json:"-"`
	// CheckpointBytes bounds WAL growth for persistent tables: once a
	// segment exceeds this many bytes the store checkpoints and truncates
	// the log (0 = default 4 MB; negative = never automatically).
	CheckpointBytes int64 `json:"-"`
	// Cluster, when non-nil, starts a coordinator for multi-process
	// distributed execution: worker processes (cmd/sqlworker, or any
	// process calling sqlexec.RunWorker) register over TCP and SQL query
	// partitions are dispatched to them, with worker loss recovered
	// through the rdd layer's ordinary retry/lineage machinery. With no
	// workers registered — or Cluster nil — execution is byte-identical
	// to the purely local engine.
	Cluster *ClusterOptions `json:"-"`
}

// DefaultConfig enables the full Spark SQL feature set.
func DefaultConfig() Config {
	return Config{
		Codegen:             true,
		LogicalOptimization: true,
		SourcePushdown:      true,
		JoinReorder:         true,
		PipelineCollapse:    true,
		Vectorized:          true,
		Fusion:              true,
		BroadcastThreshold:  10 << 20,
		Metrics:             true,
		Adaptive:            true,
		Observability:       true,
	}
}

// SharkConfig models the paper's Shark baseline, the one Figures 4 and 8
// measure: same engine and storage, but no Catalyst code generation, no
// pipelining or vectorization, and no pushdown into data sources — the
// features §6.1 credits for Spark SQL's win over Shark. The other logical
// optimizations, DecimalAggregates among them, stay on.
func SharkConfig() Config {
	cfg := DefaultConfig()
	cfg.Codegen = false
	cfg.SourcePushdown = false
	cfg.PipelineCollapse = false
	cfg.Vectorized = false
	cfg.Fusion = false
	return cfg
}

// Resolved is a Config with its defaults filled in (the resolved
// Parallelism and ShufflePartitions) plus the two per-layer views derived
// from it, which the optimizer and the physical planner read.
type Resolved struct {
	Config
	Optimizer optimizer.Config
	Planner   physical.PlannerConfig
}

// resolve fills in c's defaults and derives the optimizer's and the
// planner's views from the flat knobs — the one place that does.
func (c Config) resolve() Resolved {
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.ShufflePartitions <= 0 {
		c.ShufflePartitions = c.Parallelism
	}
	opt := optimizer.DefaultConfig()
	if !c.LogicalOptimization {
		opt.ExpressionOptimization = false
		opt.PlanOptimization = false
		opt.DecimalAggregates = false
	}
	opt.SourcePushdown = c.SourcePushdown && c.LogicalOptimization
	opt.JoinReorder = c.JoinReorder && c.LogicalOptimization
	pcfg := physical.DefaultPlannerConfig()
	pcfg.CollapsePipelines = c.PipelineCollapse
	pcfg.Vectorize = c.Vectorized && c.PipelineCollapse
	pcfg.Fuse = c.Fusion && c.Vectorized && c.PipelineCollapse
	if c.BroadcastThreshold > 0 {
		pcfg.BroadcastThreshold = c.BroadcastThreshold
	}
	if c.TargetPartitionBytes > 0 {
		pcfg.TargetPartitionBytes = c.TargetPartitionBytes
	}
	pcfg.MemoryBudget = c.MemoryBudget
	pcfg.SkewFactor = c.SkewFactor
	return Resolved{Config: c, Optimizer: opt, Planner: pcfg}
}

// Engine is the shared query-execution machinery under a Context.
type Engine struct {
	Catalog *analysis.Catalog
	RDDCtx  *rdd.Context
	Cfg     Resolved
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
func NewEngine(flat Config) *Engine {
	cfg := flat.resolve()
	pl := physical.NewPlanner(cfg.Planner)
	pl.TranslateFilter = optimizer.TranslateFilter
	rddCtx := rdd.NewContext(cfg.Parallelism)
	if cfg.Speculation {
		rddCtx.SetSpeculation(true, cfg.SpeculationMultiplier, 0)
	}
	// A rule batch that stops at its iteration bound without a fixed point,
	// the optimizer's, an analyzer's (newAnalyzer) or the planner's
	// preparation batch, is counted.
	opt := optimizer.New(cfg.Optimizer)
	unconverged := rddCtx.Metrics().Counter("catalyst.batches.unconverged")
	opt.Exec.OnMaxIterations = func(string, int) { unconverged.Add(1) }
	pl.Prepare.OnMaxIterations = opt.Exec.OnMaxIterations
	return &Engine{
		Catalog: analysis.NewCatalog(),
		RDDCtx:  rddCtx,
		Cfg:     cfg,
		SpillFS: dfs.New(),
		Events:  NewEventLog(),
		planner: pl,
		opt:     opt,
	}
}

// newAnalyzer is the analyzer of one Analyze call.
func (e *Engine) newAnalyzer() *analysis.Analyzer {
	a := analysis.NewAnalyzer(e.Catalog)
	a.Exec.OnMaxIterations = e.opt.Exec.OnMaxIterations
	return a
}

// AddStrategy registers a custom planner strategy (the §7 extension point).
func (e *Engine) AddStrategy(s physical.Strategy) {
	e.planner.Strategies = append(e.planner.Strategies, s)
}

// Analyze resolves a logical plan against the catalog.
func (e *Engine) Analyze(lp plan.LogicalPlan) (plan.LogicalPlan, error) {
	return e.newAnalyzer().Analyze(lp)
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
	// Executed is the adaptively re-planned tree (stage barriers in place, or
	// none where recorded decisions were replayed) once a query action has
	// run with Config.Adaptive on; nil means the static Physical plan is (or
	// will be) what executes. Decisions is the
	// rewrite list that derives Executed from Physical — the coordinator
	// ships it so workers reproduce the identical adapted plan.
	Executed  physical.SparkPlan
	Decisions []physical.Decision
	// hash is the fingerprint of hashOf, the last executed plan hashed.
	hashOf physical.SparkPlan
	hash   uint64
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
	e.RDDCtx.Metrics().Counter("query.planned").Inc()
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
		RDD:               e.RDDCtx,
		Codegen:           e.Cfg.Codegen,
		ShufflePartitions: e.Cfg.ShufflePartitions,
		Planner:           e.Cfg.Planner,
		Metrics:           e.Cfg.Metrics,
		Adaptive:          e.Cfg.Adaptive,
	}
	if e.Cfg.MemoryBudget > 0 {
		ec.Pool = memory.NewPool(e.Cfg.MemoryBudget, e.RDDCtx.Metrics().Scoped("memory"))
		ec.SpillFS = e.SpillFS
	}
	return ec
}

// RDD lazily builds the result RDD under lazyExecContext.
func (q *QueryExecution) RDD() *rdd.RDD[row.Row] {
	return q.Physical.Execute(q.engine.lazyExecContext())
}

// lazyExecContext is the context a lazy RDD handle executes under. It has no
// memory pool: spill lifecycle needs a query scope to clean up after, which a
// bare RDD handed to arbitrary caller code does not have, so operators run
// their unbounded in-memory paths. It does not adapt either: adaptation is
// eager (it materializes stages under a job context).
func (e *Engine) lazyExecContext() *physical.ExecContext {
	ec := e.ExecContext()
	ec.Pool, ec.SpillFS, ec.Adaptive = nil, nil, false
	return ec
}

// prepare resolves the plan a query action executes: with adaptation off it
// is the static Physical plan untouched; with adaptation on the adaptive
// driver materializes stages bottom-up and re-plans from observed
// statistics. The adapted tree and its decision list are memoized so every
// action of this QueryExecution (and the cluster path) runs one plan.
func (q *QueryExecution) prepare(jc context.Context, ec *physical.ExecContext) (physical.SparkPlan, error) {
	if !ec.Adaptive {
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
	return q.CollectN(context.Background(), 0)
}

// CollectN is Collect under a caller context (cancelling it, or QueryTimeout
// expiring, tears down the query's tasks and returns the context error) and
// capped at n rows when n > 0: partitions are read in order, as by a LIMIT n.
func (q *QueryExecution) CollectN(ctx context.Context, n int) (rows []row.Row, err error) {
	_, err = q.action(ctx, "collect", func(jc context.Context, ec *physical.ExecContext, p physical.SparkPlan) (int64, error) {
		rows, _, err = q.collect(jc, ec, p, n)
		return int64(len(rows)), err
	})
	return rows, err
}

// action runs an action over the executing plan with a fresh ExecContext
// (metrics on for EXPLAIN ANALYZE), the timeout, the event log and cleanup.
func (q *QueryExecution) action(ctx context.Context, name string,
	run func(jc context.Context, ec *physical.ExecContext, p physical.SparkPlan) (int64, error)) (int64, error) {
	ec := q.engine.ExecContext()
	ec.Metrics = ec.Metrics || name == "explain-analyze"
	defer ec.CleanupSpills()
	jc, cancel := q.engine.queryContext(ctx)
	defer cancel()
	jc, tid := q.engine.beginQuery(jc)
	start := time.Now()
	p, err := q.prepare(jc, ec)
	var n int64
	if err == nil {
		n, err = run(jc, ec, p)
	}
	q.finishEvent(tid, name, start, n, err)
	return n, err
}

// collect runs the executing plan p and returns its rows (the first n when
// n > 0) and how many tasks boxed them — a batch top's, each output batch into
// an arena, the headers cut here once — or -1 when they were copied.
func (q *QueryExecution) collect(jc context.Context, ec *physical.ExecContext, p physical.SparkPlan, n int) ([]row.Row, int, error) {
	reg := q.engine.RDDCtx.Metrics()
	top, ok := p.(physical.BatchTop)
	if !ok {
		rows, err := take(jc, p.Execute(ec), n)
		reg.Counter("result.rows.copied").Add(int64(len(rows)))
		return rows, -1, err
	}
	r := top.Results(ec, physical.BoxSink)
	arenas, err := take(jc, r, n)
	if err != nil {
		return nil, 0, err
	}
	rows := expr.CutRows(arenas)
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	reg.Counter("result.rows.boxed").Add(int64(len(rows)))
	return rows, r.NumPartitions(), nil
}

// take collects r, or its first n records when n > 0.
func take[T any](jc context.Context, r *rdd.RDD[T], n int) ([]T, error) {
	if n > 0 {
		return rdd.TakeContext(jc, r, n)
	}
	return r.CollectContext(jc)
}

// Count counts result rows without materializing them centrally.
func (q *QueryExecution) Count() (int64, error) {
	return q.CountContext(context.Background())
}

// CountContext is Count under a caller context; a batch top boxes nothing.
func (q *QueryExecution) CountContext(ctx context.Context) (int64, error) {
	return q.action(ctx, "count", func(jc context.Context, ec *physical.ExecContext, p physical.SparkPlan) (int64, error) {
		if top, ok := p.(physical.BatchTop); ok {
			return top.Results(ec, physical.CountSink).CountContext(jc)
		}
		return p.Execute(ec).CountContext(jc)
	})
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
	var sb strings.Builder
	var tid string
	start := time.Now()
	_, err := q.action(ctx, "explain-analyze", func(jc context.Context, ec *physical.ExecContext, p physical.SparkPlan) (int64, error) {
		tid = rdd.TraceID(jc)
		rows, tasks, err := q.collect(jc, ec, p, 0)
		how := fmt.Sprintf("boxed in %d tasks", tasks)
		if tasks < 0 {
			how = "copied from " + strings.Fields(p.SimpleString())[0] + " rows"
		}
		fmt.Fprintf(&sb, "== Optimized Plan ==\n%s== Physical Plan ==\n%s== Runtime ==\nresult: %d rows in %.1f ms, %s\n",
			plan.FormatEstimated(q.Optimized), p, len(rows), float64(time.Since(start).Microseconds())/1e3, how)
		return int64(len(rows)), err
	})
	if err != nil {
		return "", err
	}
	if q.engine.cluster != nil {
		sb.WriteString("== Cluster ==\n")
		sb.WriteString(q.engine.cluster.ClusterSummaryFor(tid))
	}
	return sb.String(), nil
}

// planNoise matches what differs between two renderings of one plan: the
// per-process expression IDs (#42), and the runtime "(actual: ...)" and
// adaptive "(adapted: <from> -> <to> (<reason>))" and "(not adapted:
// <reason>)" annotations. Adaptive reasons nest one paren level (and a skewed
// join can carry two adapted segments in one annotation), so their body admits
// any run of non-paren text or single-level groups.
var planNoise = regexp.MustCompile(`#\d+|  \((?:actual: [^)]*|(?:not )?adapted: (?:[^()]|\([^()]*\))*)\)`)

// denoise keeps an ID's "#" and drops an annotation.
func denoise(m string) string {
	if m[0] == '#' {
		return "#"
	}
	return ""
}

// PlanHash returns a stable FNV-1a fingerprint of the physical plan with
// expression IDs normalized out, so identical statements (and identical
// plan shapes) hash alike across executions — the query log's correlation
// key for "which plan ran". Runtime annotations (actuals, adapted notes)
// are stripped: two runs of one adapted plan shape hash alike even when
// the observed byte counts in their notes differ.
func (q *QueryExecution) PlanHash() uint64 {
	p := q.executedPlan()
	return q.planHash(p, p.String)
}

// planHash is p's fingerprint, rendered by text and hashed once per executed
// plan: unless p is the plan hashed last.
func (q *QueryExecution) planHash(p physical.SparkPlan, text func() string) uint64 {
	if q.hashOf != p {
		q.engine.RDDCtx.Metrics().Counter("query.plan.hashed").Inc()
		h := fnv.New64a()
		h.Write([]byte(planNoise.ReplaceAllStringFunc(text(), denoise)))
		q.hashOf, q.hash = p, h.Sum64()
	}
	return q.hash
}
