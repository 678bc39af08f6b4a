package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/catalyst"
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/types"
)

func TestExplainShowsAllPhases(t *testing.T) {
	e := NewEngine(DefaultConfig())
	rel := usersRelation()
	qe, err := e.Execute(&plan.Filter{
		Cond:  expr.GT(rel.Attrs[1], expr.Lit(int32(20))),
		Child: rel,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := qe.Explain()
	for _, section := range []string{"Logical Plan", "Analyzed Plan", "Optimized Plan", "Physical Plan"} {
		if !strings.Contains(out, section) {
			t.Errorf("explain missing %s:\n%s", section, out)
		}
	}
	// All four plan snapshots are retained.
	if qe.Logical == nil || qe.Analyzed == nil || qe.Optimized == nil || qe.Physical == nil {
		t.Fatal("QueryExecution must retain every phase")
	}
}

// A rule batch that stops at its iteration bound without a fixed point is not
// silent: the analyzer's, the optimizer's and the planner's batches count it in
// catalyst.batches.unconverged, which the metrics text (SHOW METRICS, /metrics)
// lists from the start.
func TestUnconvergedBatchesAreCounted(t *testing.T) {
	e := NewEngine(DefaultConfig())
	metricsText := func() string {
		var sb strings.Builder
		e.RDDCtx.Metrics().WriteTextFiltered(&sb, "catalyst.*")
		return sb.String()
	}
	if got := metricsText(); got != "catalyst.batches.unconverged 0\n" {
		t.Fatalf("metrics before any query:\n%s", got)
	}
	// flip wraps the plan in an alias and unwraps it on its next application,
	// so a batch holding it never reaches a fixed point.
	flip := catalyst.Rule[plan.LogicalPlan]{Name: "Flip", Apply: func(p plan.LogicalPlan) plan.LogicalPlan {
		if sq, ok := p.(*plan.SubqueryAlias); ok {
			return sq.Child
		}
		return &plan.SubqueryAlias{Name: "flip", Child: p}
	}}
	rel := usersRelation()
	if _, err := e.Execute(rel); err != nil || metricsText() != "catalyst.batches.unconverged 0\n" {
		t.Fatalf("a converging query: %v\n%s", err, metricsText())
	}

	a := e.newAnalyzer()
	a.Exec.Batches[0].Rules = append(a.Exec.Batches[0].Rules, flip)
	if _, err := a.Analyze(rel); err != nil {
		t.Fatal(err)
	}
	for i, b := range e.opt.Exec.Batches {
		if b.Name == "Operator Optimization" {
			e.opt.Exec.Batches[i].Rules = append(b.Rules, flip)
		}
	}
	// The physical flip wraps the plan in a one-input union and unwraps it.
	e.planner.Prepare.Batches[0].Rules = append(e.planner.Prepare.Batches[0].Rules, catalyst.Rule[physical.SparkPlan]{
		Name: "Flip", Apply: func(p physical.SparkPlan) physical.SparkPlan {
			if u, ok := p.(*physical.UnionExec); ok && len(u.Kids) == 1 {
				return u.Kids[0]
			}
			return &physical.UnionExec{Kids: []physical.SparkPlan{p}}
		}})
	qe, err := e.Execute(rel)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricsText(); got != "catalyst.batches.unconverged 3\n" {
		t.Fatalf("after one unconverged analyzer, optimizer and preparation batch each:\n%s", got)
	}
	if rows, err := qe.Collect(); err != nil || len(rows) != len(rel.Rows) {
		t.Fatalf("the plan a bounded batch left: %d rows, %v", len(rows), err)
	}
}

func TestConfigKnobsChangePhysicalPlans(t *testing.T) {
	rel := usersRelation()
	cached := cachedRelation(sessionRows(100, "c"))
	build := func(cfg Config, lp plan.LogicalPlan) string {
		e := NewEngine(cfg)
		qe, err := e.Execute(lp)
		if err != nil {
			t.Fatal(err)
		}
		return qe.Physical.String()
	}
	project := &plan.Project{
		List:  []expr.Expression{rel.Attrs[0]},
		Child: &plan.Filter{Cond: expr.GT(rel.Attrs[1], expr.Lit(int32(20))), Child: rel},
	}
	// Over the columnar cache the default config vectorizes a filter and
	// fuses the aggregate above it.
	aggregate := &plan.Aggregate{
		Grouping: []expr.Expression{cached.Attrs[1]},
		Aggs:     []expr.Expression{cached.Attrs[1], expr.NewAlias(expr.NewCountStar(), "n")},
		Child:    &plan.Filter{Cond: expr.GT(cached.Attrs[0], expr.Lit(int64(10))), Child: cached},
	}
	full := build(DefaultConfig(), project)
	if !strings.Contains(full, "WholeStagePipeline") {
		t.Errorf("default config should fuse pipelines:\n%s", full)
	}
	if full := build(DefaultConfig(), aggregate); !strings.Contains(full, "VectorizedPipeline") || !strings.Contains(full, "(fused: true") {
		t.Errorf("default config should vectorize and fuse over the cache:\n%s", full)
	}
	for _, lp := range []plan.LogicalPlan{project, aggregate} {
		shark := build(SharkConfig(), lp)
		for _, op := range []string{"WholeStagePipeline", "VectorizedPipeline", "fused: true"} {
			if strings.Contains(shark, op) {
				t.Errorf("shark config must not plan a %s operator:\n%s", op, shark)
			}
		}
	}

	// Shark keeps the logical optimizations other than source pushdown: the
	// DecimalAggregates rewrite sums the unscaled LONGs under both configs.
	amounts := plan.NewLocalRelation(types.NewStruct(
		types.StructField{Name: "amount", Type: types.DecimalType{Precision: 5, Scale: 2}, Nullable: true},
	), []row.Row{{types.NewDecimal(1050, 2)}, {types.NewDecimal(-151, 2)}})
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "shark": SharkConfig()} {
		qe, err := NewEngine(cfg).Execute(&plan.Aggregate{
			Aggs:  []expr.Expression{expr.NewAlias(&expr.Sum{Child: amounts.Attrs[0]}, "s")},
			Child: amounts,
		})
		if err != nil {
			t.Fatal(err)
		}
		if s := qe.Optimized.String(); !strings.Contains(s, "unscaled(") {
			t.Errorf("%s config: DecimalAggregates did not fire:\n%s", name, s)
		}
	}
}

func TestExecutionErrorsSurfaceAsErrors(t *testing.T) {
	e := NewEngine(DefaultConfig())
	rel := usersRelation()
	// A UDF that panics at runtime: Collect must return an error, not
	// crash the process (tasks run on worker goroutines).
	udf := &expr.ScalarUDF{
		Name: "boom",
		Fn:   func([]any) any { panic("kaboom") },
		In:   []types.DataType{types.Int},
		Ret:  types.Int,
		Args: []expr.Expression{rel.Attrs[1]},
	}
	qe, err := e.Execute(&plan.Project{
		List:  []expr.Expression{expr.NewAlias(udf, "b")},
		Child: rel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qe.Collect(); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
	if _, err := qe.Count(); err == nil {
		t.Fatal("Count must surface task panics too")
	}
}

func TestTaskFailureInjectionSurfaces(t *testing.T) {
	e := NewEngine(DefaultConfig())
	rel := usersRelation()
	e.RDDCtx.SetFailureHook(func(name string, p, attempt int) error {
		return errors.New("node down") // every attempt fails
	})
	qe, err := e.Execute(rel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qe.Collect(); err == nil || !strings.Contains(err.Error(), "node down") {
		t.Fatalf("err = %v", err)
	}
}

func TestAddStrategyInterceptsPlanning(t *testing.T) {
	e := NewEngine(DefaultConfig())
	rel := usersRelation()
	hits := 0
	e.AddStrategy(func(pl *physical.Planner, lp plan.LogicalPlan) (physical.SparkPlan, bool, error) {
		hits++
		return nil, false, nil
	})
	if _, err := e.Execute(rel); err != nil {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatal("strategies must be consulted")
	}
}

func TestEngineParallelismDefaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 0
	cfg.ShufflePartitions = 0
	e := NewEngine(cfg)
	if e.RDDCtx.Parallelism() < 1 {
		t.Fatal("parallelism must default to a positive value")
	}
	if e.Cfg.ShufflePartitions < 1 {
		t.Fatal("shuffle partitions must default")
	}
	_ = rdd.NewContext(0) // zero-clamped too
}

func TestCollectEmptyRelation(t *testing.T) {
	e := NewEngine(DefaultConfig())
	empty := plan.NewLocalRelation(types.NewStruct(
		types.StructField{Name: "x", Type: types.Int, Nullable: false},
	), nil)
	qe, err := e.Execute(empty)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := qe.Collect()
	if err != nil || len(rows) != 0 {
		t.Fatalf("rows = %v, err = %v", rows, err)
	}
	var _ row.Row
}

// Acceptance: a terminal task failure is retrievable as *rdd.JobError with
// errors.As from the engine's Collect and Count.
func TestJobErrorRetrievableViaErrorsAs(t *testing.T) {
	e := NewEngine(DefaultConfig())
	rel := usersRelation()
	e.RDDCtx.SetBackoff(time.Microsecond, 10*time.Microsecond)
	e.RDDCtx.SetFailureHook(func(name string, p, attempt int) error {
		return errors.New("node down")
	})
	qe, err := e.Execute(rel)
	if err != nil {
		t.Fatal(err)
	}
	_, err = qe.Collect()
	var je *rdd.JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *rdd.JobError via errors.As, got %T: %v", err, err)
	}
	if je.Attempts == 0 || je.RDDName == "" {
		t.Fatalf("JobError not populated: %+v", je)
	}
	if _, err := qe.Count(); !errors.As(err, &je) {
		t.Fatalf("Count should surface *rdd.JobError too: %v", err)
	}
}

// Acceptance: the engine's QueryTimeout cancels a stuck query promptly and
// surfaces context.DeadlineExceeded.
func TestQueryTimeoutCancelsStuckQuery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueryTimeout = 30 * time.Millisecond
	e := NewEngine(cfg)
	rel := usersRelation()
	// Every first attempt hangs far beyond the timeout; the latency hook
	// sleeps context-aware, so cancellation tears it down immediately.
	e.RDDCtx.SetLatencyHook(func(name string, p, attempt int) time.Duration {
		return 10 * time.Second
	})
	qe, err := e.Execute(rel)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = qe.Collect()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout not prompt: %v", elapsed)
	}
}

// Acceptance: a caller-cancelled context propagates context.Canceled.
func TestCollectContextCancelled(t *testing.T) {
	e := NewEngine(DefaultConfig())
	rel := usersRelation()
	qe, err := e.Execute(rel)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := qe.CollectN(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := qe.CountContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("CountContext: want context.Canceled, got %v", err)
	}
}
