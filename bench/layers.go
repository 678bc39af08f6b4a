package main

import (
	"fmt"
	"os"
	"time"

	sparksql "repro"
	"repro/internal/datasource/colfile"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/row"
	"repro/internal/sqlparser"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions; TestBenchmarkJSONAgrees keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end metrics only
	Layer  string  // per-layer metrics only: the module measured
}

// endToEnd are the four metrics a user of the engine would see, measured
// with tracing off on every workload.
var endToEnd = []metricDef{
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.20},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// layerMetrics are the per-layer metrics of the traced pass, one module
// each. A workload that does not touch a layer reports 0 for it.
var layerMetrics = []metricDef{
	{Name: "parse_us", Unit: "us", Better: "lower", Layer: "sqlparser"},
	{Name: "analyze_us", Unit: "us", Better: "lower", Layer: "analysis"},
	{Name: "optimize_us", Unit: "us", Better: "lower", Layer: "optimizer"},
	{Name: "plan_us", Unit: "us", Better: "lower", Layer: "physical"},
	{Name: "frontend_share", Unit: "ratio", Better: "lower", Layer: "physical"},
	{Name: "exec_ms", Unit: "ms", Better: "lower", Layer: "physical"},
	{Name: "exec_ns_per_row", Unit: "ns/row", Better: "lower", Layer: "physical"},
	{Name: "native_ratio", Unit: "ratio", Better: "lower", Layer: "physical"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower", Layer: "bench"},
	{Name: "decode_ms", Unit: "ms", Better: "lower", Layer: "datasource/colfile"},
	{Name: "decode_ns_per_row", Unit: "ns/row", Better: "lower", Layer: "datasource/colfile"},
	{Name: "colfile_bytes_ratio", Unit: "ratio", Better: "lower", Layer: "datasource/colfile"},
	{Name: "cache_build_s", Unit: "s", Better: "lower", Layer: "columnar"},
	{Name: "cache_bytes_per_row", Unit: "B/row", Better: "lower", Layer: "columnar"},
	{Name: "codec_encode_ns_per_row", Unit: "ns/row", Better: "lower", Layer: "row"},
	{Name: "codec_decode_ns_per_row", Unit: "ns/row", Better: "lower", Layer: "row"},
	{Name: "shuffle_bytes_per_op", Unit: "B", Better: "lower", Layer: "rdd"},
	{Name: "shuffle_records_per_op", Unit: "count", Better: "lower", Layer: "rdd"},
	{Name: "tasks_run_per_op", Unit: "count", Better: "lower", Layer: "rdd"},
	{Name: "task_retries_per_op", Unit: "count", Better: "lower", Layer: "rdd"},
	{Name: "cluster_dispatched_per_op", Unit: "count", Better: "lower", Layer: "cluster"},
	{Name: "cluster_completed_per_op", Unit: "count", Better: "lower", Layer: "cluster"},
	{Name: "cluster_failed_per_op", Unit: "count", Better: "lower", Layer: "cluster"},
	{Name: "cluster_fallback_per_op", Unit: "count", Better: "lower", Layer: "cluster"},
	{Name: "session_ship_s", Unit: "s", Better: "lower", Layer: "cluster"},
	{Name: "wire_overhead_ms", Unit: "ms", Better: "lower", Layer: "cluster"},
	{Name: "worker_task_skew", Unit: "ratio", Better: "lower", Layer: "cluster"},
	{Name: "insert_ms", Unit: "ms", Better: "lower", Layer: "store"},
	{Name: "wal_bytes_per_user_byte", Unit: "ratio", Better: "lower", Layer: "store"},
	{Name: "txn_commits_per_op", Unit: "count", Better: "lower", Layer: "store"},
	{Name: "stats_refreshes_per_op", Unit: "count", Better: "lower", Layer: "store"},
	{Name: "segments", Unit: "count", Better: "lower", Layer: "store"},
	{Name: "checkpoint_ms", Unit: "ms", Better: "lower", Layer: "store"},
	{Name: "reopen_wal_ms", Unit: "ms", Better: "lower", Layer: "store"},
	{Name: "reopen_ckpt_ms", Unit: "ms", Better: "lower", Layer: "store"},
	{Name: "update_ms", Unit: "ms", Better: "lower", Layer: "store"},
	{Name: "delete_ms", Unit: "ms", Better: "lower", Layer: "store"},
	{Name: "range_scan_ms", Unit: "ms", Better: "lower", Layer: "store"},
	{Name: "server_overhead_us", Unit: "us", Better: "lower", Layer: "sqlserver"},
	{Name: "reply_bytes_per_row", Unit: "B/row", Better: "lower", Layer: "sqlserver"},
}

// counterMetrics maps engine registry counters to the per-operation
// metrics derived from their deltas over the traced window.
var counterMetrics = map[string]string{
	"rdd.shuffle.bytes":        "shuffle_bytes_per_op",
	"rdd.shuffle.records":      "shuffle_records_per_op",
	"rdd.tasks.run":            "tasks_run_per_op",
	"rdd.tasks.retries":        "task_retries_per_op",
	"cluster.tasks.dispatched": "cluster_dispatched_per_op",
	"cluster.tasks.completed":  "cluster_completed_per_op",
	"cluster.tasks.failed":     "cluster_failed_per_op",
	"cluster.fallback":         "cluster_fallback_per_op",
	"store.txn.commits":        "txn_commits_per_op",
	"store.stats.refreshes":    "stats_refreshes_per_op",
}

func readCounters(inst *instance) map[string]int64 {
	out := map[string]int64{}
	if inst.counter != nil {
		for name := range counterMetrics {
			out[name] = inst.counter(name)
		}
	}
	return out
}

// phase spans, named after the public function each one times.
const (
	spanParse    = "sqlparser.Parse"
	spanAnalyze  = "Engine.Analyze"
	spanOptimize = "Optimizer.Optimize"
	spanPlan     = "Planner.Plan"
)

// spanMetrics derives the metrics every workload shares from the traced
// window: front-end phases, execution as the operation proper minus the
// front end, tracing overhead against the untraced median, and counter
// deltas per operation.
func spanMetrics(spans []span, inst *instance, plainP50 float64, after, before map[string]int64, ops int) map[string]float64 {
	lm := map[string]float64{
		"parse_us":    perOp(spans, spanParse),
		"analyze_us":  perOp(spans, spanAnalyze),
		"optimize_us": perOp(spans, spanOptimize),
		"plan_us":     perOp(spans, spanPlan),
	}
	frontMS := (lm["parse_us"] + lm["analyze_us"] + lm["optimize_us"] + lm["plan_us"]) / 1e3
	callMS := perOp(spans, inst.call) / 1e3
	if callMS > 0 {
		lm["frontend_share"] = frontMS / callMS
		lm["exec_ms"] = callMS - frontMS
		lm["exec_ns_per_row"] = lm["exec_ms"] * 1e6 / inst.rowsPerOp
	}
	if plainP50 > 0 {
		lm["trace_overhead_pct"] = 100 * (perOp(spans, "op")/1e3 - plainP50) / plainP50
	}
	for counter, name := range counterMetrics {
		lm[name] = float64(after[counter]-before[counter]) / float64(ops)
	}
	return lm
}

// engine is a Context plus the harness's own optimizer and planner, built
// from the engine's configuration, so each Catalyst phase can be timed
// through its public entry point.
type engine struct {
	ctx *sparksql.Context
	opt *optimizer.Optimizer
	pl  *physical.Planner
}

func newEngine(ctx *sparksql.Context) *engine {
	cfg := ctx.Engine().Cfg
	pl := physical.NewPlanner(cfg.Planner)
	pl.TranslateFilter = optimizer.TranslateFilter
	return &engine{ctx: ctx, opt: optimizer.New(cfg.Optimizer), pl: pl}
}

// frontend replays parse → analyze → optimize → plan for one statement,
// one span each. The engine repeats the same work inside SQL/Collect; the
// replay is what the traced pass costs over the untraced one.
func (e *engine) frontend(tr *tracer, sql string) error {
	id := tr.begin(spanParse)
	st, err := sqlparser.Parse(sql)
	tr.end(id)
	if err != nil {
		return err
	}
	var lp plan.LogicalPlan
	switch s := st.(type) {
	case *sqlparser.SelectStatement:
		lp = s.Plan
	case *sqlparser.InsertStatement:
		lp = s.Query
	}
	if lp == nil {
		return nil
	}
	id = tr.begin(spanAnalyze)
	analyzed, err := e.ctx.Engine().Analyze(lp)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(spanOptimize)
	optimized, err := e.opt.Optimize(analyzed)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(spanPlan)
	_, err = e.pl.Plan(optimized)
	tr.end(id)
	return err
}

const spanCollect = "Context.SQL+Collect"

// collect runs one statement to completion and returns its rows and the
// time the engine took.
func (e *engine) collect(tr *tracer, sql string) ([]row.Row, time.Duration, error) {
	t0 := time.Now()
	if tr != nil {
		if err := e.frontend(tr, sql); err != nil {
			return nil, time.Since(t0), err
		}
	}
	id := tr.begin(spanCollect)
	df, err := e.ctx.SQL(sql)
	var rows []row.Row
	if err == nil {
		rows, err = df.Collect()
	}
	tr.end(id)
	return rows, time.Since(t0), err
}

// run is collect plus the oracle check, for a sequence of statements.
func (e *engine) run(tr *tracer, stmts ...stmt) (time.Duration, error) {
	var took time.Duration
	var first error
	for _, s := range stmts {
		rows, d, err := e.collect(tr, s.sql)
		took += d
		if err == nil {
			err = s.check(rows)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return took, first
}

// medianOf times fn n times and returns the median in milliseconds.
func medianOf(n int, fn func() error) (float64, error) {
	v := make([]float64, n)
	for i := range v {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		v[i] = float64(time.Since(t0)) / 1e6
	}
	return median(v), nil
}

// codecProbe times the row codec over the workload's own rows.
func codecProbe(lm map[string]float64, rows []row.Row) error {
	var block []byte
	enc, err := medianOf(3, func() (err error) {
		block, err = row.EncodeRows(rows)
		return err
	})
	if err != nil {
		return err
	}
	dec, err := medianOf(3, func() error {
		_, err := row.DecodeRows(block)
		return err
	})
	lm["codec_encode_ns_per_row"] = enc * 1e6 / float64(len(rows))
	lm["codec_decode_ns_per_row"] = dec * 1e6 / float64(len(rows))
	return err
}

// colRead names the columns of one columnar file that a query needs.
type colRead struct {
	path    string
	strings []string
	int32s  []string
	doubles []string
}

// cols holds decoded typed columns by name.
type cols struct {
	s map[string][]string
	i map[string][]int32
	f map[string][]float64
}

// decode reads the named columns through the relation's typed readers —
// what the native loops do per query, over a file opened once, like the
// engine's scan.
func (c colRead) decode(rel *colfile.Relation) (cols, error) {
	out := cols{map[string][]string{}, map[string][]int32{}, map[string][]float64{}}
	var err error
	for _, n := range c.strings {
		if out.s[n], _, err = rel.StringColumn(n); err != nil {
			return out, err
		}
	}
	for _, n := range c.int32s {
		if out.i[n], _, err = rel.Int32Column(n); err != nil {
			return out, err
		}
	}
	for _, n := range c.doubles {
		if out.f[n], _, err = rel.Float64Column(n); err != nil {
			return out, err
		}
	}
	return out, nil
}

// decodeProbe times colfile.Open plus the typed column reads for every
// file of the workload, and compares file bytes with the rows' flat size.
func decodeProbe(lm map[string]float64, files []colRead, tables ...[]row.Row) error {
	ms, err := medianOf(3, func() error {
		for _, f := range files {
			rel, err := colfile.Open(f.path)
			if err == nil {
				_, err = f.decode(rel)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var fileBytes, flatBytes, rows int64
	for _, f := range files {
		st, err := os.Stat(f.path)
		if err != nil {
			return err
		}
		fileBytes += st.Size()
	}
	for _, t := range tables {
		rows += int64(len(t))
		for _, r := range t {
			flatBytes += r.FlatSize()
		}
	}
	lm["decode_ms"] = ms
	lm["decode_ns_per_row"] = ms * 1e6 / float64(rows)
	lm["colfile_bytes_ratio"] = float64(fileBytes) / float64(flatBytes)
	return nil
}

// nativeProbe sets native_ratio: the engine's untraced median against the
// hand-written loop over the same data.
func nativeProbe(lm map[string]float64, engineMS float64, loop func() error) error {
	ms, err := medianOf(5, loop)
	if err != nil {
		return err
	}
	if ms > 0 {
		lm["native_ratio"] = engineMS / ms
	}
	return nil
}

// storeProbes measures, once each on the table the window left behind, a
// 10 % key-range aggregate, an UPDATE and a DELETE touching 1 % of the
// rows, reopening with the whole history in the WAL, a checkpoint, and
// reopening after it. It closes ctx; keys are 0..rows-1.
func storeProbes(lm map[string]float64, ctx *sparksql.Context, cfg sparksql.Config, rows int64) error {
	timeSQL := func(c *sparksql.Context, name, sql string) error {
		t0 := time.Now()
		df, err := c.SQL(sql)
		if err == nil {
			_, err = df.Collect()
		}
		lm[name] = float64(time.Since(t0)) / 1e6
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	for _, p := range [][2]string{
		{"range_scan_ms", fmt.Sprintf("SELECT SUM(x), COUNT(*) FROM events WHERE k >= %d AND k < %d", rows/2, rows/2+rows/10)},
		{"update_ms", "UPDATE events SET x = x + 1 WHERE k % 100 = 0"},
		{"delete_ms", "DELETE FROM events WHERE k % 100 = 1"},
	} {
		if err := timeSQL(ctx, p[0], p[1]); err != nil {
			return err
		}
	}
	if err := ctx.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	ctx = sparksql.NewContextWithConfig(cfg)
	lm["reopen_wal_ms"] = float64(time.Since(t0)) / 1e6
	t0 = time.Now()
	if err := ctx.Store().Checkpoint(); err != nil {
		return err
	}
	lm["checkpoint_ms"] = float64(time.Since(t0)) / 1e6
	if err := ctx.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	ctx = sparksql.NewContextWithConfig(cfg)
	lm["reopen_ckpt_ms"] = float64(time.Since(t0)) / 1e6
	return ctx.Close()
}
