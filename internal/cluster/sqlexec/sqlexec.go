// Package sqlexec is the worker-process side of distributed SQL: it
// registers the "sql.init" and "sql.partition" task handlers on a cluster
// worker. Init rebuilds the coordinator's SQL context from a shipped
// sqlwire.SessionSpec (tables, resolved Config, chaos schedule); partition
// plans the task's SQL text locally — the planner is deterministic, so
// every process derives the same physical plan, partition numbering and
// shuffle ids — and computes exactly one partition of the result, serving
// shuffle buckets to and fetching them from peer workers along the way.
package sqlexec

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	sparksql "repro"
	"repro/internal/cluster"
	"repro/internal/cluster/sqlwire"
	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
)

// builtQuery caches one planned query's result RDD. Partitions of the
// same query reuse it, which is what makes worker-local shuffle state
// (memoized map sides, published buckets) shared across that query's
// tasks instead of rebuilt per partition.
type builtQuery struct {
	cluster.MemoEntry
	rdd      *rdd.RDD[row.Row]
	numPart  int
	planHash uint64
}

type session struct {
	epoch uint64
	ctx   *sparksql.Context
	mu    sync.Mutex // serializes query planning (shuffle-scope setup) and built
	built cluster.Memo[*builtQuery]
}

// Executor holds the sessions a worker has been initialized with and
// serves query-partition tasks against them.
type Executor struct {
	mu       sync.Mutex
	sessions map[string]*session
}

// NewExecutor builds an empty executor.
func NewExecutor() *Executor {
	return &Executor{sessions: make(map[string]*session)}
}

// Register installs the SQL task handlers on a worker.
func (e *Executor) Register(w *cluster.Worker) {
	w.Register("sql.init", func(ctx context.Context, t *cluster.Task) ([]byte, error) {
		return e.handleInit(w, t.Payload)
	})
	w.Register("sql.partition", func(ctx context.Context, t *cluster.Task) ([]byte, error) {
		return e.handlePartition(ctx, w, t.Payload)
	})
	w.Register("obs.fetch", func(ctx context.Context, t *cluster.Task) ([]byte, error) {
		return e.handleObsFetch(w, t.Payload)
	})
}

// handleInit (re)builds the session named by the spec. Init failures are
// fallback errors: a worker that cannot hold the session should not be
// retried against — the coordinator computes locally instead.
func (e *Executor) handleInit(w *cluster.Worker, payload []byte) ([]byte, error) {
	spec, err := sqlwire.DecodeSession(payload)
	if err != nil {
		return nil, cluster.Fallback(err)
	}
	e.mu.Lock()
	if s := e.sessions[spec.ID]; s != nil && s.epoch == spec.Epoch {
		e.mu.Unlock()
		return nil, nil // already at this epoch
	}
	e.mu.Unlock()

	ctx, err := buildContext(w, spec)
	if err != nil {
		return nil, cluster.Fallback(fmt.Errorf("sqlexec: init session %s epoch %d: %w", spec.ID, spec.Epoch, err))
	}
	e.mu.Lock()
	e.sessions[spec.ID] = &session{epoch: spec.Epoch, ctx: ctx, built: make(cluster.Memo[*builtQuery])}
	e.mu.Unlock()
	return nil, nil
}

// buildContext materializes a SQL context from a session spec — the same
// constructor path the coordinator used, fed the same inputs: the shipped
// knobs over DefaultConfig, whose values the process-local ones keep.
func buildContext(w *cluster.Worker, spec *sqlwire.SessionSpec) (*sparksql.Context, error) {
	cfg := sparksql.DefaultConfig()
	if err := sqlwire.DecodeConfig(spec.Config, &cfg); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	// Workers never adapt: the coordinator takes a statement's adaptive
	// decisions (materializing its stages on the statement's first run over
	// a catalog, replaying them on later runs) and ships the decision list in
	// each task — this worker replays the rewrites over its statically
	// planned tree. A worker re-adapting from its own observations could
	// diverge and fail the plan-hash parity check.
	cfg.Adaptive = false
	ctx := sparksql.NewContextWithConfig(cfg)

	rc := ctx.RDDContext()
	if spec.BackoffBaseNS > 0 || spec.BackoffMaxNS > 0 {
		rc.SetBackoff(time.Duration(spec.BackoffBaseNS), time.Duration(spec.BackoffMaxNS))
	}
	rc.SetBackoffSeed(spec.BackoffSeed)
	if spec.Chaos.Enabled {
		// The same deterministic failure schedule the coordinator would run
		// in-process: afflicted task attempts fail here too, and recover
		// through this worker's own retry loop.
		rc.SetFailureHook(spec.Chaos.Hook())
	}
	rc.SetShuffleService(w.Shuffle())

	for _, t := range spec.Tables {
		if err := loadTable(ctx, t); err != nil {
			return nil, fmt.Errorf("table %s: %w", t.Name, err)
		}
	}
	return ctx, nil
}

// loadTable registers one shipped table. Uncached tables go through
// CreateDataFrame (the worker's deterministic split of the identical row
// slice reproduces the coordinator's partitioning); cached tables rebuild
// the columnar cache from the shipped per-partition blocks, preserving
// the coordinator's partition boundaries exactly.
func loadTable(ctx *sparksql.Context, t sqlwire.TableSpec) error {
	schema, err := sqlwire.Schema(t.Fields)
	if err != nil {
		return err
	}
	parts := make([][]row.Row, len(t.Partitions))
	for i, blk := range t.Partitions {
		if parts[i], err = columnar.DecodeBlock(blk); err != nil {
			return err
		}
	}
	if !t.Cached {
		df, err := ctx.CreateDataFrame(schema, slices.Concat(parts...))
		if err != nil {
			return err
		}
		df.RegisterTempTable(t.Name)
		return nil
	}
	table := columnar.BuildTable(schema, parts, columnar.DefaultBatchSize)
	attrs := make([]*expr.AttributeReference, len(schema.Fields))
	for i, f := range schema.Fields {
		attrs[i] = expr.NewAttribute(f.Name, f.Type, f.Nullable)
	}
	ctx.Catalog().RegisterTable(t.Name, &plan.InMemoryRelation{
		Attrs:       attrs,
		Table:       table,
		SizeInBytes: table.SizeBytes(),
		RowCount:    table.RowCount(),
		TableStats:  table.Stats,
	})
	return nil
}

// handlePartition executes one partition of one query. Unknown sessions
// are retryable with the uninitialized marker (the coordinator re-ships
// the session and retries); plan-shape disagreements are fallback errors;
// execution failures are plain retryable errors.
func (e *Executor) handlePartition(jc context.Context, w *cluster.Worker, payload []byte) ([]byte, error) {
	q, err := sqlwire.DecodeQuery(payload)
	if err != nil {
		return nil, cluster.Fallback(err)
	}
	e.mu.Lock()
	s := e.sessions[q.SessionID]
	e.mu.Unlock()
	if s == nil || s.epoch != q.Epoch {
		return nil, fmt.Errorf("sqlexec: %s %s epoch %d", sqlwire.UninitializedMarker, q.SessionID, q.Epoch)
	}
	bq, err := s.query(q.SessionID, q.SQL, q.Decisions)
	if err != nil {
		// Parse/analysis/planning failures are not transient: this worker
		// (and every other) cannot run the query; compute it locally.
		return nil, cluster.Fallback(err)
	}
	if bq.numPart != q.NumPartitions || bq.planHash != q.PlanHash {
		return nil, cluster.Fallback(fmt.Errorf(
			"sqlexec: plan for %q diverges (%d partitions / hash %x here, %d / %x at coordinator)",
			q.SQL, bq.numPart, bq.planHash, q.NumPartitions, q.PlanHash))
	}
	// With a trace id on the task, capture this task's spans in a bounded
	// sink so they ship back with the rows; without one, the reply carries
	// rows only.
	var sink *metrics.TraceBuffer
	if q.TraceID != "" {
		sink = metrics.NewTraceBuffer(taskSpanCap)
		jc = rdd.WithTraceContext(jc, q.TraceID, q.ParentSpan, sink)
	}
	rows, err := bq.rdd.PartitionContext(jc, q.Partition)
	if err != nil {
		return nil, err
	}
	reply := &sqlwire.TaskReply{Worker: w.ID()}
	if reply.Rows, err = columnar.EncodeBlock(rows); err != nil {
		return nil, err
	}
	if sink != nil {
		reply.Spans = stampWorker(sink.Snapshot(), w.ID())
		reply.Counters = counterSamples(s.ctx.RDDContext().Metrics(), taskCounterAllowlist)
	}
	return sqlwire.EncodeTaskReply(reply)
}

// taskSpanCap bounds the spans piggybacked on one task reply: a partition's
// own task/stage/shuffle spans are a handful; retries and nested stages fit
// comfortably, and a pathological lineage truncates (observable through the
// worker's trace.dropped) instead of bloating the reply.
const taskSpanCap = 256

// taskCounterAllowlist names the worker counters piggybacked on every
// traced task reply — absolute values the coordinator keeps per-worker,
// last sample wins. Deliberately small: the full registry ships on harvest
// (obs.fetch), not per task.
var taskCounterAllowlist = []string{
	"rdd.tasks.run",
	"rdd.tasks.retries",
	"rdd.shuffle.records",
	"rdd.shuffle.bytes",
	"rdd.cache.recomputes",
	"trace.dropped",
}

// stampWorker fills the worker id into spans that executed locally (empty
// Worker field) so merged traces attribute them correctly.
func stampWorker(spans []metrics.Span, id string) []metrics.Span {
	for i := range spans {
		if spans[i].Worker == "" {
			spans[i].Worker = id
		}
	}
	return spans
}

// counterSamples snapshots the named counters/gauges from a registry. With
// a nil allowlist every counter and gauge ships (harvest mode).
func counterSamples(reg *metrics.Registry, allow []string) []sqlwire.CounterSample {
	var allowed map[string]bool
	if allow != nil {
		allowed = make(map[string]bool, len(allow))
		for _, n := range allow {
			allowed[n] = true
		}
	}
	var out []sqlwire.CounterSample
	for _, m := range reg.Snapshot() {
		if m.Kind == metrics.KindHistogram {
			continue
		}
		if allowed != nil && !allowed[m.Name] {
			continue
		}
		out = append(out, sqlwire.CounterSample{Name: m.Name, Value: m.Value})
	}
	return out
}

// handleObsFetch serves the federation pull: a merged snapshot of every
// session's registry (same-name samples summed across sessions — counters
// in different sessions are disjoint increments of one worker-level total)
// plus up to MaxSpans recent spans.
func (e *Executor) handleObsFetch(w *cluster.Worker, payload []byte) ([]byte, error) {
	req, err := sqlwire.DecodeObsRequest(payload)
	if err != nil {
		return nil, cluster.Fallback(err)
	}
	reply := &sqlwire.ObsReply{Worker: w.ID()}
	reply.Counters = e.mergedSamples(req.Pattern)
	if req.MaxSpans > 0 {
		var spans []metrics.Span
		for _, s := range e.sessionList() {
			spans = append(spans, s.ctx.RDDContext().Trace().Snapshot()...)
		}
		if len(spans) > req.MaxSpans {
			spans = spans[len(spans)-req.MaxSpans:]
		}
		reply.Spans = stampWorker(spans, w.ID())
	}
	return sqlwire.EncodeObsReply(reply)
}

func (e *Executor) sessionList() []*session {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*session, 0, len(e.sessions))
	for _, s := range e.sessions {
		out = append(out, s)
	}
	return out
}

// mergedSamples merges counter/gauge snapshots across all sessions of this
// worker, filtered by pattern, sorted by name.
func (e *Executor) mergedSamples(pattern string) []sqlwire.CounterSample {
	merged := make(map[string]int64)
	for _, s := range e.sessionList() {
		for _, m := range s.ctx.RDDContext().Metrics().Snapshot() {
			if m.Kind == metrics.KindHistogram {
				continue
			}
			if !metrics.MatchGlob(pattern, m.Name) {
				continue
			}
			merged[m.Name] += m.Value
		}
	}
	names := make([]string, 0, len(merged))
	for n := range merged {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]sqlwire.CounterSample, len(names))
	for i, n := range names {
		out[i] = sqlwire.CounterSample{Name: n, Value: merged[n]}
	}
	return out
}

// query plans (or returns the cached plan of) one SQL text plus adaptive
// decision list under the session's shuffle scope. The scope string is
// derived from session, epoch, query text and decisions only — every
// worker planning the same adapted query lands on identical shuffle ids,
// so reduce tasks can fetch map output that a peer already published. The
// memo is keyed the same way: the static and adapted builds of one SQL
// text are different plans with different shuffle graphs. It holds
// cluster.MemoCapacity statements; an evicted one is rebuilt on its next
// task, under the same scope and so with the same shuffle ids.
func (s *session) query(sessionID, sql string, decisions json.RawMessage) (*builtQuery, error) {
	dfp := decisionFingerprint(decisions)
	key := fmt.Sprintf("%s\x00%016x", sql, dfp)
	s.mu.Lock()
	defer s.mu.Unlock()
	if bq, ok := s.built.Get(key); ok {
		return bq, nil
	}
	var ds []physical.Decision
	if len(decisions) > 0 {
		if err := sqlwire.DecodeConfig(decisions, &ds); err != nil {
			return nil, fmt.Errorf("sqlexec: decisions: %w", err)
		}
	}
	df, err := s.ctx.SQL(sql)
	if err != nil {
		return nil, err
	}
	// Shuffle ids are allocated while the RDD graph is built, so the scope
	// must be set for the duration of AdaptedQuery and nothing else;
	// planning is serialized by s.mu.
	rc := s.ctx.RDDContext()
	rc.SetShuffleScope(fmt.Sprintf("%s/e%d/q%016x/d%016x", sessionID, s.epoch, fnv64(sql), dfp))
	r, hash, err := df.AdaptedQuery(ds)
	rc.SetShuffleScope("")
	if err != nil {
		return nil, err
	}
	bq := &builtQuery{rdd: r, numPart: r.NumPartitions(), planHash: hash}
	s.built.Put(key, bq)
	return bq, nil
}

// decisionFingerprint hashes a decision list's bytes as shipped; zero for
// the static plan (no decisions).
func decisionFingerprint(ds json.RawMessage) uint64 {
	if len(ds) == 0 {
		return 0
	}
	return fnv64(string(ds))
}

func fnv64(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// RunIfWorker turns the current process into a cluster worker when the
// REPRO_WORKER_ADDR environment variable is set, and never returns in
// that case. Test binaries call it from TestMain so the multi-process
// harness can respawn *itself* as workers (the standard re-exec pattern);
// cmd/sqlworker calls it unconditionally via its own flag parsing.
func RunIfWorker() {
	addr := os.Getenv("REPRO_WORKER_ADDR")
	if addr == "" {
		return
	}
	os.Exit(RunWorker(addr, os.Getenv("REPRO_WORKER_ID")))
}

// RunWorker runs one SQL worker process against the coordinator at addr
// until the connection ends, returning a process exit code. When
// REPRO_WORKER_METRICS_ADDR is set the worker also serves its observability
// HTTP endpoints (/metrics, /trace, and — with REPRO_WORKER_PPROF=1 —
// pprof/expvar) on that address.
func RunWorker(addr, id string) int {
	if id == "" {
		id = fmt.Sprintf("w-%d", os.Getpid())
	}
	cfg := cluster.WorkerConfig{ID: id, CoordinatorAddr: addr}
	if ms, err := strconv.Atoi(os.Getenv("REPRO_WORKER_HEARTBEAT_MS")); err == nil && ms > 0 {
		cfg.HeartbeatInterval = time.Duration(ms) * time.Millisecond
	}
	w := cluster.NewWorker(cfg)
	e := NewExecutor()
	e.Register(w)
	if maddr := os.Getenv("REPRO_WORKER_METRICS_ADDR"); maddr != "" {
		ln, err := e.ListenAndServeObs(maddr, os.Getenv("REPRO_WORKER_PPROF") == "1")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sqlworker %s: metrics server: %v\n", id, err)
		} else {
			defer ln.Close()
		}
	}
	if err := w.Run(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "sqlworker %s: %v\n", id, err)
		return 1
	}
	return 0
}
