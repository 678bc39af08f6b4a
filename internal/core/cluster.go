package core

// Distributed execution: ClusterRuntime adapts internal/cluster's
// coordinator to the rdd layer's RemoteRunner hook. The runtime ships the
// engine's catalog to workers as a sqlwire.SessionSpec (bumping an epoch
// whenever catalog contents change), dispatches "sql.partition" tasks
// with partition→worker affinity, and translates cluster-level failures
// into the rdd error vocabulary: worker loss and remote task failures
// stay retryable (the executor's ordinary backoff/re-pick loop handles
// them), while "this can never run remotely" conditions map to
// rdd.ErrRemoteFallback so the partition computes locally from lineage.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/sqlwire"
	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/types"
)

// ClusterOptions tunes distributed execution (see Config.Cluster). The
// zero value listens on an ephemeral localhost port with the cluster
// package's default timeouts.
type ClusterOptions struct {
	// Listen is the coordinator's TCP address ("" = 127.0.0.1:0).
	Listen string
	// HeartbeatTimeout evicts a worker silent for this long (0 = 5s).
	HeartbeatTimeout time.Duration
	// TaskTimeout declares a dispatched task's worker hung after this
	// long (0 = 2m).
	TaskTimeout time.Duration
	// BlacklistThreshold is the consecutive-failure count that benches a
	// worker (0 = 3); BlacklistCooldown is for how long (0 = 5s).
	BlacklistThreshold int
	BlacklistCooldown  time.Duration
	// HarvestInterval, when positive, runs the metrics-federation
	// harvester on this period (pulling every live worker's registry over
	// the task protocol). Zero harvests on demand only — SHOW CLUSTER and
	// the /metrics endpoint trigger a pull themselves.
	HarvestInterval time.Duration
}

// maxSpecBytes caps a shipped session: a spec that does not fit well
// inside one frame marks the session unshippable and queries run locally.
const maxSpecBytes = frame.MaxSize - 4096

var sessionSeq atomic.Uint64

// ClusterRuntime owns the coordinator and the session-shipping state.
type ClusterRuntime struct {
	e     *Engine
	coord *cluster.Coordinator

	mu        sync.Mutex
	template  sqlwire.SessionSpec
	stale     bool // a template knob changed since fp was taken
	sessionID string
	epoch     uint64
	fp        uint64
	specBytes []byte
	shippable bool
	status    string                  // ", T tables, B bytes" of the summary's session line
	degraded  string                  // its tail: why the session cannot ship, what is skipped
	tables    map[string]shippedTable // by catalog name
	inited    map[string]uint64       // workerID → epoch it holds
	initLocks map[string]*sync.Mutex  // serializes init per worker
	// decisions holds each distributed statement's adaptive decision list over
	// the catalog in tables: any change RefreshSession finds empties it.
	decisions              cluster.Memo[*adaptedStatement]
	replayed, materialized *metrics.Counter

	// Federated observability: the latest counter samples harvested from
	// (or piggybacked by) each worker, keyed worker id → metric name →
	// absolute value. Samples are absolute, so last-write-wins merging
	// never double-counts concurrent tasks from one worker.
	obsMu      sync.Mutex
	obsWorkers map[string]map[string]int64
	// harvestStop terminates the background harvester (nil = none).
	harvestStop chan struct{}
}

// EnableCluster starts a coordinator for the engine and installs the
// runtime as the rdd layer's remote dispatcher. The session it ships carries
// the engine's resolved Config, so worker contexts plan identically.
func EnableCluster(e *Engine, opts ClusterOptions) (*ClusterRuntime, error) {
	knobs, err := json.Marshal(e.Cfg.Config)
	if err != nil {
		return nil, fmt.Errorf("core: cluster session config: %w", err)
	}
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatTimeout:   opts.HeartbeatTimeout,
		TaskTimeout:        opts.TaskTimeout,
		BlacklistThreshold: opts.BlacklistThreshold,
		BlacklistCooldown:  opts.BlacklistCooldown,
		Registry:           e.RDDCtx.Metrics(),
	})
	addr := opts.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if _, err := coord.Start(addr); err != nil {
		return nil, fmt.Errorf("core: cluster listen: %w", err)
	}
	rt := &ClusterRuntime{
		e:            e,
		coord:        coord,
		template:     sqlwire.SessionSpec{Config: knobs},
		sessionID:    fmt.Sprintf("s%d-%d", os.Getpid(), sessionSeq.Add(1)),
		stale:        true,
		tables:       make(map[string]shippedTable),
		inited:       make(map[string]uint64),
		initLocks:    make(map[string]*sync.Mutex),
		decisions:    make(cluster.Memo[*adaptedStatement]),
		replayed:     e.RDDCtx.Metrics().Counter("cluster.adaptive.replayed"),
		materialized: e.RDDCtx.Metrics().Counter("cluster.adaptive.materialized"),
		obsWorkers:   make(map[string]map[string]int64),
	}
	e.cluster = rt
	e.RDDCtx.SetRemoteRunner(rt)
	if opts.HarvestInterval > 0 {
		rt.StartHarvester(opts.HarvestInterval)
	}
	return rt, nil
}

// Cluster returns the engine's cluster runtime (nil when not enabled).
func (e *Engine) Cluster() *ClusterRuntime { return e.cluster }

// Coordinator exposes the underlying coordinator for membership queries
// and chaos hooks.
func (rt *ClusterRuntime) Coordinator() *cluster.Coordinator { return rt.coord }

// Addr returns the coordinator's listen address.
func (rt *ClusterRuntime) Addr() string { return rt.coord.Addr() }

// Close stops the coordinator; workers see a goodbye and exit.
func (rt *ClusterRuntime) Close() error {
	rt.mu.Lock()
	if rt.harvestStop != nil {
		close(rt.harvestStop)
		rt.harvestStop = nil
	}
	rt.mu.Unlock()
	return rt.coord.Close()
}

// SetChaos forwards a fault-injection schedule to workers (the next
// refresh bumps the epoch, re-shipping sessions with the new schedule).
func (rt *ClusterRuntime) SetChaos(c sqlwire.ChaosSpec) {
	rt.mu.Lock()
	rt.template.Chaos = c
	rt.stale = true
	rt.mu.Unlock()
}

// SetWorkerBackoff shapes worker-side internal retries.
func (rt *ClusterRuntime) SetWorkerBackoff(base, max time.Duration, seed uint64) {
	rt.mu.Lock()
	rt.template.BackoffBaseNS = int64(base)
	rt.template.BackoffMaxNS = int64(max)
	rt.template.BackoffSeed = seed
	rt.stale = true
	rt.mu.Unlock()
}

// shippedTable is what one catalog relation encodes to: its wire spec (nil
// when it cannot ship) and the spec's hash. A relation is immutable — a store
// commit or a RegisterTable publishes a new pointer — so it holds while rel does.
type shippedTable struct {
	rel  plan.LogicalPlan
	spec *sqlwire.TableSpec
	hash uint64
}

// RefreshSession brings the shipped session up to date with the catalog:
// relations the catalog replaced since the last call are re-encoded, the
// statements' recorded decisions are dropped, and when the fingerprint (the
// knobs, each table's name and hash) moves, the spec is marshalled again, the
// epoch advances and every worker is re-initialized before its next task.
// Failures only mark the session unshippable — queries then run locally,
// never wrongly.
func (rt *ClusterRuntime) RefreshSession() {
	names := rt.e.Catalog.TableNames()
	reg := rt.e.RDDCtx.Metrics()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	changed := rt.stale
	for _, name := range names {
		lp, _ := rt.e.Catalog.LookupTable(name)
		if t, ok := rt.tables[name]; !ok || t.rel != lp {
			rt.tables[name] = encodeTable(name, lp, reg)
			changed = true
		}
	}
	if len(rt.tables) > len(names) { // some names left the catalog
		for name := range rt.tables {
			if i := sort.SearchStrings(names, name); i == len(names) || names[i] != name {
				delete(rt.tables, name)
			}
		}
		changed = true
	}
	if !changed {
		return
	}
	clear(rt.decisions)
	spec, skipped := rt.template, ""
	spec.ID = rt.sessionID
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", spec)
	for _, name := range names {
		if t := rt.tables[name]; t.spec != nil {
			spec.Tables = append(spec.Tables, *t.spec)
			fmt.Fprintf(h, " %s=%x", name, t.hash)
		} else {
			skipped += ", " + name
		}
	}
	rt.stale = false
	var err error
	if fp := h.Sum64(); fp != rt.fp || rt.specBytes == nil {
		spec.Epoch = rt.epoch + 1
		if rt.specBytes, err = sqlwire.EncodeSession(&spec); err == nil {
			rt.epoch, rt.fp, rt.inited = spec.Epoch, fp, make(map[string]uint64)
			reg.Gauge("cluster.session.epoch").Set(int64(rt.epoch))
		}
	}
	if err == nil && len(rt.specBytes) > maxSpecBytes {
		err = fmt.Errorf("the spec exceeds a frame's %d bytes", maxSpecBytes)
	}
	rt.shippable = err == nil
	rt.status = fmt.Sprintf(", %d tables, %d bytes", len(spec.Tables), len(rt.specBytes))
	rt.degraded = ""
	if err != nil {
		rt.degraded = ", not shippable: " + err.Error()
	}
	if skipped != "" {
		rt.degraded += ", skipped: " + skipped[2:]
	}
}

// encodeTable converts one catalog relation into a TableSpec. A plan or
// schema that cannot ship (views, data sources, exotic column types) gets
// an entry without one: queries referencing the table fail analysis on
// the worker and fall back to local compute.
func encodeTable(name string, lp plan.LogicalPlan, reg *metrics.Registry) shippedTable {
	spec := sqlwire.TableSpec{Name: name}
	var ok bool
	var err error
	switch t := lp.(type) {
	case *plan.LocalRelation:
		spec.Partitions = make([][]byte, 1)
		if spec.Fields, ok = attrFields(t.Attrs); ok {
			spec.Partitions[0], err = columnar.EncodeBlock(t.Rows)
		}
	case *plan.InMemoryRelation:
		spec.Cached = true
		spec.Fields, ok = sqlwire.Fields(t.Table.Schema)
		spec.Partitions = make([][]byte, len(t.Table.Partitions))
		for p := 0; ok && err == nil && p < len(spec.Partitions); p++ {
			spec.Partitions[p], err = columnar.EncodeBlock(t.Table.ScanPartition(p, nil, nil))
		}
	}
	if !ok || err != nil {
		reg.Counter("cluster.session.tables.skipped").Inc()
		return shippedTable{rel: lp}
	}
	reg.Counter("cluster.session.tables.encoded").Inc()
	h := fnv.New64a()
	fmt.Fprintf(h, "%v %v", spec.Cached, spec.Fields)
	for _, p := range spec.Partitions {
		fmt.Fprintf(h, " %d:", len(p))
		h.Write(p)
	}
	return shippedTable{rel: lp, spec: &spec, hash: h.Sum64()}
}

func attrFields(attrs []*expr.AttributeReference) ([]sqlwire.FieldSpec, bool) {
	fields := make([]types.StructField, len(attrs))
	for i, a := range attrs {
		fields[i] = types.StructField{Name: a.Name, Type: a.Type, Nullable: a.Null}
	}
	return sqlwire.Fields(types.NewStruct(fields...))
}

// session snapshots the shipped identity for query payloads.
func (rt *ClusterRuntime) session() (id string, epoch uint64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.sessionID, rt.epoch
}

func (rt *ClusterRuntime) clearInit(workerID string) {
	rt.mu.Lock()
	delete(rt.inited, workerID)
	rt.mu.Unlock()
}

// ensureInit ships the current session to the worker unless it already
// holds this epoch. Init is serialized per worker so concurrent partition
// tasks do not each ship the (potentially large) spec.
func (rt *ClusterRuntime) ensureInit(jc context.Context, workerID string) error {
	rt.mu.Lock()
	if rt.inited[workerID] == rt.epoch {
		rt.mu.Unlock()
		return nil
	}
	lk := rt.initLocks[workerID]
	if lk == nil {
		lk = &sync.Mutex{}
		rt.initLocks[workerID] = lk
	}
	rt.mu.Unlock()

	lk.Lock()
	defer lk.Unlock()
	rt.mu.Lock()
	done := rt.inited[workerID] == rt.epoch
	spec, epoch := rt.specBytes, rt.epoch
	rt.mu.Unlock()
	if done {
		return nil
	}
	if _, err := rt.coord.RunOnWorker(jc, workerID, "sql.init", spec); err != nil {
		return err
	}
	rt.mu.Lock()
	if rt.epoch == epoch {
		rt.inited[workerID] = epoch
	}
	rt.mu.Unlock()
	return nil
}

// Available implements rdd.RemoteRunner.
func (rt *ClusterRuntime) Available() bool { return rt.coord.Available() }

// RunTask implements rdd.RemoteRunner: pick a worker by partition
// affinity, make sure it holds the session, dispatch, translate errors.
func (rt *ClusterRuntime) RunTask(jc context.Context, kind string, partition int, payload []byte) ([]byte, string, error) {
	rt.mu.Lock()
	shippable := rt.shippable
	rt.mu.Unlock()
	if !shippable {
		rt.e.RDDCtx.Metrics().Counter("cluster.session.unshippable").Inc()
		return nil, "", rdd.ErrRemoteFallback
	}
	workerID, err := rt.coord.Pick(partition)
	if err != nil {
		return nil, "", translateNoWorker(err)
	}
	if err := rt.ensureInit(jc, workerID); err != nil {
		return nil, workerID, translateTaskErr(rt, workerID, err)
	}
	res, err := rt.coord.RunOnWorker(jc, workerID, kind, payload)
	if err != nil {
		return nil, workerID, translateTaskErr(rt, workerID, err)
	}
	return res, workerID, nil
}

func translateNoWorker(err error) error {
	if errors.Is(err, cluster.ErrNoWorkers) || errors.Is(err, cluster.ErrClosed) {
		return fmt.Errorf("%w: %v", rdd.ErrNoWorkers, err)
	}
	return err
}

func translateTaskErr(rt *ClusterRuntime, workerID string, err error) error {
	var lost *cluster.WorkerLostError
	if errors.As(err, &lost) {
		// The worker (or its connection) died: drop our init record so a
		// respawned process under the same id is re-shipped the session,
		// and keep the error retryable — the executor re-picks.
		rt.clearInit(workerID)
		return err
	}
	var re *cluster.RemoteError
	if errors.As(err, &re) && strings.Contains(re.Message, sqlwire.UninitializedMarker) {
		// A fresh process re-registered under a known id between our init
		// and this task: clear the cache so the retry re-initializes.
		rt.clearInit(workerID)
		return err
	}
	if cluster.IsFallback(err) {
		return fmt.Errorf("%w: %v", rdd.ErrRemoteFallback, err)
	}
	return err
}

// --- distributed actions -------------------------------------------------

// CollectDistributedContext is CollectN, but partitions are dispatched to
// cluster workers when the engine has one attached and the query arrived as
// SQL text (the only form we can ship). Every failure mode degrades to the
// local path; results are identical either way.
func (q *QueryExecution) CollectDistributedContext(ctx context.Context, sql string, n int) ([]row.Row, error) {
	r, cleanup, jc, tid, ok := q.distributed(ctx, sql)
	if !ok {
		return q.CollectN(ctx, n)
	}
	defer cleanup()
	start := time.Now()
	rows, err := take(jc, r, n)
	q.finishEvent(tid, "collect", start, int64(len(rows)), err)
	return rows, err
}

// CountDistributedContext is CountContext over the distributed wrapper.
func (q *QueryExecution) CountDistributedContext(ctx context.Context, sql string) (int64, error) {
	r, cleanup, jc, tid, ok := q.distributed(ctx, sql)
	if !ok {
		return q.CountContext(ctx)
	}
	defer cleanup()
	start := time.Now()
	n, err := r.CountContext(jc)
	q.finishEvent(tid, "count", start, n, err)
	return n, err
}

// distributed builds the RemoteOrLocal wrapper for this query, or reports
// ok=false when the query must run locally. With observability on, the
// returned trace's id tags every span of the query (local and remote) and
// task payloads carry it, so worker replies bring back that task's spans
// and counters; with it off the trace id is "" and replies carry rows only.
func (q *QueryExecution) distributed(ctx context.Context, sql string) (*rdd.RDD[row.Row], func(), context.Context, queryTrace, bool) {
	rt := q.engine.cluster
	if rt == nil || sql == "" {
		return nil, nil, nil, queryTrace{}, false
	}
	rt.RefreshSession()
	sessionID, epoch := rt.session()
	ec := q.engine.ExecContext()
	jc, cancel := q.engine.queryContext(ctx)
	jc, trace := q.engine.beginQuery(jc)
	cleanup := func() {
		cancel()
		ec.CleanupSpills()
	}
	// Adaptive re-planning runs on the coordinator only (a repeated statement
	// replays its first run's decisions), and the decision list ships in every
	// task so workers replay — never re-derive — the adapted plan.
	pp, err := rt.adapt(jc, ec, q, sql)
	if err != nil {
		cleanup()
		return nil, nil, nil, queryTrace{}, false
	}
	var decisions json.RawMessage
	if len(q.Decisions) > 0 {
		if decisions, err = json.Marshal(q.Decisions); err != nil {
			cleanup()
			return nil, nil, nil, queryTrace{}, false
		}
	}
	local := pp.Execute(ec)
	np := local.NumPartitions()
	planHash := q.PlanHash()
	payload := func(p int) []byte {
		task := &sqlwire.QueryTask{
			SessionID:     sessionID,
			Epoch:         epoch,
			SQL:           sql,
			Partition:     p,
			NumPartitions: np,
			PlanHash:      planHash,
			Decisions:     decisions,
		}
		if trace.id != "" {
			task.TraceID = trace.id
			task.ParentSpan = fmt.Sprintf("%s/p%d", trace.id, p)
		}
		b, err := sqlwire.EncodeQuery(task)
		if err != nil {
			return nil // undecodable payload fails worker-side → fallback
		}
		return b
	}
	// Every reply is a TaskReply: unwrap the rows and merge whatever spans
	// and counter samples the worker sent into this coordinator's
	// observability state.
	decode := func(data []byte) ([]row.Row, error) {
		reply, err := sqlwire.DecodeTaskReply(data)
		if err != nil {
			return nil, err
		}
		rt.absorbReply(reply)
		return columnar.DecodeBlock(reply.Rows)
	}
	return rdd.RemoteOrLocal(local, "sql.partition", payload, decode), cleanup, jc, trace, true
}

// adaptedStatement is a distributed statement's adaptive decision list (empty
// when it adapted to nothing), as its first run over the catalog took it.
type adaptedStatement struct {
	cluster.MemoEntry
	ds []physical.Decision
}

// adapt resolves the plan a distributed statement runs. One the memo holds (by
// static plan hash and SQL text) replays its decisions, as a worker does, and
// runs no stage here; any other adapts, materializing its exchange inputs, and
// is recorded (concurrent misses both adapt; the last records). A replay changes
// speed, never an answer; a list that no longer applies is adapted afresh.
func (rt *ClusterRuntime) adapt(jc context.Context, ec *physical.ExecContext, q *QueryExecution, sql string) (physical.SparkPlan, error) {
	if !ec.Adaptive || q.Executed != nil {
		return q.prepare(jc, ec)
	}
	key := fmt.Sprintf("%016x %s", q.PlanHash(), sql)
	rt.mu.Lock()
	st, ok := rt.decisions.Get(key)
	rt.mu.Unlock()
	if ok && q.ApplyDecisions(st.ds) == nil {
		rt.replayed.Inc()
		return q.executedPlan(), nil
	}
	p, err := q.prepare(jc, ec)
	if err != nil {
		return nil, err
	}
	rt.mu.Lock()
	rt.decisions.Put(key, &adaptedStatement{ds: q.Decisions})
	rt.mu.Unlock()
	rt.materialized.Inc()
	return p, nil
}

// ApplyDecisions replays a coordinator's adaptive decision list over this
// query's static physical plan, recording the adapted tree as Executed so
// PlanHash and RDD-building reflect it — the worker-side half of adaptive
// plan parity.
func (q *QueryExecution) ApplyDecisions(ds []physical.Decision) error {
	if len(ds) == 0 {
		return nil
	}
	adapted, err := physical.ApplyDecisions(q.Physical, ds)
	if err != nil {
		return err
	}
	q.Executed = adapted
	q.Decisions = ds
	return nil
}

// ExecutedRDD lazily builds the result RDD of the executed (adapted when
// present) plan — what a worker runs partitions of.
func (q *QueryExecution) ExecutedRDD() *rdd.RDD[row.Row] {
	return q.executedPlan().Execute(q.engine.lazyExecContext())
}

// ClusterSummary renders current membership and per-worker task counts; the
// "== Cluster ==" section of EXPLAIN ANALYZE is ClusterSummaryFor its trace.
func (rt *ClusterRuntime) ClusterSummary() string { return rt.ClusterSummaryFor("") }

// ClusterSummaryFor is ClusterSummary with a per-worker rows/bytes/time
// breakdown derived from one trace's merged spans; "" covers the spans no
// trace tagged (every span when Observability is off).
func (rt *ClusterRuntime) ClusterSummaryFor(traceID string) string {
	ws := rt.coord.Workers()
	var sb strings.Builder
	fmt.Fprintf(&sb, "workers: %d registered\n", len(ws))
	reg := rt.e.RDDCtx.Metrics()
	fmt.Fprintf(&sb, "fallbacks: %d tasks computed locally\n",
		reg.Counter("cluster.fallback").Load())
	rt.mu.Lock()
	fmt.Fprintf(&sb, "session: epoch %d%s, %d statements adapted%s\n", rt.epoch, rt.status, len(rt.decisions), rt.degraded)
	rt.mu.Unlock()
	byWorker := make(map[string]WorkerActual)
	for _, wa := range workerActuals(rt.e.RDDCtx.Trace().TraceSpans(traceID, 0)) {
		byWorker[wa.Worker] = wa
	}
	for _, w := range ws {
		status := ""
		if w.Banned {
			status = " BLACKLISTED"
		}
		fmt.Fprintf(&sb, "  %s pid=%d inflight=%d failures=%d tasks=%d%s\n",
			w.ID, w.PID, w.Inflight, w.Failures,
			reg.Counter("cluster.tasks.worker."+w.ID).Load(), status)
		if wa, ok := byWorker[w.ID]; ok {
			fmt.Fprintf(&sb, "    spans=%d rows=%d bytes=%d time=%.1fms\n",
				wa.Tasks, wa.Rows, wa.Bytes, wa.Millis)
		}
	}
	if wa, ok := byWorker[""]; ok {
		fmt.Fprintf(&sb, "  local spans=%d rows=%d bytes=%d time=%.1fms\n",
			wa.Tasks, wa.Rows, wa.Bytes, wa.Millis)
	}
	return sb.String()
}
