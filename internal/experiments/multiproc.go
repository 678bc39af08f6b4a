package experiments

// Multi-process chaos: the distributed-execution counterpart of the
// in-process chaos study. The harness runs a coordinator context in this
// process and 3–5 real worker processes (the current executable re-execed
// with REPRO_WORKER_ADDR set — callers' TestMain must route that through
// sqlexec.RunIfWorker), then drives the SQL chaos workload while
// SIGKILLing workers mid-query, respawning them under the same identity,
// evicting one via dropped heartbeats and corrupting a task-result frame.
// Every query's result must stay byte-identical to a fault-free local
// golden run: worker loss may only ever cost time, never answers.

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	sparksql "repro"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/types"
)

// MultiprocConfig shapes one multi-process chaos run.
type MultiprocConfig struct {
	// Workers is how many worker processes to spawn (the issue's 3–5).
	Workers int
	// N is the rankings table size.
	N int64
	// Chaos is the worker-side injected task-failure schedule, shipped to
	// every worker and mirrored on the coordinator so local fallback tasks
	// see the same faults. Zero FailureRate disables injection.
	Chaos ChaosConfig
	// KillWorker SIGKILLs one worker mid-query and respawns it under the
	// same identity (exercising session re-initialization).
	KillWorker bool
	// FrameFaults evicts one worker by dropping its heartbeats and then
	// corrupts a task-result frame, exercising CRC-driven eviction.
	FrameFaults bool
	// MemoryBudget, when non-zero, runs the workload under a spill-forcing
	// budget on the coordinator (the spill suite's distributed variant).
	MemoryBudget int64
}

// DefaultMultiprocConfig is the configuration the multiproc tests and
// scripts/check.sh run: three workers, every fault class enabled.
func DefaultMultiprocConfig() MultiprocConfig {
	return MultiprocConfig{
		Workers:     3,
		N:           1200,
		Chaos:       ChaosConfig{Seed: 0xD157, FailureRate: 0.1, FailedAttempts: 2},
		KillWorker:  true,
		FrameFaults: true,
	}
}

// MultiprocResult summarizes one run for reporting.
type MultiprocResult struct {
	// Queries is how many distributed statements were verified.
	Queries int
	// RemoteTasks is how many tasks completed on worker processes.
	RemoteTasks int64
	// FailedDispatches counts dispatches that errored (worker loss,
	// injected faults, frame faults) and were recovered from.
	FailedDispatches int64
	// Fallbacks counts tasks workers refused (ErrRemoteFallback) that
	// were computed locally — driven nonzero by the unshippable-table
	// phase and surfaced as the cluster.fallback counter.
	Fallbacks int64
	// Kills is how many worker processes were SIGKILLed or evicted.
	Kills int
	// RecoveryMillis is, per kill, the time from the fault to the next
	// successfully verified query (includes eviction detection, retry and
	// any local recompute).
	RecoveryMillis []float64
}

// multiprocQueries is the distributed workload: filter, aggregation,
// count, shuffle join and global sort — every exchange flavor.
func multiprocQueries() []string {
	return []string{
		"SELECT pageURL, pageRank FROM rankings WHERE pageRank > 30",
		"SELECT pageRank, COUNT(*), SUM(avgDuration) FROM rankings GROUP BY pageRank",
		"SELECT COUNT(*) FROM rankings WHERE pageRank > 50",
		"SELECT a.pageURL, a.pageRank, b.avgDuration FROM rankings a JOIN rankings b ON a.pageURL = b.pageURL",
		"SELECT DISTINCT pageRank FROM rankings ORDER BY pageRank",
	}
}

// runUnshippablePhase registers an RDD-backed temp view (which the
// session spec cannot encode), runs a distributed query over it, and
// verifies both the answer and that the refusal surfaced: the
// cluster.fallback counter rose and EXPLAIN ANALYZE's "== Cluster =="
// section reports the tasks computed locally.
func runUnshippablePhase(dist *sparksql.Context, res *MultiprocResult) error {
	schema := types.StructType{}.
		Add("k", types.Long, false).
		Add("v", types.Long, false)
	rows := make([]row.Row, 64)
	var wantSum int64
	for i := range rows {
		rows[i] = row.Row{int64(i % 8), int64(i)}
		wantSum += int64(i)
	}
	r := rdd.Parallelize(dist.RDDContext(), rows, 4)
	df, err := dist.CreateDataFrameFromRDD(schema, r)
	if err != nil {
		return fmt.Errorf("multiproc unshippable: %w", err)
	}
	df.RegisterTempTable("unshippable")

	before := dist.RDDContext().RemoteFallbacks()
	got, err := collectSQL(dist, "SELECT SUM(v) FROM unshippable")
	if err != nil {
		return fmt.Errorf("multiproc unshippable: %w", err)
	}
	if len(got) != 1 || fmt.Sprint(got[0][0]) != fmt.Sprint(wantSum) {
		return fmt.Errorf("multiproc unshippable: got %v, want [[%d]]", got, wantSum)
	}
	if dist.RDDContext().RemoteFallbacks() == before {
		return fmt.Errorf("multiproc: unshippable query never fell back to local compute")
	}
	res.Fallbacks = dist.RDDContext().RemoteFallbacks()

	qdf, err := dist.SQL("SELECT COUNT(*) FROM unshippable")
	if err != nil {
		return err
	}
	ea, err := qdf.ExplainAnalyze()
	if err != nil {
		return err
	}
	if !strings.Contains(ea, "== Cluster ==") {
		return fmt.Errorf("multiproc: EXPLAIN ANALYZE missing cluster section:\n%s", ea)
	}
	if !fallbackLine.MatchString(ea) {
		return fmt.Errorf("multiproc: cluster section does not report fallbacks:\n%s", ea)
	}
	if !skippedLine.MatchString(ea) {
		return fmt.Errorf("multiproc: cluster section does not name the table it could not ship:\n%s", ea)
	}
	return nil
}

var (
	fallbackLine = regexp.MustCompile(`fallbacks: [1-9]\d* tasks computed locally`)
	skippedLine  = regexp.MustCompile(`session: epoch [1-9]\d*, \d+ tables, \d+ bytes, \d+ statements adapted, skipped: unshippable\n`)
)

// workerProc is one spawned worker process.
type workerProc struct {
	id  string
	cmd *exec.Cmd
}

// spawnWorker re-execs the current binary as a worker joining addr. The
// child dies with the parent (PDEATHSIG) so a crashed harness cannot leak
// processes.
func spawnWorker(addr, id string) (*workerProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"REPRO_WORKER_ADDR="+addr,
		"REPRO_WORKER_ID="+id,
		"REPRO_WORKER_HEARTBEAT_MS=100",
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// Reap in the background so kills do not leave zombies.
	w := &workerProc{id: id, cmd: cmd}
	go cmd.Wait()
	return w, nil
}

func (w *workerProc) kill() {
	w.cmd.Process.Kill()
}

// waitWorkers blocks until n workers are registered (or errors out).
func waitWorkers(ctx *sparksql.Context, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for ctx.Cluster().Coordinator().NumWorkers() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("multiproc: only %d/%d workers registered after %v",
				ctx.Cluster().Coordinator().NumWorkers(), n, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// loadUserVisits registers n generated uservisits rows over n/3 URLs.
func loadUserVisits(ctx *sparksql.Context, seed uint64, n int64, cached bool) error {
	rows := make([]row.Row, n)
	for i := range rows {
		rows[i] = datagen.UserVisitRow(seed, int64(i), n/3)
	}
	df, err := ctx.CreateDataFrame(datagen.UserVisitsSchema(), rows)
	if err != nil {
		return err
	}
	if cached {
		if _, err := df.Cache(); err != nil {
			return err
		}
	}
	df.RegisterTempTable("uservisits")
	return nil
}

// RunMultiprocChaos runs the distributed chaos suite. The calling process
// must have passed sqlexec.RunIfWorker in its TestMain (or equivalent) so
// the re-exec spawns workers rather than recursing into the harness.
func RunMultiprocChaos(cfg MultiprocConfig) (*MultiprocResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	res := &MultiprocResult{}
	queries := multiprocQueries()

	// Fault-free local golden run.
	golden, err := chaosContext(cfg.N, false, false)
	if err != nil {
		return nil, err
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		rows, err := collectSQL(golden, q)
		if err != nil {
			return nil, fmt.Errorf("multiproc golden %q: %w", q, err)
		}
		want[i] = formatRows(rows)
	}

	// Coordinator context: aggressive heartbeat deadline so eviction (and
	// therefore recovery) is fast enough to measure in a test run.
	dcfg := sparksql.DefaultConfig()
	dcfg.Parallelism = 4
	dcfg.ShufflePartitions = 4
	dcfg.MemoryBudget = cfg.MemoryBudget
	dcfg.Cluster = &sparksql.ClusterOptions{
		HeartbeatTimeout: 700 * time.Millisecond,
		TaskTimeout:      30 * time.Second,
	}
	dist := sparksql.NewContextWithConfig(dcfg)
	defer dist.Close()
	if err := loadRankings(dist, cfg.N, false); err != nil {
		return nil, err
	}
	rc := dist.RDDContext()
	rc.SetBackoff(time.Microsecond, 50*time.Microsecond)
	if cfg.Chaos.FailureRate > 0 {
		rc.SetFailureHook(cfg.Chaos.spec().Hook())
		dist.Cluster().SetChaos(cfg.Chaos.spec())
		dist.Cluster().SetWorkerBackoff(time.Microsecond, 50*time.Microsecond, cfg.Chaos.Seed)
	}

	check := func(phase string, idx int) error {
		rows, err := collectSQL(dist, queries[idx])
		if err != nil {
			return fmt.Errorf("multiproc %s %q: %w", phase, queries[idx], err)
		}
		if formatRows(rows) != want[idx] {
			return fmt.Errorf("multiproc %s: %q diverged from local golden", phase, queries[idx])
		}
		res.Queries++
		return nil
	}

	// Phase 0: zero workers — graceful degradation to local execution.
	if err := check("zero-workers", 0); err != nil {
		return nil, err
	}
	if n := dist.Metrics().Counter("cluster.tasks.dispatched").Load(); n != 0 {
		return nil, fmt.Errorf("multiproc: %d tasks dispatched with no workers", n)
	}

	// Phase 1: spawn the fleet, run everything distributed.
	addr := dist.ClusterAddr()
	procs := make(map[string]*workerProc, cfg.Workers)
	defer func() {
		for _, p := range procs {
			p.kill()
		}
	}()
	for i := 0; i < cfg.Workers; i++ {
		id := fmt.Sprintf("mp-w%d", i)
		p, err := spawnWorker(addr, id)
		if err != nil {
			return nil, fmt.Errorf("multiproc: spawn %s: %w", id, err)
		}
		procs[id] = p
	}
	if err := waitWorkers(dist, cfg.Workers, 10*time.Second); err != nil {
		return nil, err
	}
	for i := range queries {
		if err := check("distributed", i); err != nil {
			return nil, err
		}
	}

	// Phase 1b: a query over a table the session spec cannot ship. An
	// RDD-backed temp view is neither a LocalRelation nor a cached
	// relation, so collectTables skips it; workers fail analysis, refuse
	// with a fallback error, and every partition computes locally. The
	// fallback must be visible: the cluster.fallback counter and the
	// EXPLAIN ANALYZE "== Cluster ==" section both report it.
	if err := runUnshippablePhase(dist, res); err != nil {
		return nil, err
	}

	// Phase 2: SIGKILL one worker while a query is in flight, then verify
	// the whole workload again. The killed worker's shuffle output and
	// session state die with the process; lineage recompute and retry must
	// absorb the loss. Recovery latency is fault → next verified answer.
	if cfg.KillWorker {
		victim := procs["mp-w0"]
		var killed atomic.Bool
		go func() {
			time.Sleep(2 * time.Millisecond) // land mid-query, not between
			victim.kill()
			killed.Store(true)
		}()
		start := time.Now()
		for i := range queries {
			if err := check("worker-kill", i); err != nil {
				return nil, err
			}
		}
		for !killed.Load() {
			time.Sleep(time.Millisecond)
		}
		res.Kills++
		res.RecoveryMillis = append(res.RecoveryMillis,
			float64(time.Since(start).Microseconds())/1000)

		// Respawn under the same identity: the coordinator's init cache
		// still remembers mp-w0, so the first dispatch to the fresh process
		// must trip the uninitialized-session retry and re-ship the spec.
		p, err := spawnWorker(addr, "mp-w0")
		if err != nil {
			return nil, fmt.Errorf("multiproc: respawn: %w", err)
		}
		procs["mp-w0"] = p
		if err := waitWorkers(dist, cfg.Workers, 10*time.Second); err != nil {
			return nil, err
		}
		if err := check("respawn", 1); err != nil {
			return nil, err
		}
	}

	// Phase 3: frame faults. Drop every heartbeat from one worker — the
	// janitor must evict it even though its TCP connection stays healthy —
	// then corrupt a task-result frame, which reads as a checksum failure
	// and evicts the sender. Answers still may not change.
	if cfg.FrameFaults {
		coord := dist.Cluster().Coordinator()
		coord.SetFrameFaultHook(func(workerID string, frameType byte) cluster.FrameFault {
			if workerID == "mp-w1" && frameType == cluster.FrameTypeHeartbeat {
				return cluster.FrameDrop
			}
			return cluster.FramePass
		})
		start := time.Now()
		evictDeadline := time.Now().Add(10 * time.Second)
		for coord.NumWorkers() > cfg.Workers-1 {
			if time.Now().After(evictDeadline) {
				return nil, fmt.Errorf("multiproc: heartbeat-starved worker never evicted")
			}
			time.Sleep(10 * time.Millisecond)
		}
		coord.SetFrameFaultHook(nil)
		res.Kills++
		if err := check("heartbeat-eviction", 2); err != nil {
			return nil, err
		}
		res.RecoveryMillis = append(res.RecoveryMillis,
			float64(time.Since(start).Microseconds())/1000)

		// One corrupted result frame: the first dispatch after this loses
		// its worker; the retry (elsewhere or local) still answers.
		var corrupted atomic.Bool
		coord.SetFrameFaultHook(func(workerID string, frameType byte) cluster.FrameFault {
			if frameType == cluster.FrameTypeTaskResult && corrupted.CompareAndSwap(false, true) {
				return cluster.FrameCorrupt
			}
			return cluster.FramePass
		})
		if err := check("corrupt-frame", 3); err != nil {
			return nil, err
		}
		coord.SetFrameFaultHook(nil)
		if corrupted.Load() {
			res.Kills++
		}
	}

	res.RemoteTasks = dist.Metrics().Counter("cluster.tasks.completed").Load()
	res.FailedDispatches = dist.Metrics().Counter("cluster.tasks.failed").Load()
	if res.RemoteTasks == 0 {
		return nil, fmt.Errorf("multiproc: no task ever completed on a worker process")
	}
	return res, nil
}

// RunMultiprocHashExchange is the regression for process-independent
// hashing: two worker processes, two reduce partitions, and statements whose
// hash exchanges therefore have their reduce partitions computed in
// different processes — plain Q2a (an aggregate exchange) and a shuffled
// join. Each worker recomputes the map side and keeps only its own reduce
// partition, so a key is counted once only if every process buckets it
// identically; with a per-process hash seed Q2a returned more groups than
// exist. Every answer must equal a local run's exactly, every task must run
// on a worker (cluster.fallback stays 0), and both workers must have served.
// With cached tables the same statements also pin plan-hash parity: column
// NDV sketches hash values too, so per-process seeds gave coordinator and
// workers different estimates, a different Q3b plan, and a refused task.
// With broadcast set the joins broadcast instead of shuffling, so over cached
// tables Q3b is batches from the fused probe through the fused aggregate to
// its top-K, planned and run by every process. With observe off the engine
// runs without Observability, so worker replies carry rows and nothing else.
// Without broadcast, the outer join of rankings to an empty uservisits
// filter is planned shuffled and promoted to a broadcast join by the
// coordinator's adaptive driver: the workers run it only by replaying that
// shipped decision, so its plan hash matches and no task falls back.
func RunMultiprocHashExchange(visits int64, cached, broadcast, observe bool) error {
	cfg := sparksql.DefaultConfig()
	cfg.Observability = observe
	cfg.Parallelism = 2
	cfg.ShufflePartitions = 2
	// Keep both reduce partitions (no adaptive coalescing to one) and, unless
	// asked otherwise, keep the join shuffled rather than broadcast.
	cfg.TargetPartitionBytes = 16 << 10
	if !broadcast {
		cfg.BroadcastThreshold = 1
	}
	load := func(ctx *sparksql.Context) error {
		if err := loadUserVisits(ctx, 42, visits, cached); err != nil {
			return err
		}
		return loadRankings(ctx, visits/3, cached)
	}
	queries := []string{
		Q2(8),
		Q3(Q3Params[1]),
		"SELECT r.pageURL, r.pageRank, v.adRevenue FROM rankings r JOIN uservisits v ON r.pageURL = v.destURL WHERE v.adRevenue > 50",
		promoted,
	}

	local := sparksql.NewContextWithConfig(cfg)
	defer local.Close()
	if err := load(local); err != nil {
		return err
	}
	cfg.Cluster = &sparksql.ClusterOptions{}
	dist := sparksql.NewContextWithConfig(cfg)
	defer dist.Close()
	if err := load(dist); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		p, err := spawnWorker(dist.ClusterAddr(), fmt.Sprintf("hx-w%d", i))
		if err != nil {
			return fmt.Errorf("multiproc hash exchange: spawn: %w", err)
		}
		defer p.kill()
	}
	if err := waitWorkers(dist, 2, 10*time.Second); err != nil {
		return err
	}
	for _, q := range queries {
		want, err := collectSQL(local, q)
		if err != nil {
			return fmt.Errorf("multiproc hash exchange local %q: %w", q, err)
		}
		got, err := collectSQL(dist, q)
		if err != nil {
			return fmt.Errorf("multiproc hash exchange %q: %w", q, err)
		}
		if len(got) != len(want) {
			return fmt.Errorf("multiproc hash exchange: %q returned %d rows across 2 workers, %d locally", q, len(got), len(want))
		}
		if formatRows(got) != formatRows(want) {
			return fmt.Errorf("multiproc hash exchange: %q diverged from the local answer", q)
		}
	}
	if cached && broadcast {
		df, err := dist.SQL(Q3(Q3Params[1]))
		if err != nil {
			return err
		}
		plan, err := df.Explain()
		if err != nil {
			return err
		}
		for _, op := range []string{"TopK n=1 [", "Exchange presplit", "(fused: true, table=", "FusedBroadcastHashJoin"} {
			if !strings.Contains(plan, op) {
				return fmt.Errorf("multiproc hash exchange: Q3b's plan lacks %s:\n%s", op, plan)
			}
		}
	}
	if !broadcast {
		df, err := dist.SQL(promoted)
		if err != nil {
			return err
		}
		out, err := df.ExplainAnalyze()
		if err != nil {
			return err
		}
		if !strings.Contains(out, "(adapted: ShuffledHashJoin -> BroadcastHashJoin (build side 0 B observed") {
			return fmt.Errorf("multiproc hash exchange: the outer join was not promoted:\n%s", out)
		}
	}
	if n := dist.RDDContext().RemoteFallbacks(); n != 0 {
		return fmt.Errorf("multiproc hash exchange: %d tasks fell back to local compute", n)
	}
	if n := dist.Metrics().Counter("rdd.stages.nested").Load(); n != 0 {
		return fmt.Errorf("multiproc hash exchange: the coordinator ran %d stages from inside a task", n)
	}
	for i := 0; i < 2; i++ {
		if dist.Metrics().Counter(fmt.Sprintf("cluster.tasks.worker.hx-w%d", i)).Load() == 0 {
			return fmt.Errorf("multiproc hash exchange: worker hx-w%d served no task", i)
		}
	}
	return nil
}

// promoted is an outer join whose build side is empty: estimated above a
// 1-byte broadcast limit, observed at 0 B. It selects the join's whole
// output, so no pipeline sits above the join to hide it from the driver.
const promoted = `SELECT * FROM (SELECT pageURL, pageRank FROM rankings) r
	LEFT JOIN (SELECT destURL, adRevenue FROM uservisits WHERE adRevenue < 0) v ON r.pageURL = v.destURL`

// RunMultiprocCatalogChange changes the catalog between statements on 2
// worker processes: the coordinator ships a table's blocks once per relation
// and re-ships what the catalog replaced, so uservisits is replaced between
// two runs of Q2a while rankings stays, and a durable table takes a commit
// between two reads. Every answer must equal a local run's over the same
// catalog, each change must cost exactly the encode of the table that
// changed, and no task may fall back.
func RunMultiprocCatalogChange(visits int64) error {
	cfg := sparksql.DefaultConfig()
	cfg.Parallelism = 2
	cfg.ShufflePartitions = 2
	cfg.TargetPartitionBytes = 16 << 10 // keep both reduce partitions, one per worker
	local := sparksql.NewContextWithConfig(cfg)
	defer local.Close()
	cfg.Cluster = &sparksql.ClusterOptions{}
	dist := sparksql.NewContextWithConfig(cfg)
	defer dist.Close()
	both := func(step func(*sparksql.Context) error) error {
		if err := step(local); err != nil {
			return err
		}
		return step(dist)
	}
	loadVisits := func(seed uint64, n int64) func(*sparksql.Context) error {
		return func(ctx *sparksql.Context) error { return loadUserVisits(ctx, seed, n, false) }
	}
	run := func(sql string) func(*sparksql.Context) error {
		return func(ctx *sparksql.Context) error {
			_, err := ctx.SQL(sql)
			return err
		}
	}
	commit := func(from, n int) func(*sparksql.Context) error {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("(%d, 'v%d')", (from+i)%97, from+i)
		}
		return run("INSERT INTO events VALUES " + strings.Join(vals, ", "))
	}
	for i := 0; i < 2; i++ {
		p, err := spawnWorker(dist.ClusterAddr(), fmt.Sprintf("cc-w%d", i))
		if err != nil {
			return fmt.Errorf("multiproc catalog change: spawn: %w", err)
		}
		defer p.kill()
	}
	if err := waitWorkers(dist, 2, 10*time.Second); err != nil {
		return err
	}
	encoded := dist.Metrics().Counter("cluster.session.tables.encoded")
	epoch := dist.Metrics().Gauge("cluster.session.epoch")
	steps := []struct {
		name    string
		change  func(*sparksql.Context) error
		query   string
		encodes int64
	}{
		{"first catalog", func(ctx *sparksql.Context) error {
			if err := loadRankings(ctx, visits/3, false); err != nil {
				return err
			}
			return loadVisits(42, visits)(ctx)
		}, Q2(8), 2},
		{"unchanged catalog", func(*sparksql.Context) error { return nil }, Q2(8), 0},
		{"uservisits replaced", loadVisits(43, visits+visits/2), Q2(8), 1},
		{"durable table created", func(ctx *sparksql.Context) error {
			if err := run("CREATE TABLE events (k BIGINT NOT NULL, v STRING)")(ctx); err != nil {
				return err
			}
			return commit(0, 2000)(ctx)
		}, "SELECT k, COUNT(*) FROM events GROUP BY k", 1}, // the version the statement sees, not each commit
		{"durable table committed", commit(2000, 1500), "SELECT k, COUNT(*) FROM events GROUP BY k", 1},
	}
	for _, st := range steps {
		enc0, ep0 := encoded.Load(), epoch.Load()
		if err := both(st.change); err != nil {
			return fmt.Errorf("multiproc catalog change, %s: %w", st.name, err)
		}
		want, err := collectSQL(local, st.query)
		if err != nil {
			return fmt.Errorf("multiproc catalog change, %s, local: %w", st.name, err)
		}
		got, err := collectSQL(dist, st.query)
		if err != nil {
			return fmt.Errorf("multiproc catalog change, %s: %w", st.name, err)
		}
		if len(want) == 0 || formatRows(got) != formatRows(want) {
			return fmt.Errorf("multiproc catalog change, %s: %d rows across 2 workers diverged from the %d local ones", st.name, len(got), len(want))
		}
		if n := encoded.Load() - enc0; n != st.encodes {
			return fmt.Errorf("multiproc catalog change, %s: %d tables encoded, want %d", st.name, n, st.encodes)
		}
		if moved := epoch.Load() != ep0; moved != (st.encodes > 0) {
			return fmt.Errorf("multiproc catalog change, %s: epoch %d → %d after %d encodes", st.name, ep0, epoch.Load(), st.encodes)
		}
		if n := dist.RDDContext().RemoteFallbacks(); n != 0 {
			return fmt.Errorf("multiproc catalog change, %s: %d tasks fell back to local compute", st.name, n)
		}
	}
	for i := 0; i < 2; i++ {
		if dist.Metrics().Counter(fmt.Sprintf("cluster.tasks.worker.cc-w%d", i)).Load() == 0 {
			return fmt.Errorf("multiproc catalog change: worker cc-w%d served no task", i)
		}
	}
	return nil
}
