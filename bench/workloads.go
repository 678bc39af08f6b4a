package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	sparksql "repro"
	"repro/internal/datagen"
	"repro/internal/datasource/colfile"
	"repro/internal/experiments"
	"repro/internal/row"
	"repro/internal/sqlserver"
	"repro/internal/types"
)

// workloads are the benchmark's seven inputs. Each why says which layer
// the workload is there to load; BENCHMARK.json repeats them.
var workloads = []workload{
	{"scan_colfile", "Q1c over a 500k-row colfile: column decode and row materialisation dominate; no aggregate, join or shuffle", setupScanColfile},
	{"agg_cached", "Q2a over a columnar-cached uservisits: fused aggregate and in-process partial-to-final exchange dominate; no file decode", setupAggCached},
	{"join_colfile", "Q3b over colfile rankings and uservisits: join build and probe dominate, decode and aggregate are minor shares", setupJoinColfile},
	{"cluster_shuffle", "aggregate, join and global sort through a coordinator and 2 worker processes over TCP: coordinator-side adaptive stages, task dispatch, row-block replies; workers memoize map sides per SQL text", setupClusterShuffle},
	{"store_ingest", "250-row INSERT transactions into a durable table, one WAL append and fsync each: the store's write path", setupStoreIngest},
	{"store_trickle_scan", "group-by over a durable table built from 2000 small commits: the store's read path over many segments; set-up is the trickle ingest", setupStoreTrickleScan},
	{"server_short", "sub-2 ms statements over loopback through sqlserver: parse to plan and reply serialisation are at least half the latency", setupServerShort},
}

func genRankings(seed uint64, n int64) []row.Row {
	rows := make([]row.Row, n)
	for i := range rows {
		rows[i] = datagen.RankingRow(seed<<8, int64(i))
	}
	return rows
}

func genVisits(seed uint64, n, urls int64) []row.Row {
	rows := make([]row.Row, n)
	for i := range rows {
		rows[i] = datagen.UserVisitRow(seed<<8+64, int64(i), urls)
	}
	return rows
}

const colfileRowGroup = 1 << 14

// writeColfile writes rows and registers the file as a temp table.
func writeColfile(ctx *sparksql.Context, path, table string, schema types.StructType, rows []row.Row) error {
	if err := colfile.Write(path, schema, rows, colfileRowGroup); err != nil {
		return err
	}
	df, err := ctx.Read().ColFile(path)
	if err != nil {
		return err
	}
	df.RegisterTempTable(table)
	return nil
}

// register makes rows a temp table, columnar-cached when cache is set.
func register(ctx *sparksql.Context, table string, schema types.StructType, rows []row.Row, cache bool) (sparksql.CacheInfo, time.Duration, error) {
	df, err := ctx.CreateDataFrame(schema, rows)
	if err != nil {
		return sparksql.CacheInfo{}, 0, err
	}
	var info sparksql.CacheInfo
	var took time.Duration
	if cache {
		t0 := time.Now()
		if info, err = df.Cache(); err != nil {
			return info, 0, err
		}
		took = time.Since(t0)
	}
	df.RegisterTempTable(table)
	return info, took, nil
}

func registryCounter(ctx *sparksql.Context) func(string) int64 {
	return func(name string) int64 { return ctx.Metrics().Counter(name).Load() }
}

// --- oracles: hand-written loops over the generated rows -------------------

// wantScan is Q1c: (pageURL, pageRank) of every ranking above the cutoff.
func wantScan(rankings []row.Row, cutoff int32) answer {
	var a answer
	for _, r := range rankings {
		if r.Int(1) > cutoff {
			a.add(r[0], r[1])
		}
	}
	return a
}

// revenueByPrefix is Q2a's grouping: adRevenue summed per sourceIP prefix.
func revenueByPrefix(visits []row.Row, prefix int) map[string]float64 {
	sums := map[string]float64{}
	for _, r := range visits {
		ip := r.Str(0)
		if len(ip) > prefix {
			ip = ip[:prefix]
		}
		sums[ip] += r.Double(3)
	}
	return sums
}

func wantAgg(visits []row.Row, prefix int) answer {
	var a answer
	for ip, sum := range revenueByPrefix(visits, prefix) {
		a.add(ip, sum)
	}
	return a
}

// wantJoin is Q3: the source IP with the highest revenue over visits in
// the date range that hit a ranked page, with its average page rank.
func wantJoin(rankings, visits []row.Row, lastDay int32) answer {
	rank := make(map[string]int32, len(rankings))
	for _, r := range rankings {
		rank[r.Str(0)] = r.Int(1)
	}
	type acc struct {
		rev    float64
		ranks  int64
		visits int64
	}
	by := map[string]*acc{}
	for _, v := range visits {
		day := v.Int(2)
		pr, ok := rank[v.Str(1)]
		if day < 3653 || day > lastDay || !ok {
			continue
		}
		s := by[v.Str(0)]
		if s == nil {
			s = &acc{}
			by[v.Str(0)] = s
		}
		s.rev += v.Double(3)
		s.ranks += int64(pr)
		s.visits++
	}
	var a answer
	best := ""
	for ip, s := range by {
		if best == "" || s.rev > by[best].rev {
			best = ip
		}
	}
	if best != "" {
		s := by[best]
		a.add(best, s.rev, float64(s.ranks)/float64(s.visits))
	}
	return a
}

// --- 1. scan_colfile ---------------------------------------------------------

func setupScanColfile(e *env) (*instance, error) {
	dir, err := e.mkdir()
	if err != nil {
		return nil, err
	}
	rankings := genRankings(e.seed, e.sz.ScanRankings)
	ctx := sparksql.NewContext()
	path := filepath.Join(dir, "rankings.gcf")
	if err := writeColfile(ctx, path, "rankings", datagen.RankingsSchema(), rankings); err != nil {
		return nil, err
	}
	eng := newEngine(ctx)
	q := stmt{sql: experiments.Q1(10), want: wantScan(rankings, 10), asc: -1}
	file := colRead{path: path, strings: []string{"pageURL"}, int32s: []string{"pageRank"}}
	inst := &instance{
		rowsPerOp: float64(len(rankings)),
		call:      spanCollect,
		op:        func(tr *tracer, _ int) (time.Duration, error) { return eng.run(tr, q) },
		counter:   registryCounter(ctx),
		close:     func() { ctx.Close() },
	}
	inst.layers = func(lm map[string]float64, engineMS float64) error {
		rel, err := colfile.Open(path)
		if err != nil {
			return err
		}
		native := func() error {
			c, err := file.decode(rel)
			var n int
			for i, rank := range c.i["pageRank"] {
				if rank > 10 {
					_ = c.s["pageURL"][i]
					n++
				}
			}
			if err == nil && n != q.want.rows {
				err = fmt.Errorf("native scan found %d rows, oracle %d", n, q.want.rows)
			}
			return err
		}
		return errors.Join(
			decodeProbe(lm, []colRead{file}, rankings),
			codecProbe(lm, rankings),
			nativeProbe(lm, engineMS, native))
	}
	return inst, nil
}

// --- 2. agg_cached -----------------------------------------------------------

func setupAggCached(e *env) (*instance, error) {
	visits := genVisits(e.seed, e.sz.AggVisits, e.sz.AggVisits/3)
	ctx := sparksql.NewContext()
	info, built, err := register(ctx, "uservisits", datagen.UserVisitsSchema(), visits, true)
	if err != nil {
		return nil, err
	}
	eng := newEngine(ctx)
	q := stmt{sql: experiments.Q2(8), want: wantAgg(visits, 8), asc: -1}
	inst := &instance{
		rowsPerOp: float64(len(visits)),
		call:      spanCollect,
		op:        func(tr *tracer, _ int) (time.Duration, error) { return eng.run(tr, q) },
		counter:   registryCounter(ctx),
		close:     func() { ctx.Close() },
	}
	inst.layers = func(lm map[string]float64, engineMS float64) error {
		lm["cache_build_s"] = built.Seconds()
		lm["cache_bytes_per_row"] = float64(info.ColumnarBytes) / float64(info.Rows)
		ips, revs := make([]string, len(visits)), make([]float64, len(visits))
		for i, r := range visits {
			ips[i], revs[i] = r.Str(0), r.Double(3)
		}
		native := func() error {
			sums := make(map[string]float64, 1<<16)
			for i, ip := range ips {
				if len(ip) > 8 {
					ip = ip[:8]
				}
				sums[ip] += revs[i]
			}
			if len(sums) != q.want.rows {
				return fmt.Errorf("native aggregate found %d groups, oracle %d", len(sums), q.want.rows)
			}
			return nil
		}
		return errors.Join(codecProbe(lm, visits), nativeProbe(lm, engineMS, native))
	}
	return inst, nil
}

// --- 3. join_colfile ---------------------------------------------------------

func setupJoinColfile(e *env) (*instance, error) {
	dir, err := e.mkdir()
	if err != nil {
		return nil, err
	}
	rankings := genRankings(e.seed, e.sz.JoinRankings)
	visits := genVisits(e.seed, e.sz.JoinVisits, e.sz.JoinRankings)
	ctx := sparksql.NewContext()
	rPath, vPath := filepath.Join(dir, "rankings.gcf"), filepath.Join(dir, "uservisits.gcf")
	if err := writeColfile(ctx, rPath, "rankings", datagen.RankingsSchema(), rankings); err != nil {
		return nil, err
	}
	if err := writeColfile(ctx, vPath, "uservisits", datagen.UserVisitsSchema(), visits); err != nil {
		return nil, err
	}
	eng := newEngine(ctx)
	lastDay := experiments.Q3Cutoffs[1]
	q := stmt{sql: experiments.Q3(experiments.Q3Params[1]), want: wantJoin(rankings, visits, lastDay), asc: -1}
	files := []colRead{
		{path: rPath, strings: []string{"pageURL"}, int32s: []string{"pageRank"}},
		{path: vPath, strings: []string{"sourceIP", "destURL"}, int32s: []string{"visitDate"}, doubles: []string{"adRevenue"}},
	}
	inst := &instance{
		rowsPerOp: float64(len(rankings) + len(visits)),
		call:      spanCollect,
		op:        func(tr *tracer, _ int) (time.Duration, error) { return eng.run(tr, q) },
		counter:   registryCounter(ctx),
		close:     func() { ctx.Close() },
	}
	inst.layers = func(lm map[string]float64, engineMS float64) error {
		rRel, err := colfile.Open(rPath)
		if err != nil {
			return err
		}
		vRel, err := colfile.Open(vPath)
		if err != nil {
			return err
		}
		native := func() error {
			r, err := files[0].decode(rRel)
			if err != nil {
				return err
			}
			v, err := files[1].decode(vRel)
			if err != nil {
				return err
			}
			rank := make(map[string]int32, len(r.s["pageURL"]))
			for i, u := range r.s["pageURL"] {
				rank[u] = r.i["pageRank"][i]
			}
			type acc struct {
				rev          float64
				ranks, count int64
			}
			by := make(map[string]*acc, 1<<16)
			ips, dests, days, revs := v.s["sourceIP"], v.s["destURL"], v.i["visitDate"], v.f["adRevenue"]
			for i, ip := range ips {
				pr, ok := rank[dests[i]]
				if days[i] < 3653 || days[i] > lastDay || !ok {
					continue
				}
				s := by[ip]
				if s == nil {
					s = &acc{}
					by[ip] = s
				}
				s.rev += revs[i]
				s.ranks += int64(pr)
				s.count++
			}
			best := -1.0
			for _, s := range by {
				best = max(best, s.rev)
			}
			if (best >= 0) != (q.want.rows == 1) {
				return fmt.Errorf("native join disagrees with the oracle on whether any visit matches")
			}
			return nil
		}
		return errors.Join(
			decodeProbe(lm, files, rankings, visits),
			codecProbe(lm, visits),
			nativeProbe(lm, engineMS, native))
	}
	return inst, nil
}

// --- 4. cluster_shuffle ------------------------------------------------------

const clusterWorkers = 2

// The cluster statements. At the seed commit a hash exchange whose reduce
// partitions run in different worker processes returns wrong answers
// (row.Hash is seeded per process), so the aggregate and the join end in
// a top-N — one final partition, computed inside one worker — and the
// statement that spreads over both workers is a global sort, whose range
// exchange partitions by sampled boundaries instead of a hash.
const (
	clusterAggSQL  = "SELECT SUBSTR(sourceIP, 1, 8) AS prefix, SUM(adRevenue) AS revenue FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 8) ORDER BY revenue DESC LIMIT 10"
	clusterSortSQL = "SELECT sourceIP, adRevenue FROM uservisits WHERE adRevenue > 50 ORDER BY adRevenue, sourceIP"
)

func wantTopRevenue(visits []row.Row, prefix, n int) answer {
	sums := revenueByPrefix(visits, prefix)
	var a answer
	for ; n > 0 && len(sums) > 0; n-- {
		best := ""
		for ip, s := range sums {
			if best == "" || s > sums[best] {
				best = ip
			}
		}
		a.add(best, sums[best])
		delete(sums, best)
	}
	return a
}

func wantSort(visits []row.Row, above float64) answer {
	var a answer
	for _, r := range visits {
		if r.Double(3) > above {
			a.add(r[0], r[3])
		}
	}
	return a
}

// spawnWorkers re-executes this binary as n single-threaded cluster
// workers (main and TestMain route them through sqlexec.RunIfWorker) and
// waits until they have registered. They die with the harness.
func spawnWorkers(ctx *sparksql.Context, n int) ([]*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var cmds []*exec.Cmd
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"REPRO_WORKER_ADDR="+ctx.ClusterAddr(),
			fmt.Sprintf("REPRO_WORKER_ID=w%d", i),
			"GOMAXPROCS=1")
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			stopWorkers(cmds)
			return nil, err
		}
		cmds = append(cmds, cmd)
	}
	deadline := time.Now().Add(10 * time.Second)
	for ctx.Cluster().Coordinator().NumWorkers() < n {
		if time.Now().After(deadline) {
			stopWorkers(cmds)
			return nil, fmt.Errorf("only %d of %d workers registered", ctx.Cluster().Coordinator().NumWorkers(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cmds, nil
}

func stopWorkers(cmds []*exec.Cmd) {
	for _, c := range cmds {
		c.Process.Kill()
	}
	for _, c := range cmds {
		c.Wait()
	}
}

func setupClusterShuffle(e *env) (*instance, error) {
	rankings := genRankings(e.seed, e.sz.ClusterRankings)
	visits := genVisits(e.seed, e.sz.ClusterVisits, e.sz.ClusterRankings)
	tables := func(ctx *sparksql.Context) error {
		_, _, err := register(ctx, "rankings", datagen.RankingsSchema(), rankings, false)
		if err == nil {
			_, _, err = register(ctx, "uservisits", datagen.UserVisitsSchema(), visits, false)
		}
		return err
	}
	cfg := sparksql.DefaultConfig()
	cfg.TargetPartitionBytes = e.sz.ClusterPartitionBytes
	// One coordinator task slot beside two single-threaded workers: with
	// the default of one per core the three processes oversubscribe the
	// sandbox's two cores (six same-seed runs spread 10.6 % against 3.4 %).
	cfg.Parallelism = 1
	cfg.ShufflePartitions = clusterWorkers
	local := cfg
	cfg.Cluster = &sparksql.ClusterOptions{}
	ctx := sparksql.NewContextWithConfig(cfg)
	if err := tables(ctx); err != nil {
		ctx.Close()
		return nil, err
	}
	workers, err := spawnWorkers(ctx, clusterWorkers)
	if err != nil {
		ctx.Close()
		return nil, err
	}
	closeAll := func() {
		stopWorkers(workers)
		ctx.Close()
	}
	eng := newEngine(ctx)
	stmts := []stmt{
		{sql: clusterAggSQL, want: wantTopRevenue(visits, 8, 10), asc: -1},
		{sql: experiments.Q3(experiments.Q3Params[1]), want: wantJoin(rankings, visits, experiments.Q3Cutoffs[1]), asc: -1},
		{sql: clusterSortSQL, want: wantSort(visits, 50), asc: 1},
	}
	// The first operation ships the session to both workers and makes
	// each plan the statements once; it belongs to set-up.
	shipped, err := eng.run(nil, stmts...)
	if err != nil {
		closeAll()
		return nil, err
	}
	workerTasks := func(i int) int64 {
		return ctx.Metrics().Counter(fmt.Sprintf("cluster.tasks.worker.w%d", i)).Load()
	}
	inst := &instance{
		// The aggregate and the sort read uservisits, the join reads both.
		rowsPerOp: float64(3*len(visits) + len(rankings)),
		call:      spanCollect,
		op:        func(tr *tracer, _ int) (time.Duration, error) { return eng.run(tr, stmts...) },
		close:     closeAll,
	}
	// Shuffles and tasks run in the workers, so the rdd counters are the
	// coordinator's own plus the sum the workers report on harvest.
	inst.counter = func(name string) int64 {
		v := ctx.Metrics().Counter(name).Load()
		if strings.HasPrefix(name, "rdd.") {
			ctx.Cluster().Harvest(nil)
			for i := 0; i < clusterWorkers; i++ {
				v += ctx.Cluster().WorkerCounter(fmt.Sprintf("w%d", i), name)
			}
		}
		return v
	}
	inst.finish = func() error {
		if n := ctx.Metrics().Counter("cluster.fallback").Load(); n > 0 {
			return fmt.Errorf("%d tasks fell back to local execution", n)
		}
		for i := 0; i < clusterWorkers; i++ {
			if workerTasks(i) == 0 {
				return fmt.Errorf("worker w%d served no task: the run measured fewer than %d workers", i, clusterWorkers)
			}
		}
		return nil
	}
	inst.layers = func(lm map[string]float64, engineMS float64) error {
		lm["session_ship_s"] = shipped.Seconds()
		var most, total int64
		for i := 0; i < clusterWorkers; i++ {
			most, total = max(most, workerTasks(i)), total+workerTasks(i)
		}
		lm["worker_task_skew"] = float64(most) * clusterWorkers / float64(total)
		lctx := sparksql.NewContextWithConfig(local)
		defer lctx.Close()
		if err := tables(lctx); err != nil {
			return err
		}
		leng := newEngine(lctx)
		localMS, err := medianOf(7, func() error {
			_, err := leng.run(nil, stmts...)
			return err
		})
		lm["wire_overhead_ms"] = engineMS - localMS
		return errors.Join(err, codecProbe(lm, visits))
	}
	return inst, nil
}

// --- 5. store_ingest ---------------------------------------------------------

var eventsSchema = types.StructType{}.
	Add("k", types.Long, false).
	Add("v", types.String, false).
	Add("x", types.Double, false)

// eventRow is row k of the store workloads' table.
func eventRow(seed uint64, k int64) row.Row {
	h := splitmix(seed, uint64(k))
	return row.Row{k, fmt.Sprintf("v-%016x", h), float64(h>>11) / (1 << 53) * 1000}
}

func durableConfig(dir string) sparksql.Config {
	cfg := sparksql.DefaultConfig()
	cfg.DataDir = dir
	cfg.CheckpointBytes = -1 // checkpoints are measured on their own
	return cfg
}

func openEvents(dir string) (*sparksql.Context, error) {
	ctx := sparksql.NewContextWithConfig(durableConfig(dir))
	if err := ctx.Store().CreateTable("events", eventsSchema, false); err != nil {
		ctx.Close()
		return nil, err
	}
	return ctx, nil
}

// verifyDurable closes ctx, reopens the directory and checks that exactly
// the rows of want came back from the log.
func verifyDurable(ctx *sparksql.Context, dir string, want answer) error {
	if err := ctx.Close(); err != nil {
		return err
	}
	re := sparksql.NewContextWithConfig(durableConfig(dir))
	defer re.Close()
	df, err := re.SQL("SELECT k, v, x FROM events")
	if err != nil {
		return err
	}
	rows, err := df.Collect()
	if err != nil {
		return err
	}
	if got := digestRows(rows); !got.equal(want) {
		return fmt.Errorf("after reopen the table holds %d rows (hash %x), committed %d (hash %x)", got.rows, got.hash, want.rows, want.hash)
	}
	return nil
}

const ingestSQL = "INSERT INTO events SELECT k, v, x FROM batch"

// ingestRound is one fresh durable table and the batches to commit to it.
type ingestRound struct {
	dir     string
	ctx     *sparksql.Context
	eng     *engine
	batches [][]row.Row
	want    answer
}

func newIngestRound(e *env, round int) (*ingestRound, error) {
	dir, err := e.mkdir()
	if err != nil {
		return nil, err
	}
	ctx, err := openEvents(dir)
	if err != nil {
		return nil, err
	}
	r := &ingestRound{dir: dir, ctx: ctx, eng: newEngine(ctx), batches: make([][]row.Row, e.sz.IngestRound)}
	for b := range r.batches {
		rows := make([]row.Row, e.sz.IngestBatch)
		for i := range rows {
			rows[i] = eventRow(e.seed+uint64(round), int64(b*e.sz.IngestBatch+i))
			r.want.add(rows[i]...)
		}
		r.batches[b] = rows
	}
	return r, nil
}

// done checks the round's durability and removes its directory.
func (r *ingestRound) done() error {
	err := verifyDurable(r.ctx, r.dir, r.want)
	r.ctx = nil
	os.RemoveAll(r.dir)
	return err
}

// insert commits one batch the way a user would: hand the rows to the
// engine as a frame, then INSERT ... SELECT from it. (DataFrame.Write().
// InsertInto only accepts data-source tables, not store tables.)
func (r *ingestRound) insert(tr *tracer, batch []row.Row) (time.Duration, error) {
	t0 := time.Now()
	id := tr.begin("CreateDataFrame+Register")
	_, _, err := register(r.ctx, "batch", eventsSchema, batch, false)
	tr.end(id)
	var rows []row.Row
	if err == nil {
		rows, _, err = r.eng.collect(tr, ingestSQL)
	}
	took := time.Since(t0)
	if err == nil && (len(rows) != 1 || rows[0][0] != int64(len(batch))) {
		err = fmt.Errorf("INSERT reported %v, want %d rows", rows, len(batch))
	}
	return took, err
}

func setupStoreIngest(e *env) (*instance, error) {
	cur, err := newIngestRound(e, 0)
	if err != nil {
		return nil, err
	}
	inst := &instance{
		rowsPerOp: float64(e.sz.IngestBatch),
		call:      spanCollect,
		roundOps:  e.sz.IngestRound,
		op: func(tr *tracer, i int) (time.Duration, error) {
			return cur.insert(tr, cur.batches[i%e.sz.IngestRound])
		},
		finish: func() error { return cur.done() },
		close: func() {
			if cur.ctx != nil {
				cur.ctx.Close()
			}
			os.RemoveAll(cur.dir)
		},
	}
	started := false
	inst.rotate = func(round int) error {
		if !started { // set-up built round 0
			started = true
			return nil
		}
		if err := cur.done(); err != nil {
			return err
		}
		cur, err = newIngestRound(e, round)
		return err
	}
	inst.layers = func(lm map[string]float64, engineMS float64) error {
		// A dedicated round through Store.Insert directly: the write path
		// without the SQL front end, and exact WAL and segment counts.
		p, err := newIngestRound(e, 1<<20)
		if err != nil {
			return err
		}
		defer os.RemoveAll(p.dir)
		reg := p.ctx.Metrics()
		var userBytes, rows int64
		lat := make([]float64, len(p.batches))
		for b, batch := range p.batches {
			for _, r := range batch {
				userBytes += r.FlatSize()
			}
			rows += int64(len(batch))
			t0 := time.Now()
			if _, err := p.ctx.Store().Insert("events", batch); err != nil {
				p.ctx.Close()
				return err
			}
			lat[b] = float64(time.Since(t0)) / 1e6
		}
		ops := float64(len(p.batches))
		lm["insert_ms"] = median(lat)
		lm["wal_bytes_per_user_byte"] = float64(reg.Counter("store.wal.bytes").Load()) / float64(userBytes)
		lm["txn_commits_per_op"] = float64(reg.Counter("store.txn.commits").Load()) / ops
		lm["stats_refreshes_per_op"] = float64(reg.Counter("store.stats.refreshes").Load()) / ops
		lm["segments"] = float64(len(p.ctx.Store().Snapshot("events").Table.Partitions))
		return errors.Join(
			codecProbe(lm, p.batches[0]),
			storeProbes(lm, p.ctx, durableConfig(p.dir), rows))
	}
	return inst, nil
}

// --- 6. store_trickle_scan ---------------------------------------------------

const trickleSQL = "SELECT k % 10, SUM(x), COUNT(*) FROM events GROUP BY k % 10"

func setupStoreTrickleScan(e *env) (*instance, error) {
	dir, err := e.mkdir()
	if err != nil {
		return nil, err
	}
	ctx, err := openEvents(dir)
	if err != nil {
		return nil, err
	}
	var sums [10]float64
	var counts [10]int64
	var userBytes int64
	lat := make([]float64, e.sz.TrickleTxns)
	var sample []row.Row
	for t := range lat {
		batch := make([]row.Row, e.sz.TrickleBatch)
		for i := range batch {
			k := int64(t*e.sz.TrickleBatch + i)
			batch[i] = eventRow(e.seed, k)
			sums[k%10] += batch[i].Double(2)
			counts[k%10]++
			userBytes += batch[i].FlatSize()
		}
		t0 := time.Now()
		if _, err := ctx.Store().Insert("events", batch); err != nil {
			ctx.Close()
			return nil, err
		}
		lat[t] = float64(time.Since(t0)) / 1e6
		sample = batch
	}
	q := stmt{sql: trickleSQL, asc: -1}
	for g := range sums {
		if counts[g] > 0 {
			q.want.add(int64(g), sums[g], counts[g])
		}
	}
	rows := int64(e.sz.TrickleTxns * e.sz.TrickleBatch)
	eng := newEngine(ctx)
	inst := &instance{
		rowsPerOp: float64(rows),
		call:      spanCollect,
		op:        func(tr *tracer, _ int) (time.Duration, error) { return eng.run(tr, q) },
		counter:   registryCounter(ctx),
	}
	inst.close = func() {
		if ctx != nil {
			ctx.Close()
		}
		os.RemoveAll(dir)
	}
	inst.layers = func(lm map[string]float64, engineMS float64) error {
		reg := ctx.Metrics()
		lm["insert_ms"] = median(lat)
		lm["wal_bytes_per_user_byte"] = float64(reg.Counter("store.wal.bytes").Load()) / float64(userBytes)
		lm["segments"] = float64(len(ctx.Store().Snapshot("events").Table.Partitions))
		probed := ctx
		ctx = nil // storeProbes closes it
		return errors.Join(codecProbe(lm, sample), storeProbes(lm, probed, durableConfig(dir), rows))
	}
	return inst, nil
}

// --- 7. server_short ---------------------------------------------------------

// serverStatements builds n short statements from four templates with
// literals drawn from the seed, each with its expected reply.
func serverStatements(seed uint64, n int, rankings, visits []row.Row) []stmt {
	out := make([]stmt, n)
	for i := range out {
		lit := splitmix(seed, uint64(i))
		var s stmt
		s.asc = -1
		switch i % 4 {
		case 0: // filtered top-10
			x := int32(20 + lit%200)
			s.sql = fmt.Sprintf("SELECT pageURL, pageRank FROM rankings WHERE pageRank > %d ORDER BY pageRank DESC, pageURL LIMIT 10", x)
			var hits []row.Row
			for _, r := range rankings {
				if r.Int(1) > x {
					hits = append(hits, r)
				}
			}
			for k := 0; k < 10 && len(hits) > 0; k++ {
				best := 0
				for j, r := range hits {
					if r.Int(1) > hits[best].Int(1) || (r.Int(1) == hits[best].Int(1) && r.Str(0) < hits[best].Str(0)) {
						best = j
					}
				}
				s.want.add(hits[best][0], hits[best][1])
				hits[best] = hits[len(hits)-1]
				hits = hits[:len(hits)-1]
			}
		case 1: // small group-by
			d := int32(lit % 50)
			s.sql = fmt.Sprintf("SELECT avgDuration %% 10, COUNT(*), SUM(pageRank) FROM rankings WHERE avgDuration > %d GROUP BY avgDuration %% 10", d)
			var counts, sums [10]int64
			for _, r := range rankings {
				if r.Int(2) > d {
					counts[r.Int(2)%10]++
					sums[r.Int(2)%10] += int64(r.Int(1))
				}
			}
			for g := range counts {
				if counts[g] > 0 {
					s.want.add(g, counts[g], sums[g])
				}
			}
		case 2: // point count
			url := rankings[lit%uint64(len(rankings))].Str(0)
			s.sql = fmt.Sprintf("SELECT COUNT(*) FROM rankings WHERE pageURL = '%s'", url)
			s.want.add(1)
		case 3: // two-table join
			d := int32(950 + lit%45)
			s.sql = fmt.Sprintf("SELECT r.pageURL, r.pageRank, v.duration FROM rankings r JOIN uservisits v ON r.pageURL = v.destURL WHERE v.duration > %d", d)
			rank := map[string]int32{}
			for _, r := range rankings {
				rank[r.Str(0)] = r.Int(1)
			}
			for _, v := range visits {
				if pr, ok := rank[v.Str(1)]; ok && v.Int(8) > d {
					s.want.add(v[1], pr, v[8])
				}
			}
		}
		out[i] = s
	}
	return out
}

const spanQuery = "Client.Query"

func setupServerShort(e *env) (*instance, error) {
	rankings := genRankings(e.seed, e.sz.ServerRows)
	visits := genVisits(e.seed, e.sz.ServerRows, e.sz.ServerRows)
	ctx := sparksql.NewContext()
	info, built, err := register(ctx, "rankings", datagen.RankingsSchema(), rankings, true)
	if err == nil {
		_, _, err = register(ctx, "uservisits", datagen.UserVisitsSchema(), visits, true)
	}
	if err != nil {
		return nil, err
	}
	srv := sqlserver.New(ctx)
	srv.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	client, err := sqlserver.Dial(addr.String())
	if err != nil {
		srv.Close()
		return nil, err
	}
	eng := newEngine(ctx)
	stmts := serverStatements(e.seed, e.sz.ServerStmts, rankings, visits)
	check := func(s stmt, res *sqlserver.Result) error {
		var got answer
		cells := make([]any, 0, 4)
		for _, r := range res.Rows {
			cells = cells[:0]
			for _, c := range r {
				cells = append(cells, c)
			}
			got.add(cells...)
		}
		if !got.equal(s.want) {
			return fmt.Errorf("wrong reply for %.60q: got %d rows (hash %x), want %d rows (hash %x)", s.sql, got.rows, got.hash, s.want.rows, s.want.hash)
		}
		return nil
	}
	var replyBytes, replyRows int64
	inst := &instance{
		// Every template reads rankings; the join also reads uservisits.
		rowsPerOp: float64(e.sz.ServerRows) * 1.25,
		call:      spanQuery,
		counter:   registryCounter(ctx),
		op: func(tr *tracer, i int) (time.Duration, error) {
			s := stmts[i%len(stmts)]
			t0 := time.Now()
			if tr != nil {
				if err := eng.frontend(tr, s.sql); err != nil {
					return time.Since(t0), err
				}
			}
			id := tr.begin(spanQuery)
			res, err := client.Query(s.sql)
			tr.end(id)
			took := time.Since(t0)
			if err != nil {
				return took, err
			}
			if tr != nil {
				for _, r := range res.Rows {
					replyRows++
					for _, c := range r {
						replyBytes += int64(len(c)) + 1 // cell plus tab or newline
					}
				}
			}
			return took, check(s, res)
		},
		close: func() {
			client.Close()
			srv.Close()
			ctx.Close()
		},
	}
	inst.layers = func(lm map[string]float64, engineMS float64) error {
		lm["cache_build_s"] = built.Seconds()
		lm["cache_bytes_per_row"] = float64(info.ColumnarBytes) / float64(info.Rows)
		if replyRows > 0 {
			lm["reply_bytes_per_row"] = float64(replyBytes) / float64(replyRows)
		}
		// The same statements in process: what the wire, the line protocol
		// and the server's bookkeeping add.
		var inproc, wire []float64
		for rep := 0; rep < 5; rep++ {
			for _, s := range stmts {
				_, d, err := eng.collect(nil, s.sql)
				if err != nil {
					return err
				}
				inproc = append(inproc, float64(d)/1e3)
				t0 := time.Now()
				if _, err := client.Query(s.sql); err != nil {
					return err
				}
				wire = append(wire, float64(time.Since(t0))/1e3)
			}
		}
		lm["server_overhead_us"] = median(wire) - median(inproc)
		return codecProbe(lm, rankings)
	}
	return inst, nil
}
