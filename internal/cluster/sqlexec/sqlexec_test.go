package sqlexec_test

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"testing"
	"time"

	sparksql "repro"
	"repro/internal/cluster"
	"repro/internal/cluster/sqlexec"
	"repro/internal/cluster/sqlwire"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/row"
	"repro/internal/sqlserver"
)

// The in-process end-to-end: a coordinator context plus N workers over
// real TCP, all inside one test binary. Multi-process coverage (SIGKILL,
// respawn) lives in internal/experiments' multiproc harness.

func formatRows(rows []row.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = row.FormatValue(v)
		}
		lines[i] = strings.Join(parts, "\t")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func loadRankings(t *testing.T, ctx *sparksql.Context, n int64, cached bool) {
	t.Helper()
	rows := make([]row.Row, n)
	for i := int64(0); i < n; i++ {
		rows[i] = datagen.RankingRow(42, i)
	}
	df, err := ctx.CreateDataFrame(datagen.RankingsSchema(), rows)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		if _, err := df.Cache(); err != nil {
			t.Fatal(err)
		}
	}
	df.RegisterTempTable("rankings")
}

func clusterConfig() sparksql.Config {
	cfg := sparksql.DefaultConfig()
	cfg.Parallelism = 4
	cfg.ShufflePartitions = 4
	cfg.Cluster = &sparksql.ClusterOptions{
		HeartbeatTimeout: 500 * time.Millisecond,
		TaskTimeout:      30 * time.Second,
	}
	return cfg
}

func localConfig() sparksql.Config {
	cfg := sparksql.DefaultConfig()
	cfg.Parallelism = 4
	cfg.ShufflePartitions = 4
	return cfg
}

// startWorkers runs n in-process workers against the context's
// coordinator and waits for registration.
func startWorkers(t *testing.T, ctx *sparksql.Context, n int) []*cluster.Worker {
	t.Helper()
	ws := make([]*cluster.Worker, n)
	for i := 0; i < n; i++ {
		w := cluster.NewWorker(cluster.WorkerConfig{
			ID:                fmt.Sprintf("w%d", i),
			CoordinatorAddr:   ctx.ClusterAddr(),
			HeartbeatInterval: 100 * time.Millisecond,
		})
		sqlexec.NewExecutor().Register(w)
		go w.Run(context.Background())
		ws[i] = w
		t.Cleanup(func() { w.Close() })
	}
	deadline := time.Now().Add(5 * time.Second)
	for ctx.Cluster().Coordinator().NumWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers registered", ctx.Cluster().Coordinator().NumWorkers(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return ws
}

var queries = []string{
	"SELECT pageURL, pageRank FROM rankings WHERE pageRank > 30",
	"SELECT pageRank, COUNT(*), SUM(avgDuration) FROM rankings GROUP BY pageRank",
	"SELECT COUNT(*) FROM rankings WHERE pageRank > 50",
	"SELECT a.pageURL, a.pageRank, b.avgDuration FROM rankings a JOIN rankings b ON a.pageURL = b.pageURL",
	"SELECT DISTINCT pageRank FROM rankings ORDER BY pageRank",
}

func collect(t *testing.T, ctx *sparksql.Context, q string) []row.Row {
	t.Helper()
	df, err := ctx.SQL(q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	return rows
}

// lastEvent is the newest event of ctx's event log.
func lastEvent(t *testing.T, ctx *sparksql.Context) core.QueryEvent {
	t.Helper()
	evs := ctx.EventLog().Events()
	if len(evs) == 0 {
		t.Fatal("the event log is empty")
	}
	return evs[len(evs)-1]
}

// Every query answers as the local engine does, twice: the first run adapts
// on the coordinator, materializing its exchange inputs there; the second
// replays the decisions the first took, runs no stage on the coordinator
// (its tasks are the dispatched partitions alone), and returns the first
// run's rows under the same plan hash and the same decision notes.
func TestDistributedMatchesLocal(t *testing.T) {
	for _, cached := range []bool{false, true} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			dist := sparksql.NewContextWithConfig(clusterConfig())
			defer dist.Close()
			loadRankings(t, dist, 600, cached)
			startWorkers(t, dist, 3)

			golden := sparksql.NewContextWithConfig(localConfig())
			loadRankings(t, golden, 600, cached)

			reg := dist.Metrics()
			replayed, tasks, dispatched := reg.Counter("cluster.adaptive.replayed"),
				reg.Counter("rdd.tasks.run"), reg.Counter("cluster.tasks.dispatched")
			var stageTasks, notes int64
			for _, q := range queries {
				want := formatRows(collect(t, golden, q))
				t0, d0 := tasks.Load(), dispatched.Load()
				rows := collect(t, dist, q)
				first := lastEvent(t, dist)
				stageTasks += tasks.Load() - t0 - (dispatched.Load() - d0)
				notes += int64(len(first.Decisions))
				if got := formatRows(rows); got != want {
					t.Fatalf("%q diverged distributed vs local", q)
				}
				r0, t0, d0 := replayed.Load(), tasks.Load(), dispatched.Load()
				again := collect(t, dist, q)
				second := lastEvent(t, dist)
				if n := replayed.Load() - r0; n != 1 {
					t.Fatalf("%q: the second run replayed %d statements, want 1", q, n)
				}
				if ran, sent := tasks.Load()-t0, dispatched.Load()-d0; ran != sent {
					t.Fatalf("%q: the second run ran %d tasks on the coordinator for %d dispatched", q, ran, sent)
				}
				if fmt.Sprint(again) != fmt.Sprint(rows) {
					t.Fatalf("%q: the second run's rows differ from the first's", q)
				}
				if second.PlanHash != first.PlanHash || fmt.Sprint(second.Decisions) != fmt.Sprint(first.Decisions) {
					t.Fatalf("%q: the second run has plan %s and decisions %q, the first %s and %q",
						q, second.PlanHash, second.Decisions, first.PlanHash, first.Decisions)
				}
			}
			if stageTasks == 0 || notes == 0 {
				t.Fatalf("first runs ran %d stage tasks on the coordinator and took %d decisions: the replay is untested", stageTasks, notes)
			}
			// The work must actually have gone remote...
			if n := dist.Metrics().Counter("cluster.tasks.completed").Load(); n == 0 {
				t.Fatal("no task completed remotely")
			}
			// ...and task spans carry worker identity.
			workers := map[string]bool{}
			for _, sp := range dist.Trace().Snapshot() {
				if sp.Kind == metrics.SpanTask && sp.Worker != "" {
					workers[sp.Worker] = true
				}
			}
			if len(workers) < 2 {
				t.Fatalf("task spans name %d workers, want >= 2 (affinity spread): %v", len(workers), workers)
			}
		})
	}
}

func TestZeroWorkersFallsBackLocal(t *testing.T) {
	dist := sparksql.NewContextWithConfig(clusterConfig())
	defer dist.Close()
	loadRankings(t, dist, 300, false)

	golden := sparksql.NewContextWithConfig(localConfig())
	loadRankings(t, golden, 300, false)

	for _, q := range queries[:3] {
		want := formatRows(collect(t, golden, q))
		got := formatRows(collect(t, dist, q))
		if got != want {
			t.Fatalf("%q diverged with zero workers", q)
		}
	}
	if n := dist.Metrics().Counter("cluster.tasks.dispatched").Load(); n != 0 {
		t.Fatalf("%d tasks dispatched with no workers", n)
	}
}

func TestWorkerLossMidStreamRecovers(t *testing.T) {
	dist := sparksql.NewContextWithConfig(clusterConfig())
	defer dist.Close()
	loadRankings(t, dist, 600, false)
	ws := startWorkers(t, dist, 3)

	golden := sparksql.NewContextWithConfig(localConfig())
	loadRankings(t, golden, 600, false)

	q := queries[1]
	want := formatRows(collect(t, golden, q))
	if got := formatRows(collect(t, dist, q)); got != want {
		t.Fatalf("%q diverged before worker loss", q)
	}
	// Kill one worker; its shuffle advertisements and session state die
	// with it. Queries must keep producing identical answers.
	ws[0].Close()
	for _, q := range queries {
		wantQ := formatRows(collect(t, golden, q))
		if got := formatRows(collect(t, dist, q)); got != wantQ {
			t.Fatalf("%q diverged after worker loss", q)
		}
	}
}

func TestCountDistributed(t *testing.T) {
	dist := sparksql.NewContextWithConfig(clusterConfig())
	defer dist.Close()
	loadRankings(t, dist, 500, false)
	startWorkers(t, dist, 2)

	df, err := dist.SQL("SELECT pageURL FROM rankings WHERE pageRank > 10")
	if err != nil {
		t.Fatal(err)
	}
	n, err := df.Count()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rows)) != n {
		t.Fatalf("Count = %d but Collect returned %d rows", n, len(rows))
	}
}

func TestExplainAnalyzeShowsCluster(t *testing.T) {
	dist := sparksql.NewContextWithConfig(clusterConfig())
	defer dist.Close()
	loadRankings(t, dist, 200, false)
	startWorkers(t, dist, 2)
	// Run one distributed query twice so per-worker counters are non-zero
	// and the statement is adapted once, then replayed.
	collect(t, dist, queries[0])
	collect(t, dist, queries[0])

	df, err := dist.SQL("EXPLAIN ANALYZE " + queries[0])
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, r := range rows {
		fmt.Fprintln(&text, r[0])
	}
	out := text.String()
	if !strings.Contains(out, "== Cluster ==") || !strings.Contains(out, "w0") {
		t.Fatalf("EXPLAIN ANALYZE lacks cluster membership:\n%s", out)
	}
	if !strings.Contains(out, " bytes, 1 statements adapted\n") {
		t.Fatalf("the session line does not count the adapted statement:\n%s", out)
	}
	metrics := formatRows(collect(t, dist, "SHOW METRICS LIKE 'cluster.adaptive.*'"))
	if want := "cluster.adaptive.materialized\t1\ncluster.adaptive.replayed\t1"; metrics != want {
		t.Fatalf("SHOW METRICS LIKE 'cluster.adaptive.*':\n%s\nwant\n%s", metrics, want)
	}
}

func TestChaosScheduleShipsToWorkers(t *testing.T) {
	dist := sparksql.NewContextWithConfig(clusterConfig())
	defer dist.Close()
	loadRankings(t, dist, 400, false)
	dist.Cluster().SetChaos(sqlwire.ChaosSpec{
		Enabled: true, Seed: 0xC4A05, FailureRate: 0.2, FailedAttempts: 2,
	})
	dist.Cluster().SetWorkerBackoff(time.Microsecond, 50*time.Microsecond, 7)
	startWorkers(t, dist, 3)

	golden := sparksql.NewContextWithConfig(localConfig())
	loadRankings(t, golden, 400, false)

	for _, q := range queries {
		want := formatRows(collect(t, golden, q))
		if got := formatRows(collect(t, dist, q)); got != want {
			t.Fatalf("%q diverged under worker-side chaos", q)
		}
	}
	if n := dist.Metrics().Counter("cluster.tasks.completed").Load(); n == 0 {
		t.Fatal("chaos run never completed a remote task")
	}
}

// serverReply sends one statement through a sqlserver with the given row cap
// over ctx and returns the reply's rows.
func serverReply(t *testing.T, ctx *sparksql.Context, maxRows int, q string) [][]string {
	t.Helper()
	srv := sqlserver.New(ctx)
	srv.MaxRows = maxRows
	srv.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := sqlserver.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query(q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	return res.Rows
}

// A statement sent through the server to a cluster context runs on the
// workers, under the server's default row cap too, and answers what a local
// context answers; an ordered statement capped below its row count returns
// the same leading rows, in order.
func TestServerStatementsDistribute(t *testing.T) {
	dist := sparksql.NewContextWithConfig(clusterConfig())
	defer dist.Close()
	loadRankings(t, dist, 600, false)
	startWorkers(t, dist, 2)
	local := sparksql.NewContextWithConfig(localConfig())
	loadRankings(t, local, 600, false)

	sorted := func(rows [][]string) string {
		lines := make([]string, len(rows))
		for i, r := range rows {
			lines[i] = strings.Join(r, "\t")
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	maxRows := sqlserver.New(local).MaxRows
	for _, q := range queries {
		if got, want := serverReply(t, dist, maxRows, q), serverReply(t, local, maxRows, q); sorted(got) != sorted(want) {
			t.Fatalf("%q: the cluster's reply differs from the local one", q)
		}
	}
	completed := dist.Metrics().Counter("cluster.tasks.completed")
	n := completed.Load()
	if n == 0 {
		t.Fatal("no statement sent through the server ran on a worker")
	}
	ordered := "SELECT pageURL, pageRank FROM rankings ORDER BY pageRank DESC, pageURL"
	got, want := serverReply(t, dist, 25, ordered), serverReply(t, local, 25, ordered)
	if len(got) != 25 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("capped %q: cluster replied %d rows %v, local %d rows %v", ordered, len(got), got, len(want), want)
	}
	if completed.Load() == n {
		t.Fatalf("capped %q did not run on a worker", ordered)
	}
}
