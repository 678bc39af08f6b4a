package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	sparksql "repro"
	"repro/internal/cluster/sqlwire"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/rdd"
	"repro/internal/row"
)

// Chaos study: the reproduction's fault-tolerance contract, exercised the
// way Spark's own DAGScheduler is — by injecting failures and checking
// that answers do not change. A deterministic seeded schedule fails a
// fraction of task attempts, drops cached partitions between runs, makes
// DFS reads flaky and plants stragglers; every run must produce results
// byte-identical to a fault-free golden run. All injection is derived from
// ChaosConfig.Seed, so a failing case replays exactly.
type ChaosConfig struct {
	// Seed drives every injection decision.
	Seed uint64
	// N is the rankings table size for the SQL workload.
	N int64
	// FailureRate is the probability that a given (rdd, partition) task is
	// afflicted; afflicted tasks fail their first FailedAttempts attempts.
	FailureRate float64
	// FailedAttempts is how many leading attempts an afflicted task fails.
	// It must stay below the engine's per-task attempt budget or the
	// injected fault becomes a (correctly reported) terminal JobError.
	FailedAttempts int
}

// DefaultChaosConfig is the configuration the chaos tests run.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{Seed: 0xC4A05, N: 2000, FailureRate: 0.1, FailedAttempts: 2}
}

// spec is the schedule as the cluster ships it: worker processes install
// the same deterministic hook, so the failure schedule is identical whether
// a task runs in-process or remote.
func (c ChaosConfig) spec() sqlwire.ChaosSpec {
	return sqlwire.ChaosSpec{Enabled: true, Seed: c.Seed, FailureRate: c.FailureRate, FailedAttempts: c.FailedAttempts}
}

func fnv64(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// chaosQueries is the SQL workload: a selective filter, an unordered
// aggregation and a fuller scan, each exercising different operators.
func chaosQueries() []string {
	qs := make([]string, 0, len(Q1Params)+2)
	for _, x := range Q1Params {
		qs = append(qs, Q1(x))
	}
	qs = append(qs,
		"SELECT pageRank, COUNT(*) FROM rankings GROUP BY pageRank",
		"SELECT COUNT(*) FROM rankings WHERE pageRank > 50")
	return qs
}

// formatRows renders rows to a canonical sorted text form so two result
// sets can be compared byte-for-byte regardless of partition ordering.
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

// chaosContext builds a context over the rankings table, optionally cached
// and optionally vectorized.
func chaosContext(n int64, vectorized, cached bool) (*sparksql.Context, error) {
	cfg := sparksql.DefaultConfig()
	cfg.Vectorized = vectorized
	// Multiple partitions regardless of host core count, so the failure
	// schedule has real tasks to afflict.
	cfg.Parallelism = 4
	cfg.ShufflePartitions = 4
	ctx := sparksql.NewContextWithConfig(cfg)
	if err := loadRankings(ctx, n, cached); err != nil {
		return nil, err
	}
	return ctx, nil
}

// chaosSpillContext builds the rankings context under a memory budget small
// enough that every blocking operator in the spill workload spills.
func chaosSpillContext(n, budget int64) (*sparksql.Context, error) {
	cfg := sparksql.DefaultConfig()
	cfg.Parallelism = 4
	cfg.ShufflePartitions = 4
	cfg.MemoryBudget = budget
	ctx := sparksql.NewContextWithConfig(cfg)
	if err := loadRankings(ctx, n, false); err != nil {
		return nil, err
	}
	return ctx, nil
}

func loadRankings(ctx *sparksql.Context, n int64, cached bool) error {
	rows := make([]row.Row, n)
	for i := int64(0); i < n; i++ {
		rows[i] = datagen.RankingRow(42, i)
	}
	df, err := ctx.CreateDataFrame(datagen.RankingsSchema(), rows)
	if err != nil {
		return err
	}
	if cached {
		if _, err := df.Cache(); err != nil {
			return err
		}
	}
	df.RegisterTempTable("rankings")
	return nil
}

// RunSQLChaos runs the SQL workload in all four engine modes
// (row/vectorized × cached/uncached) under the injected failure schedule
// and returns an error unless every result is byte-identical to the
// fault-free golden run. It reports how many faults the schedule injected.
func RunSQLChaos(cfg ChaosConfig) (injected int64, err error) {
	type mode struct {
		name               string
		vectorized, cached bool
	}
	modes := []mode{
		{"row", false, false},
		{"row+cache", false, true},
		{"vec", true, false},
		{"vec+cache", true, true},
	}
	queries := chaosQueries()
	for _, m := range modes {
		golden, err := chaosContext(cfg.N, m.vectorized, m.cached)
		if err != nil {
			return injected, err
		}
		chaotic, err := chaosContext(cfg.N, m.vectorized, m.cached)
		if err != nil {
			return injected, err
		}
		rc := chaotic.RDDContext()
		rc.SetBackoff(time.Microsecond, 50*time.Microsecond)
		var faults atomic.Int64
		base := cfg.spec().Hook()
		rc.SetFailureHook(func(name string, partition, attempt int) error {
			if err := base(name, partition, attempt); err != nil {
				faults.Add(1)
				return err
			}
			return nil
		})
		for _, q := range queries {
			want, err := collectSQL(golden, q)
			if err != nil {
				return injected, fmt.Errorf("chaos %s golden %q: %w", m.name, q, err)
			}
			got, err := collectSQL(chaotic, q)
			if err != nil {
				return injected, fmt.Errorf("chaos %s %q: %w", m.name, q, err)
			}
			if formatRows(got) != formatRows(want) {
				return injected, fmt.Errorf("chaos %s: %q diverged under injected failures", m.name, q)
			}
		}
		injected += faults.Load()
	}
	return injected, nil
}

// RunSpillChaos combines the task-failure schedule with forced spilling: the
// chaotic context runs under a memory budget small enough that every
// reserving operator (sort, aggregation, distinct) spills to the engine DFS,
// while ~FailureRate of tasks fail their leading attempts AND a slice of
// spill-file writes fail transiently too. A failed spill write fails its task;
// the retried task allocates a fresh spill prefix, so the rewrite lands on new
// paths and the fault never repeats deterministically. Results must stay
// byte-identical to an unbudgeted fault-free golden run, spills must actually
// have happened, and no spill file may survive any query.
func RunSpillChaos(cfg ChaosConfig) (injected int64, err error) {
	const budget = 16 << 10
	// Salt the seed so the spill run's schedule is independent of the plain
	// SQL chaos run over the same task names.
	cfg.Seed = fnv64(fmt.Sprintf("%d|spillrun", cfg.Seed))
	queries := []string{
		"SELECT pageRank, COUNT(*), SUM(avgDuration) FROM rankings GROUP BY pageRank",
		"SELECT pageURL, pageRank FROM rankings ORDER BY pageRank, pageURL",
		"SELECT DISTINCT pageRank FROM rankings",
		"SELECT a.pageURL, a.pageRank, b.avgDuration FROM rankings a JOIN rankings b ON a.pageURL = b.pageURL",
	}
	golden, err := chaosContext(cfg.N, false, false)
	if err != nil {
		return 0, err
	}
	chaotic, err := chaosSpillContext(cfg.N, budget)
	if err != nil {
		return 0, err
	}
	rc := chaotic.RDDContext()
	rc.SetBackoff(time.Microsecond, 50*time.Microsecond)
	var faults atomic.Int64
	base := cfg.spec().Hook()
	rc.SetFailureHook(func(name string, partition, attempt int) error {
		if err := base(name, partition, attempt); err != nil {
			faults.Add(1)
			return err
		}
		return nil
	})
	sfs := chaotic.SpillFS()
	sfs.WriteNanosPerByte, sfs.ReadNanosPerByte = 0, 0
	// A spill-write fault fails the owning task's whole attempt, and a tiny
	// budget writes dozens of spill files per attempt — so an uncapped
	// per-path schedule would doom every retry too. One injected write fault
	// keeps recovery guaranteed: a task afflicted by the failure schedule
	// loses its first FailedAttempts attempts, at most one more to the spill
	// fault, and still has a clean attempt inside the engine's budget.
	var spillFaults atomic.Int64
	sfs.SetWriteFaultHook(func(path string, attempt int) error {
		if attempt == 1 && cfg.spec().Afflicted("spill|"+path, 0) && spillFaults.Add(1) == 1 {
			faults.Add(1)
			return fmt.Errorf("chaos: injected spill-write failure of %s", path)
		}
		return nil
	})
	for _, q := range queries {
		want, err := collectSQL(golden, q)
		if err != nil {
			return faults.Load(), fmt.Errorf("chaos spill golden %q: %w", q, err)
		}
		got, err := collectSQL(chaotic, q)
		if err != nil {
			return faults.Load(), fmt.Errorf("chaos spill %q: %w", q, err)
		}
		if formatRows(got) != formatRows(want) {
			return faults.Load(), fmt.Errorf("chaos spill: %q diverged under budget %d + injected failures", q, budget)
		}
		if nf := sfs.NumFiles(); nf != 0 {
			return faults.Load(), fmt.Errorf("chaos spill: %d spill files left after %q", nf, q)
		}
	}
	if n := rc.Metrics().Counter("memory.spill.count").Load(); n == 0 {
		return faults.Load(), fmt.Errorf("chaos spill: budget %d forced no spills", budget)
	}
	return faults.Load(), nil
}

func collectSQL(ctx *sparksql.Context, query string) ([]row.Row, error) {
	df, err := ctx.SQL(query)
	if err != nil {
		return nil, err
	}
	return df.Collect()
}

// RunRDDChaos exercises the raw RDD layer end to end: a corpus is written
// to the simulated DFS, read back through GenerateCtx tasks whose reads
// fail transiently (per the schedule), word-counted through a shuffle,
// cached, and re-collected after cached partitions are dropped. The final
// counts must match a fault-free run exactly.
func RunRDDChaos(cfg ChaosConfig) error {
	const parts = 6
	fs := dfs.New()
	fs.WriteNanosPerByte, fs.ReadNanosPerByte = 0, 0
	for p := 0; p < parts; p++ {
		var sb strings.Builder
		for i := 0; i < 200; i++ {
			sb.WriteString(fmt.Sprintf("w%d ", fnv64(fmt.Sprintf("%d|%d|%d", cfg.Seed, p, i))%37))
		}
		fs.Write(fmt.Sprintf("/chaos/blk%d", p), [][]byte{[]byte(sb.String())})
	}
	fs.SetReadFaultHook(func(path string, attempt int) error {
		if attempt <= cfg.FailedAttempts && cfg.spec().Afflicted(path, 0) {
			return fmt.Errorf("chaos: injected flaky read of %s", path)
		}
		return nil
	})

	run := func(ctx *rdd.Context, dropCached bool) (map[string]int64, error) {
		lines := rdd.GenerateCtx(ctx, "dfsRead", parts, func(jc context.Context, p int) ([]string, error) {
			blocks, err := fs.Read(fmt.Sprintf("/chaos/blk%d", p))
			if err != nil {
				return nil, err
			}
			var out []string
			for _, b := range blocks {
				out = append(out, string(b))
			}
			return out, nil
		})
		counted := rdd.ReduceByKey(rdd.FlatMap(lines, func(s string) []rdd.Pair[string, int64] {
			fields := strings.Fields(s)
			out := make([]rdd.Pair[string, int64], len(fields))
			for i, w := range fields {
				out[i] = rdd.Pair[string, int64]{Key: w, Value: 1}
			}
			return out
		}), func(a, b int64) int64 { return a + b }, 4).Cache()
		if _, err := counted.Collect(); err != nil {
			return nil, err
		}
		if dropCached {
			// Lose some cached partitions; lineage must recover them.
			for p := 0; p < counted.NumPartitions(); p++ {
				if cfg.spec().Afflicted("dropCache", p) {
					counted.DropCachedPartition(p)
				}
			}
		}
		pairs, err := counted.Collect()
		if err != nil {
			return nil, err
		}
		out := make(map[string]int64, len(pairs))
		for _, kv := range pairs {
			out[kv.Key] = kv.Value
		}
		return out, nil
	}

	goldenCtx := rdd.NewContext(4)
	golden, err := run(goldenCtx, false)
	if err != nil {
		return fmt.Errorf("chaos rdd golden: %w", err)
	}
	chaosCtx := rdd.NewContext(4)
	chaosCtx.SetBackoff(time.Microsecond, 50*time.Microsecond)
	chaosCtx.SetFailureHook(cfg.spec().Hook())
	got, err := run(chaosCtx, true)
	if err != nil {
		return fmt.Errorf("chaos rdd: %w", err)
	}
	if len(got) != len(golden) {
		return fmt.Errorf("chaos rdd: %d words vs %d golden", len(got), len(golden))
	}
	for w, c := range golden {
		if got[w] != c {
			return fmt.Errorf("chaos rdd: count for %q = %d, want %d", w, got[w], c)
		}
	}
	return nil
}

// RunStragglerChaos plants one straggling task and checks that speculation
// launches a backup which rescues the job quickly with an unchanged
// result. It returns the backup launch/win counters for reporting.
func RunStragglerChaos(cfg ChaosConfig) (launches, wins int64, err error) {
	const parts = 8
	ctx := rdd.NewContext(parts)
	ctx.SetSpeculation(true, 2.0, 5*time.Millisecond)
	ctx.SetLatencyHook(func(name string, partition, attempt int) time.Duration {
		// The schedule picks one partition to straggle on its first attempt;
		// the speculative backup (numbered past the attempt budget) is fast.
		if name == "straggly" && partition == int(cfg.Seed%parts) && attempt == 1 {
			return 10 * time.Second
		}
		return 0
	})
	r := rdd.Generate(ctx, "straggly", parts, func(p int) []int { return []int{p} })
	got, err := r.Collect()
	if err != nil {
		return 0, 0, err
	}
	if len(got) != parts {
		return 0, 0, fmt.Errorf("chaos straggler: result = %v", got)
	}
	for i, v := range got {
		if v != i {
			return 0, 0, fmt.Errorf("chaos straggler: wrong value at %d: %v", i, got)
		}
	}
	return ctx.SpeculativeLaunches(), ctx.SpeculativeWins(), nil
}
