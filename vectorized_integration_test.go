package sparksql

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/rdd"
	"repro/internal/types"
)

// rowsTempTable registers rows as a plain row RDD cut into parts equal
// partitions: the leaf with no batch code anywhere on its path, cut like
// cacheTempTable and colfileTempTable cut theirs.
func rowsTempTable(t testing.TB, ctx *Context, schema StructType, rows []Row, name string, parts int) {
	t.Helper()
	if parts == 0 {
		parts = 4
	}
	df, err := ctx.CreateDataFrameFromRDD(schema, rdd.Parallelize(ctx.RDDContext(), rows, parts))
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable(name)
}

// vecTestContext builds a context with the given config and registers, behind
// the given leaf: `pages`, a rankings-like table with every type colfile
// stores, NULLs in every nullable column, two row groups whose `hole` chunk is
// all NULL, and DOUBLE NaN, -0.0 and +Inf; `empty`, a table without rows; and
// small `rankings` and `uservisits` tables for the paper's Q1-Q4. It also
// registers the UDFs the scalar-fallback shapes call.
func vecTestContext(t *testing.T, cfg Config, register tableLeaf) *Context {
	t.Helper()
	ctx := NewContextWithConfig(cfg)
	if err := ctx.RegisterUDF("twice", func(x int32) int32 { return 2 * x }); err != nil {
		t.Fatal(err)
	}
	if err := ctx.RegisterUDF("url_key", func(url string) string { return fmt.Sprintf("k%02d", len(url)%7) }); err != nil {
		t.Fatal(err)
	}
	schema := StructType{}.
		Add("url", StringType, true).
		Add("rank", IntType, true).
		Add("dur", LongType, true).
		Add("rev", DoubleType, true).
		Add("seq", IntType, false).
		Add("flag", BooleanType, true).
		Add("day", DateType, false).
		Add("ts", TimestampType, true).
		Add("x", DoubleType, true).
		Add("hole", IntType, true)
	rows := make([]Row, 3000)
	words := []string{"alpha", "beta", "gamma", "delta"}
	doubles := []any{math.NaN(), math.Copysign(0, -1), 0.0, 1.5, nil, -2.25, math.Inf(1)}
	for i := range rows {
		r := Row{
			fmt.Sprintf("url_%s_%04d", words[i%len(words)], i%50),
			int32((i * 37) % 1000),
			int64(i % 17),
			float64(i%400) / 4.0,
			int32(i),
			i%3 == 0,
			int32(16071 + i%400),
			int64(i) * 1_000_000,
			doubles[(i*5+i/7)%len(doubles)],
			nil,
		}
		if i%13 == 0 {
			r[i%4] = nil
		}
		if i%11 == 0 {
			r[5] = nil
		}
		if i%17 == 0 {
			r[7] = nil
		}
		if i >= 1000 && i%5 != 0 {
			r[9] = int32(i % 5)
		}
		rows[i] = r
	}
	register(t, ctx, schema, rows, "pages", 6)
	register(t, ctx, StructType{}.Add("a", IntType, true).Add("s", StringType, true), nil, "empty", 1)

	rankings := make([]Row, 2000)
	for i := range rankings {
		rankings[i] = datagen.RankingRow(7, int64(i))
	}
	register(t, ctx, datagen.RankingsSchema(), rankings, "rankings", 4)
	visits := make([]Row, 4000)
	for i := range visits {
		visits[i] = datagen.UserVisitRow(8, int64(i), int64(len(rankings)))
	}
	register(t, ctx, datagen.UserVisitsSchema(), visits, "uservisits", 4)
	return ctx
}

// vecQueries is the battery every leaf and engine mode must answer
// identically: native kernels, scalar fallbacks, operators above the
// pipeline, and — over a colfile leaf — every pushed filter shape.
var vecQueries = []string{
	"SELECT url, rank FROM pages WHERE rank > 500",
	"SELECT rank + 10, dur * 3 FROM pages WHERE rank >= 990",
	"SELECT url FROM pages WHERE rank > 100 AND rank < 120",
	"SELECT url FROM pages WHERE rank < 5 OR rank > 995",
	"SELECT url FROM pages WHERE rank IS NULL",
	"SELECT rank FROM pages WHERE url IS NOT NULL AND rank IS NOT NULL",
	"SELECT dur FROM pages WHERE dur IN (3, 5, 16)",
	"SELECT url FROM pages WHERE url LIKE 'url_alpha%'", // fallback kernel
	"SELECT twice(rank) FROM pages WHERE rank > 700",    // UDF fallback
	"SELECT rev * 2.0 FROM pages WHERE rev >= 90.0",
	"SELECT rank / 0 FROM pages WHERE rank > 900",       // NULL division
	"SELECT url, rank FROM pages WHERE NOT (rank > 10)", // 3-valued NOT
	"SELECT COUNT(*), SUM(rank), AVG(rev) FROM pages WHERE rank > 250",
	"SELECT url, COUNT(*) FROM pages WHERE rank > 300 GROUP BY url ORDER BY url LIMIT 20",
	// Every stored type, projected bare (no pipeline above the scan).
	"SELECT * FROM pages",
	"SELECT flag, day, ts, x, hole FROM pages WHERE seq < 1200",
	// =, <, <=, >, >= pushed; a monotone column so statistics skip groups; a
	// filter column that is not projected; several filters on one column; a
	// filter that empties groups the statistics admit.
	"SELECT url FROM pages WHERE seq >= 2500",
	"SELECT url, day FROM pages WHERE seq > 650 AND seq < 700 AND seq <= 690",
	"SELECT seq FROM pages WHERE rank = 5",
	"SELECT seq, url FROM pages WHERE rank <= 3 AND dur < 9",
	"SELECT seq FROM pages WHERE flag = true AND seq < 100", // BOOLEAN filter: scalar fallback inside the scan
	"SELECT seq, day FROM pages WHERE day >= '2015-01-20'",
	"SELECT seq, ts FROM pages WHERE ts IS NOT NULL AND seq > 2950",
	"SELECT ts, count(*) FROM pages WHERE seq < 40 GROUP BY ts ORDER BY ts",
	// DOUBLE ordering: NaN is the greatest value and equals itself, -0.0 = 0.0.
	"SELECT seq, x FROM pages WHERE x > 1.0 AND seq < 200",
	"SELECT seq, x FROM pages WHERE x <= 0.0 AND seq < 200",
	"SELECT seq, x FROM pages WHERE x = 0.0 AND seq < 200",
	// All-NULL chunks: IS NOT NULL prunes the group, IS NULL is a residual.
	"SELECT seq, hole FROM pages WHERE hole IS NOT NULL AND seq < 1100",
	"SELECT seq FROM pages WHERE hole IS NULL AND seq > 900 AND seq < 1010",
	"SELECT seq, hole FROM pages WHERE hole >= 3 AND seq < 1020",
	// Residual predicates stacked on pushed ones.
	"SELECT url FROM pages WHERE rank > 100 AND rank % 7 = 3 AND url LIKE '%alpha%'",
	"SELECT seq FROM pages WHERE seq >= 2900 AND twice(rank) > 1500",
	// A fused join probing a filtered side: the probe columns are as long as
	// the scan's survivors, nullable ones included, whether or not the filter
	// column is projected beside them. Which side builds is the leaf's size
	// estimate's to say, so the order is the query's.
	"SELECT P.seq, P.url, P.hole, P.x, R.pageURL FROM pages P JOIN rankings R ON P.seq = R.pageRank WHERE P.rank > 700 ORDER BY P.seq, R.pageURL",
	"SELECT P.seq, P.rank, P.dur, P.ts, R.pageURL FROM pages P JOIN rankings R ON P.seq = R.pageRank WHERE P.rank > 300 AND P.dur < 9 AND P.flag IS NOT NULL ORDER BY P.seq, R.pageURL",
	// A table without rows.
	"SELECT a, s FROM empty WHERE a > 0",
	"SELECT count(*), max(s) FROM empty",
	// The paper's Q1a-c, Q2a, Q3a-c and Q4's UDF shape.
	"SELECT pageURL, pageRank FROM rankings WHERE pageRank > 1000",
	"SELECT pageURL, pageRank FROM rankings WHERE pageRank > 100",
	"SELECT pageURL, pageRank FROM rankings WHERE pageRank > 10",
	"SELECT SUBSTR(sourceIP, 1, 8), SUM(adRevenue) FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 8)",
	vecQ3("1980-04-01"), vecQ3("1980-07-01"), vecQ3("1981-01-01"),
	"SELECT url_key(destURL), count(*) FROM uservisits GROUP BY url_key(destURL)",
	// ORDER BY ... LIMIT n is a top-K over each kind of child: an aggregate,
	// a pipeline, a pipeline over a fused join, a bare fused join, and a
	// union, which no engine runs as batches. Ties break on (child partition,
	// input position) — counts tie inside a reducer's batch and across
	// reducers, keys tie inside a scan batch and across partitions; keys mix
	// ASC and DESC, one is computed, and x holds NULL, NaN, -0.0 and 0.0.
	// The limit exceeds the rows (and a partition's batch) and reaches topKMax.
	"SELECT dur, count(*) AS n, sum(rev) AS total FROM pages GROUP BY dur ORDER BY n DESC LIMIT 5",
	"SELECT dur, count(*) AS n, min(url) AS u FROM pages GROUP BY dur ORDER BY n, u DESC LIMIT 7",
	"SELECT seq, x FROM pages ORDER BY x, seq LIMIT 1000",
	"SELECT seq, x FROM pages WHERE x IS NULL OR x < 1 ORDER BY x DESC LIMIT 40",
	"SELECT seq, x, rank FROM pages ORDER BY x, rank DESC LIMIT 50",
	"SELECT url, dur FROM pages WHERE rank > 100 ORDER BY dur * 2 LIMIT 30",
	"SELECT seq, rev FROM pages WHERE seq < 40 ORDER BY rev DESC LIMIT 100",
	"SELECT seq, x FROM (SELECT seq, x FROM pages WHERE seq < 30 UNION ALL SELECT seq, x FROM pages WHERE seq > 2980) u ORDER BY x DESC LIMIT 12",
	"SELECT P.seq, P.x, R.pageURL FROM pages P JOIN rankings R ON P.seq = R.pageRank WHERE P.rank > 300 ORDER BY P.x DESC, P.seq, R.pageURL LIMIT 25",
	"SELECT * FROM pages P JOIN rankings R ON P.seq = R.pageRank ORDER BY P.x, P.seq, R.pageURL LIMIT 25",
}

func vecQ3(cutoff string) string {
	return `SELECT sourceIP, SUM(adRevenue) AS totalRevenue, AVG(pageRank) AS avgPageRank
		FROM rankings R JOIN uservisits UV ON R.pageURL = UV.destURL
		WHERE UV.visitDate >= '1980-01-01' AND UV.visitDate <= '` + cutoff + `'
		GROUP BY sourceIP ORDER BY totalRevenue DESC LIMIT 1`
}

// typedText renders rows with each cell's Go type, so an INT that came back
// as int64, or a -0.0 that came back as 0.0, is a difference.
func typedText(rows []Row) string {
	var sb strings.Builder
	for _, r := range rows {
		for _, v := range r {
			fmt.Fprintf(&sb, "%T(%v)\t", v, v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// edgeQueries put each batch top at the result edge with nothing above it —
// a fused join probed from either side, a fused aggregate over NULL-bearing
// inputs — and the column shapes an edge boxes: NULL bitmaps, constant
// vectors, a filter column left out of the output, an empty result from rows
// that exist, and ARRAY, MAP and STRUCT columns (`nested`, always behind the
// cache: colfile stores no nested type). A top's columns are all its output,
// so a nil (undecoded) column reaches BoxValues only in the vector property
// test. Which side of a join builds is each leaf's size estimate's to say, so
// a join's rows compare with the reference as a set.
var edgeQueries = []string{
	"SELECT P.seq, P.url, P.hole, R.pageURL FROM pages P JOIN rankings R ON P.seq = R.pageRank WHERE P.rank > 700",
	"SELECT R.pageURL, P.seq, P.ts FROM rankings R JOIN pages P ON R.pageRank = P.seq WHERE P.dur < 3",
	"SELECT dur, count(*), min(url), max(rev), sum(hole) FROM pages GROUP BY dur",
	"SELECT url, 7, 'k', rank * 0 FROM pages WHERE rank > 990",
	"SELECT url FROM pages WHERE rank > 5000",
	"SELECT id, tags, attrs, loc FROM nested WHERE id % 3 <> 1",
	"SELECT loc, id FROM nested WHERE attrs IS NOT NULL",
}

// registerNested registers `nested` behind leaf, or behind the cache where
// leaf is colfile.
func registerNested(t *testing.T, ctx *Context, leaf string, register tableLeaf) {
	t.Helper()
	if leaf == "colfile" {
		register = cacheTempTable
	}
	schema := StructType{}.
		Add("id", IntType, false).
		Add("tags", ArrayType(StringType, true), true).
		Add("attrs", types.MapType{Key: StringType, Value: IntType}, true).
		Add("loc", StructType{}.Add("lat", DoubleType, true), true)
	rows := make([]Row, 400)
	for i := range rows {
		rows[i] = Row{int32(i), []any{fmt.Sprint("t", i%5), nil}, map[any]any{"k": int32(i % 7)}, Row{float64(i) / 8}}
		switch i % 4 {
		case 1:
			rows[i][1], rows[i][3] = nil, Row{nil}
		case 2:
			rows[i][2] = nil
		}
	}
	register(t, ctx, schema, rows, "nested", 4)
}

// canonTypedText is typedText as a sorted set of lines.
func canonTypedText(rows []Row) string {
	lines := strings.Split(typedText(rows), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// The acceptance contract: over the cache and over colfile, the fused, row
// and interpreted engines return every query's rows byte-identical and in
// the order the interpreted engine returns them over plain row partitions —
// the path that runs no batch leaf, no kernel and no state lane — at an
// unbounded and a one-byte budget. What Collect cuts at the result edge is,
// byte for byte, what the executing plan's row Execute returns (ToRDD).
func TestVectorizedResultsByteIdentical(t *testing.T) {
	queries := append(append([]string{}, vecQueries...), edgeQueries...)
	ref := vecTestContext(t, interpretedConfig(0), rowsTempTable)
	registerNested(t, ref, "rows", rowsTempTable)
	want, wantRows := make(map[string]string, len(queries)), make(map[string][]Row, len(queries))
	for _, q := range queries {
		wantRows[q] = mustRunRows(t, ref, q)
		want[q] = typedText(wantRows[q])
	}
	if !strings.Contains(want["SELECT seq, x FROM pages WHERE x <= 0.0 AND seq < 200"], "float64(-0)") {
		t.Fatal("the reference lost -0.0: the battery would not notice a leaf that does")
	}
	check := func(t *testing.T, leaf string, register tableLeaf, cfg Config) {
		ctx := vecTestContext(t, cfg, register)
		registerNested(t, ctx, leaf, register)
		ctx.SpillFS().WriteNanosPerByte, ctx.SpillFS().ReadNanosPerByte = 0, 0
		for _, q := range queries {
			got, exp, text := mustRunRows(t, ctx, q), want[q], typedText
			if strings.Contains(q, "JOIN") && !strings.Contains(q, "ORDER BY") {
				exp, text = canonTypedText(wantRows[q]), canonTypedText
			}
			if text(got) != exp {
				t.Errorf("%s\n got %.400q\nwant %.400q", q, text(got), exp)
			}
			if exec := typedText(rddRows(t, ctx, q)); exec != typedText(got) {
				t.Errorf("%s: Collect differs from the plan's row Execute\n got %.400q\nwant %.400q", q, typedText(got), exec)
			}
		}
	}
	for _, leaf := range batchLeaves {
		for _, mode := range engineModes {
			t.Run(leaf.name+"/"+mode.name, func(t *testing.T) {
				check(t, leaf.name, leaf.register, mode.config(0))
				t.Run("budget=1", func(t *testing.T) {
					if testing.Short() {
						t.Skip("one-byte budget spills per row; skipped in -short")
					}
					check(t, leaf.name, leaf.register, mode.config(1))
				})
			})
		}
	}
}

// Count is len(Collect) for every query, and a batch top's Count boxes
// nothing: result.rows.boxed — which its Collect moves by every row — stays
// put, and a pipeline's Count allocates per batch, not per row. Collect boxes
// every cell, from one slab a column and batch, so it too allocates per
// batch; what it pays per row are bytes.
func TestCountDoesNotBox(t *testing.T) {
	for _, leaf := range batchLeaves {
		t.Run(leaf.name, func(t *testing.T) {
			ctx := vecTestContext(t, fusedConfig(0, true), leaf.register)
			registerNested(t, ctx, leaf.name, leaf.register)
			boxed := ctx.Metrics().Counter("result.rows.boxed")
			for _, q := range append(append([]string{}, vecQueries...), edgeQueries...) {
				df, err := ctx.SQL(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				rows, err := df.Collect()
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				before := boxed.Load()
				if n, err := df.Count(); err != nil || n != int64(len(rows)) {
					t.Errorf("%s: Count = %d, %v; Collect returned %d rows", q, n, err, len(rows))
				}
				if moved := boxed.Load() - before; moved != 0 {
					t.Errorf("%s: Count boxed %d rows", q, moved)
				}
			}
			// The same pipeline keeping every row and keeping none: what the
			// rows cost Collect, and what they cost Count.
			allocs := func(q string, action func(*DataFrame)) float64 {
				df, err := ctx.SQL(q)
				if err != nil {
					t.Fatal(err)
				}
				return testing.AllocsPerRun(3, func() { action(df) })
			}
			allocBytes := func(q string, action func(*DataFrame)) float64 {
				df, err := ctx.SQL(q)
				if err != nil {
					t.Fatal(err)
				}
				action(df)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				action(df)
				runtime.ReadMemStats(&after)
				return float64(after.TotalAlloc - before.TotalAlloc)
			}
			collect := func(df *DataFrame) { df.Collect() }
			count := func(df *DataFrame) { df.Count() }
			const all, none = "SELECT rank + 1000, dur FROM pages WHERE seq >= 0", "SELECT rank + 1000, dur FROM pages WHERE seq < 0"
			before := boxed.Load()
			if rows := mustRunRows(t, ctx, all); len(rows) != 3000 || boxed.Load()-before != 3000 {
				t.Fatalf("%s: %d rows, %d boxed at the edge: not a batch top", all, len(rows), boxed.Load()-before)
			}
			perRowCollect := (allocs(all, collect) - allocs(none, collect)) / 3000
			perRowCount := (allocs(all, count) - allocs(none, count)) / 3000
			bytesCollect := (allocBytes(all, collect) - allocBytes(none, collect)) / 3000
			t.Logf("allocations per row: %.3f to collect (%.0f B), %.3f to count", perRowCollect, bytesCollect, perRowCount)
			if perRowCount > 0.2 || bytesCollect < 2*16 { // six batches cost Count ~0.06 a row; Collect boxes two cells a row
				t.Fatalf("Count allocated %.3f times per row (Collect: %.3f times, %.0f B)", perRowCount, perRowCollect, bytesCollect)
			}
			// A string column, NULLs among its cells, is boxed from one slab a
			// batch: collecting it costs per batch, not per row.
			const strs, noStrs = "SELECT url FROM pages WHERE seq >= 0", "SELECT url FROM pages WHERE seq < 0"
			perRowStrings := (allocs(strs, collect) - allocs(noStrs, collect)) / 3000
			t.Logf("allocations per row: %.3f to collect a string column", perRowStrings)
			if perRowStrings > 0.2 {
				t.Fatalf("collecting a string column allocated %.3f times per row", perRowStrings)
			}
		})
	}
}

// A vectorized aggregate over a table of many small commits — a batch of a
// hundred rows each — allocates per task, not per batch: the kernel output of
// k % 10, the literal's constant, the decoded column headers and the batch's
// column slice are the task's scratch, lent again to each next batch. The
// difference between a table of 300 commits and one of 900, run as the same
// number of tasks, is 600 batches' worth of allocation.
func TestLentKernelsAllocatePerTask(t *testing.T) {
	perOp := func(commits int) (allocs float64, tasks int64) {
		ctx := NewContextWithConfig(fusedConfig(0, true))
		rows := make([]Row, 100*commits)
		for i := range rows {
			rows[i] = Row{int64(i), float64(i % 17)}
		}
		storeTempTable(t, ctx, StructType{}.Add("k", LongType, false).Add("v", DoubleType, false), rows, "trickle", commits)
		df, err := ctx.SQL("SELECT k % 10, count(*), sum(v) FROM trickle GROUP BY k % 10")
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := df.Collect(); err != nil || len(rows) != 10 {
			t.Fatalf("%d rows, %v", len(rows), err)
		}
		if plan, err := df.Explain(); err != nil || !strings.Contains(plan, "FusedHashAggregate") {
			t.Fatalf("not a fused aggregate (%v):\n%s", err, plan)
		}
		ran := ctx.Metrics().Counter("rdd.tasks.run")
		before := ran.Load()
		allocs = testing.AllocsPerRun(5, func() { df.Collect() })
		return allocs, (ran.Load() - before) / 6
	}
	small, smallTasks := perOp(300)
	large, largeTasks := perOp(900)
	if smallTasks != largeTasks {
		t.Fatalf("300 commits ran as %d tasks, 900 as %d: the difference is not per batch", smallTasks, largeTasks)
	}
	perBatch := (large - small) / 600
	t.Logf("allocations: %.0f an operation over 300 batches, %.0f over 900: %.3f a batch", small, large, perBatch)
	if perBatch >= 1 {
		t.Fatalf("a batch allocates %.3f times", perBatch)
	}
}

// A low-cardinality aggregate over many small partitions — store_trickle_scan's
// GROUP BY k % 10 over a table of 300 commits, run as a few tasks of many
// batches — never stops partial aggregation, and its window costs it nothing:
// it allocates no more an operation than before the window existed (measured
// with this exact test body: 694; 690 with the task's group table inside its
// one state struct). A task whose window state lived in variables its batch
// callback captures allocates more per task (698 with two of them).
func TestLowCardinalityAggregateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	const parentAllocs = 694
	ctx := NewContextWithConfig(fusedConfig(0, true))
	rows := make([]Row, 100*300)
	for i := range rows {
		rows[i] = Row{int64(i), float64(i % 17)}
	}
	storeTempTable(t, ctx, StructType{}.Add("k", LongType, false).Add("v", DoubleType, false), rows, "trickle", 300)
	df, err := ctx.SQL("SELECT k % 10, count(*), sum(v) FROM trickle GROUP BY k % 10")
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := df.Collect(); err != nil || len(rows) != 10 {
		t.Fatalf("%d rows, %v", len(rows), err)
	}
	skipped := ctx.Metrics().Counter("agg.partial.skipped")
	allocs := testing.AllocsPerRun(20, func() { df.Collect() })
	if n := skipped.Load(); n != 0 {
		t.Fatalf("a 10-group aggregate skipped partial aggregation in %d tasks", n)
	}
	t.Logf("%.0f allocations an operation", allocs)
	if allocs > parentAllocs {
		t.Fatalf("%.0f allocations an operation, more than the %d before the partial-aggregation window", allocs, parentAllocs)
	}
}

// A top-K over a batch top boxes only the rows each batch keeps: Q3 — the
// aggregate of a join, ORDER BY its sum, LIMIT 1 — allocates fewer bytes than
// collecting the same aggregate, whose every group is boxed at the result
// edge. A top-K that boxed every group before choosing would allocate more.
// Neither result is copied from row partitions (result.rows.copied).
func TestTopKBoxesOnlyWhatItKeeps(t *testing.T) {
	for _, leaf := range batchLeaves {
		t.Run(leaf.name, func(t *testing.T) {
			ctx := vecTestContext(t, fusedConfig(0, true), leaf.register)
			bytesPerOp := func(q string) (float64, int) {
				df, err := ctx.SQL(q)
				if err != nil {
					t.Fatal(err)
				}
				rows := mustRunRows(t, ctx, q)
				const runs = 5
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				for range runs {
					if _, err := df.Collect(); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				return float64(after.TotalAlloc-before.TotalAlloc) / runs, len(rows)
			}
			q3 := vecQ3("1981-01-01")
			agg, _, _ := strings.Cut(q3, " ORDER BY")
			copied := ctx.Metrics().Counter("result.rows.copied")
			before := copied.Load()
			top, kept := bytesPerOp(q3)
			all, groups := bytesPerOp(agg)
			t.Logf("%d of %d groups: %.0f B an operation, %.0f B collecting all", kept, groups, top, all)
			if kept != 1 || groups < 1000 || top >= all {
				t.Fatalf("Q3 keeping %d of %d groups allocated %.0f B, collecting them all %.0f B", kept, groups, top, all)
			}
			if moved := copied.Load() - before; moved != 0 {
				t.Fatalf("result.rows.copied moved by %d: a result was copied from row partitions", moved)
			}
		})
	}
}

// A fused join's EXPLAIN ANALYZE line says how its build side was collected:
// as lanes when its keys all have native kernels and no residual is tested —
// gathered from a batch scan (Q3 over colfile: rankings, 2 000 rows), or a
// LocalRelation's rows transposed — whatever the probe keys, and boxed, with
// the reason, otherwise: a residual, a build key with no kernel.
// Either way the join's answer is the row path's.
func TestFusedJoinBuildExplained(t *testing.T) {
	ctx := vecTestContext(t, fusedConfig(0, true), colfileTempTable)
	ref := vecTestContext(t, fusedConfig(0, false), cacheTempTable)
	small := make([]Row, 40)
	for i := range small {
		small[i] = Row{fmt.Sprintf("url_alpha_%04d", i), int32(i)}
	}
	for _, c := range []*Context{ctx, ref} {
		df, err := c.CreateDataFrame(StructType{}.Add("url", StringType, false).Add("n", IntType, false), small)
		if err != nil {
			t.Fatal(err)
		}
		df.RegisterTempTable("small")
	}
	for _, c := range []struct{ q, want string }{
		{vecQ3("1981-01-01"), "build=2000 rows, lanes, table=str"},
		{"SELECT p.seq, s.n FROM pages p JOIN small s ON p.url = s.url", "build=40 rows, lanes, table=str"},
		{"SELECT p.seq, q.rank FROM pages p JOIN pages q ON p.seq = q.seq AND p.rank < q.dur WHERE q.seq < 50", "build=50 rows, boxed: residual, table=i64"},
		{"SELECT p.seq, q.seq FROM pages p JOIN pages q ON p.seq = twice(q.rank) WHERE q.seq < 50", "build=50 rows, boxed: non-native build key, table=i64"},
		// A probe key with no kernel: typed build lanes against boxed probe keys.
		{"SELECT p.seq, q.url FROM pages p JOIN pages q ON twice(p.rank) = q.seq WHERE q.seq < 50", "build=50 rows, lanes, table=generic"},
	} {
		if got := explainAnalyze(t, ctx, c.q); !strings.Contains(got, "FusedBroadcastHashJoin") || !strings.Contains(got, c.want) {
			t.Errorf("%s: no fused join with %q in\n%s", c.q, c.want, got)
		}
		if got, want := canonTypedText(mustRunRows(t, ctx, c.q)), canonTypedText(mustRunRows(t, ref, c.q)); got != want {
			t.Errorf("%s: the fused join diverged from the row path\n got %.300q\nwant %.300q", c.q, got, want)
		}
	}
}

// A batch top's task that fails — before its first batch, or after it boxed
// some — is retried from lineage, and the result holds each row once: a
// failed attempt's arenas leave with it. `many` is 40 partitions of 25 rows,
// which a pipeline runs as a few tasks of many batches each; the UDF fails
// once, on the table's last row.
func TestResultEdgeTaskRetry(t *testing.T) {
	queries := append([]string{
		"SELECT k, once(k), s FROM many WHERE k % 3 <> 1",
		"SELECT g, count(*), sum(once(k)), min(s) FROM many GROUP BY g",
		"SELECT k, once(k), s FROM many WHERE k % 3 <> 1 ORDER BY s DESC, k LIMIT 30",
	}, edgeQueries...)
	setup := func(t *testing.T, cfg Config, register tableLeaf, leaf string) *Context {
		ctx := vecTestContext(t, cfg, register)
		registerNested(t, ctx, leaf, register)
		var failed atomic.Bool
		if err := ctx.RegisterUDF("once", func(k int64) int64 {
			if k == 999 && !failed.Swap(true) {
				panic("injected failure after the task's first batches")
			}
			return k
		}); err != nil {
			t.Fatal(err)
		}
		rows := make([]Row, 1000)
		for i := range rows {
			rows[i] = Row{int64(i), int64(i % 9), fmt.Sprint("s", i%13)}
		}
		register(t, ctx, StructType{}.Add("k", LongType, false).Add("g", LongType, false).Add("s", StringType, false), rows, "many", 40)
		return ctx
	}
	ref := setup(t, fusedConfig(0, false), rowsTempTable, "rows")
	for _, leaf := range batchLeaves {
		t.Run(leaf.name, func(t *testing.T) {
			ctx := setup(t, fusedConfig(0, true), leaf.register, leaf.name)
			rc := ctx.RDDContext()
			rc.SetBackoff(time.Microsecond, 10*time.Microsecond)
			rc.SetFailureHook(func(name string, p, attempt int) error {
				if attempt == 1 && p%2 == 0 {
					return fmt.Errorf("injected failure of %s[%d]", name, p)
				}
				return nil
			})
			for _, q := range queries {
				if got, want := canonTypedText(mustRunRows(t, ctx, q)), canonTypedText(mustRunRows(t, ref, q)); got != want {
					t.Errorf("%s after retries\n got %.400q\nwant %.400q", q, got, want)
				}
			}
			if rc.TaskRetries() == 0 {
				t.Fatal("no task attempt failed: the schedule injected nothing")
			}
		})
	}
}

// rddRows collects q through its plan's row Execute (DataFrame.ToRDD).
func rddRows(t *testing.T, ctx *Context, q string) []Row {
	t.Helper()
	df, err := ctx.SQL(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	r, err := df.ToRDD()
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	rows, err := r.Collect()
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	noNestedStages(t, ctx)
	batchesConverged(t, ctx)
	return rows
}

func mustRunRows(t *testing.T, ctx *Context, q string) []Row {
	t.Helper()
	df, err := ctx.SQL(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	noNestedStages(t, ctx)
	batchesConverged(t, ctx)
	return rows
}

// EXPLAIN must show the vectorized operator over both batch leaves when the
// knob is on (proving the fast path actually runs) and the row pipeline when
// off; a leaf that produces no batches keeps the row pipeline and says so.
func TestVectorizedExplain(t *testing.T) {
	const q = "SELECT url, rank + 1 FROM pages WHERE rank > 500"
	explain := func(cfg Config, leaf tableLeaf) string {
		df, err := vecTestContext(t, cfg, leaf).SQL(q)
		if err != nil {
			t.Fatal(err)
		}
		out, err := df.Explain()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, leaf := range batchLeaves {
		if on := explain(fusedConfig(0, true), leaf.register); !strings.Contains(on, "VectorizedPipeline") || !strings.Contains(on, "(fused: true)") {
			t.Fatalf("%s, vectorized on: plan lacks a fused VectorizedPipeline:\n%s", leaf.name, on)
		}
		if off := explain(fusedConfig(0, false), leaf.register); strings.Contains(off, "VectorizedPipeline") {
			t.Fatalf("%s, vectorized off: plan still vectorized:\n%s", leaf.name, off)
		}
	}
	if rows := explain(fusedConfig(0, true), rowsTempTable); !strings.Contains(rows, "WholeStagePipeline") || !strings.Contains(rows, "(fallback: scan not columnar)") {
		t.Fatalf("a row leaf must keep the row pipeline and say why:\n%s", rows)
	}
}

// The colfile leaf is observable: EXPLAIN ANALYZE's scan line carries both
// the rows decoded into batches and the rows the pushed filters let through,
// and the groups skipped, rows pruned and rows tested boxed land in counters
// SHOW METRICS lists.
func TestColfileLeafObservability(t *testing.T) {
	ctx := vecTestContext(t, fusedConfig(0, true), colfileTempTable)
	// seq >= 2500 skips 5 of the 6 row groups by statistics; rank > 500 then
	// drops rows from the one group that is decoded.
	df, err := ctx.SQL("SELECT url FROM pages WHERE seq >= 2500 AND rank > 500")
	if err != nil {
		t.Fatal(err)
	}
	kept, err := df.Count()
	if err != nil {
		t.Fatal(err)
	}
	analyzed, err := df.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	scanLine := fmt.Sprintf("(actual: %d rows, ", kept)
	if !strings.Contains(analyzed, "Scan Source colfile") || !strings.Contains(analyzed, scanLine) ||
		!strings.Contains(analyzed, ", 1 batches, 500 rows decoded)") {
		t.Fatalf("scan line must show %d rows emitted out of 500 decoded in 1 batch:\n%s", kept, analyzed)
	}
	metrics := typedText(mustRunRows(t, ctx, "SHOW METRICS LIKE 'colfile.*'"))
	// Two executions (Count, ExplainAnalyze), each skipping 5 groups.
	for _, want := range []string{"colfile.groups.skipped)\tstring(10)", fmt.Sprintf("colfile.rows.pruned)\tstring(%d)", 2*(500-kept))} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("SHOW METRICS lacks %q:\n%s", want, metrics)
		}
	}
	// An IN list is a range test too: every member lies in the last group, so
	// the other five are skipped undecoded.
	skipped := ctx.Metrics().Counter("colfile.groups.skipped")
	before := skipped.Load()
	if got := mustRunRows(t, ctx, "SELECT url FROM pages WHERE seq IN (2600, 2700, 9000)"); len(got) != 2 {
		t.Fatalf("IN query returned %d rows, want 2", len(got))
	}
	if got := skipped.Load() - before; got != 5 {
		t.Fatalf("an IN list inside one row group skipped %d groups, want 5", got)
	}
	// A pushed filter with no kernel over its column's lane tests rows boxed,
	// inside the scan: they are counted where the pipeline's own fallbacks are.
	// flag = true runs over the one 500-row group that seq < 100 admits.
	fallback := ctx.Metrics().Counter("vec.fallback.rows")
	before = fallback.Load()
	mustRunRows(t, ctx, "SELECT seq FROM pages WHERE flag = true AND seq < 100")
	if got := fallback.Load() - before; got != 500 {
		t.Fatalf("a BOOLEAN filter inside the scan moved vec.fallback.rows by %d, want 500", got)
	}
	mustRunRows(t, ctx, "SELECT url FROM pages WHERE seq >= 2500 AND rank > 500")
	if got := fallback.Load() - before; got != 500 {
		t.Fatalf("filters with kernels moved vec.fallback.rows (%d)", got-500)
	}
}

// The UDT cache path (BOXED columns) must keep working under vectorization:
// scans of user types fall back per row but stay correct.
func TestVectorizedBoxedColumns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Vectorized = true
	ctx := NewContextWithConfig(cfg)
	schema := StructType{}.
		Add("id", IntType, false).
		Add("d", DecimalType(10, 2), true).
		Add("loc", StructType{}.Add("lat", DoubleType, false), true)
	rows := make([]Row, 300)
	for i := range rows {
		rows[i] = Row{int32(i), types.NewDecimal(int64(i*100+i), 2), nil}
		if i%2 == 0 {
			rows[i][2] = Row{float64(i)}
		}
	}
	df, err := ctx.CreateDataFrame(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Cache(); err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("dec")
	got := mustRunRows(t, ctx, "SELECT d FROM dec WHERE id > 290")
	if len(got) != 9 {
		t.Fatalf("decimal rows = %d, want 9", len(got))
	}
	if got[0][0].(types.Decimal).String() != "293.91" {
		t.Fatalf("decimal value = %v", got[0][0])
	}
	// The cache tracks no min/max for an unordered type, which must not read
	// as "all NULL" to the batch-skipping test.
	if got := mustRunRows(t, ctx, "SELECT id FROM dec WHERE loc IS NOT NULL"); len(got) != 150 {
		t.Fatalf("IS NOT NULL over a struct column kept %d rows, want 150", len(got))
	}
}
