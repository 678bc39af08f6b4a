package sparksql

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/row"
)

// Spill property tests: under any MemoryBudget — including one byte, where
// every blocking operator holds at most one row before spilling — query
// results must be byte-identical to the unbounded in-memory path, and no
// spill file may survive a query, whether it completes or is cancelled.

const spillRows = 4000

func spillConfig(budget int64) Config {
	cfg := DefaultConfig()
	// Fixed fan-out so partitioning (and thus row emission order) is
	// identical across host core counts and between golden/budgeted runs.
	cfg.Parallelism = 4
	cfg.ShufflePartitions = 4
	cfg.MemoryBudget = budget
	return cfg
}

// setupSpillTables registers `events` (spillRows rows, ~100 B of object
// state each — hundreds of KB total, ≥10× the largest budget under test)
// and a small `dim` side for joins.
func setupSpillTables(t testing.TB, ctx *Context) {
	t.Helper()
	events := StructType{}.
		Add("id", IntType, false).
		Add("grp", IntType, false).
		Add("name", StringType, false).
		Add("val", DoubleType, false)
	rows := make([]Row, spillRows)
	for i := range rows {
		// Scrambled names so ORDER BY does real work; 80 groups of ~50
		// rows each so sorts see heavy duplicate keys.
		rows[i] = Row{
			int32(i),
			int32(i % 80),
			fmt.Sprintf("n%05d", (i*7919)%spillRows),
			float64(i%997) * 1.5,
		}
	}
	df, err := ctx.CreateDataFrame(events, rows)
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("events")
	// The same rows behind the columnar cache: aggregates over cevents run the
	// fused phase 1, so the typed state lanes are what spills.
	cdf, err := ctx.CreateDataFrame(events, rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cdf.Cache(); err != nil {
		t.Fatal(err)
	}
	cdf.RegisterTempTable("cevents")

	dim := StructType{}.
		Add("grp", IntType, false).
		Add("label", StringType, false)
	var drows []Row
	for g := 0; g < 80; g += 2 {
		drows = append(drows, Row{int32(g), fmt.Sprintf("label%02d", g)})
	}
	ddf, err := ctx.CreateDataFrame(dim, drows)
	if err != nil {
		t.Fatal(err)
	}
	ddf.RegisterTempTable("dim")
}

// spillExactQueries must match the golden run row for row, in order —
// including the relative order of ORDER BY ties, which only survives
// spilling because the external sort is stable end to end, and the
// first-seen group order of aggregation and DISTINCT, which a spilling reducer
// gets back by re-merging its spill log front to back. Between them the aggregates send every
// state lane type through a spill file — boxed lanes over events, typed ones
// over cevents: counts, DOUBLE / BIGINT / DECIMAL sums, avg, string and INT
// extrema (boxed back as int32), first (whose VALUE depends on merge order)
// and COUNT DISTINCT sets — under INT, NULLable and no grouping keys.
var spillExactQueries = []string{
	"SELECT name, grp, val FROM events ORDER BY grp, name",
	"SELECT grp, val FROM events ORDER BY grp", // tie-heavy: stability must survive spilling
	"SELECT grp, count(*), sum(val), avg(val), min(name), max(name) FROM events GROUP BY grp",
	"SELECT grp, first(name) FROM events GROUP BY grp",
	"SELECT DISTINCT grp FROM events",
	"SELECT grp, count(DISTINCT name), min(id), max(id), sum(id), sum(CAST(val AS DECIMAL(12,2))) FROM events GROUP BY grp",
	"SELECT CASE WHEN grp % 3 = 0 THEN NULL ELSE grp END, count(*), min(id), first(name) FROM events GROUP BY CASE WHEN grp % 3 = 0 THEN NULL ELSE grp END",
	"SELECT grp, count(*), sum(val), avg(val), min(name), max(name), first(name) FROM cevents GROUP BY grp",
	"SELECT grp, count(DISTINCT name), min(id), max(id), sum(id), sum(CAST(val AS DECIMAL(12,2))) FROM cevents GROUP BY grp",
	"SELECT CASE WHEN grp % 3 = 0 THEN NULL ELSE grp END, count(*), min(id) FROM cevents GROUP BY CASE WHEN grp % 3 = 0 THEN NULL ELSE grp END",
	"SELECT count(*), max(id), count(DISTINCT grp) FROM cevents",
}

// spillLimits are appended, as LIMIT n, to every spillExactQueries entry: the
// result must be the first n rows of the un-limited query, ties included. Over
// a sort the first three plan as a TopK (1000 is the largest that does, and as
// long as a partition of events), the last — past the row count — as Sort + Limit.
var spillLimits = []int{1, 7, 1000, spillRows + 1000}

// checkLimits runs every spillExactQueries entry under every spillLimits
// entry against the un-limited result it must be a prefix of.
func checkLimits(t *testing.T, ctx *Context, wantExact map[string]string) {
	t.Helper()
	for _, q := range spillExactQueries {
		sorted := strings.Split(wantExact[q], "\n")
		for _, n := range spillLimits {
			want := strings.Join(sorted[:min(n, len(sorted))], "\n")
			if got := rowsText(spillCollect(t, ctx, fmt.Sprintf("%s LIMIT %d", q, n))); got != want {
				t.Errorf("%q LIMIT %d is not the prefix of the un-limited sort", q, n)
			}
			if nf := ctx.SpillFS().NumFiles(); nf != 0 {
				t.Fatalf("%q LIMIT %d left %d spill files", q, n, nf)
			}
		}
	}
}

// spillCanonQueries are compared as sorted row sets: a budget below twice the
// dim side's size turns a broadcast join into a shuffled hash join, whose
// emission order is not the broadcast join's — so for these the contract is
// set equality plus deterministic values. Between them they cover every join
// type, with and without a residual condition.
var spillCanonQueries = []string{
	"SELECT e.name, e.grp, d.label FROM events e JOIN dim d ON e.grp = d.grp",
	"SELECT e.name, d.label FROM events e LEFT JOIN dim d ON e.grp = d.grp WHERE e.id < 500",
	"SELECT e.name, d.grp, d.label FROM (SELECT name, grp FROM events WHERE grp < 40) e RIGHT JOIN dim d ON e.grp = d.grp",
	"SELECT e.name, e.grp, d.label FROM (SELECT name, grp FROM events WHERE id < 500 AND grp > 20) e FULL JOIN dim d ON e.grp = d.grp",
	"SELECT e.name, e.grp FROM events e LEFT SEMI JOIN dim d ON e.grp = d.grp",
	"SELECT e.name, d.label FROM events e JOIN dim d ON e.grp = d.grp AND e.id % 7 < d.grp % 5",
}

func spillCollect(t *testing.T, ctx *Context, query string) []Row {
	t.Helper()
	df, err := ctx.SQL(query)
	if err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	noNestedStages(t, ctx)
	batchesConverged(t, ctx)
	return rows
}

// noNestedStages fails t when a task of ctx ran a stage from inside its slot:
// a local action runs every stage its tasks read before the first one starts.
func noNestedStages(t testing.TB, ctx *Context) {
	t.Helper()
	if n := ctx.Metrics().Counter("rdd.stages.nested").Load(); n != 0 {
		t.Fatalf("rdd.stages.nested = %d: a task ran a stage nobody scheduled", n)
	}
}

// batchesConverged fails t when an analyzer or optimizer batch of ctx stopped
// at its iteration bound: a rule that matches nothing must return its input
// node, or its batch never reaches a fixed point.
func batchesConverged(t testing.TB, ctx *Context) {
	t.Helper()
	if n := ctx.Metrics().Counter("catalyst.batches.unconverged").Load(); n != 0 {
		t.Fatalf("catalyst.batches.unconverged = %d: a rule rebuilt a tree it did not change", n)
	}
}

func rowsText(rows []Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = row.FormatValue(v)
		}
		lines[i] = strings.Join(parts, "\t")
	}
	return strings.Join(lines, "\n")
}

func canonText(rows []Row) string {
	lines := strings.Split(rowsText(rows), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// spillRoomyBudget is far above the data size: every operator reserves its
// state and none may spill.
const spillRoomyBudget = 1 << 30

// TestSpillPropertyRandomBudgets runs the workload at fixed and seeded
// random budgets — from one byte to 16 KB against hundreds of KB of data —
// and checks every result against an unbudgeted golden run, that spilling
// actually occurred, and that no spill file survives any query; then once
// more under spillRoomyBudget, where the same reservations are taken and
// nothing may be flushed.
func TestSpillPropertyRandomBudgets(t *testing.T) {
	golden := NewContextWithConfig(spillConfig(0))
	setupSpillTables(t, golden)
	wantExact := make(map[string]string, len(spillExactQueries))
	for _, q := range spillExactQueries {
		wantExact[q] = rowsText(spillCollect(t, golden, q))
	}
	wantCanon := make(map[string]string, len(spillCanonQueries))
	for _, q := range spillCanonQueries {
		wantCanon[q] = canonText(spillCollect(t, golden, q))
	}
	checkLimits(t, golden, wantExact)

	budgets := []int64{1, 127, 1 << 10, 16 << 10}
	rng := rand.New(rand.NewSource(0x5B111))
	for i := 0; i < 3; i++ {
		budgets = append(budgets, 1+rng.Int63n(16<<10))
	}
	budgets = append(budgets, spillRoomyBudget)

	for _, budget := range budgets {
		budget := budget
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			if budget == 1 && testing.Short() {
				t.Skip("one-byte budget spills per row; skipped in -short")
			}
			ctx := NewContextWithConfig(spillConfig(budget))
			setupSpillTables(t, ctx)
			ctx.SpillFS().WriteNanosPerByte = 0
			ctx.SpillFS().ReadNanosPerByte = 0
			for _, q := range spillExactQueries {
				if got := rowsText(spillCollect(t, ctx, q)); got != wantExact[q] {
					t.Errorf("%q diverged from in-memory run at budget %d", q, budget)
				}
				if nf := ctx.SpillFS().NumFiles(); nf != 0 {
					t.Fatalf("%q left %d spill files at budget %d", q, nf, budget)
				}
			}
			checkLimits(t, ctx, wantExact)
			for _, q := range spillCanonQueries {
				if got := canonText(spillCollect(t, ctx, q)); got != wantCanon[q] {
					t.Errorf("%q diverged from in-memory run at budget %d", q, budget)
				}
				if nf := ctx.SpillFS().NumFiles(); nf != 0 {
					t.Fatalf("%q left %d spill files at budget %d", q, nf, budget)
				}
			}
			switch n := ctx.Metrics().Counter("memory.spill.count").Load(); {
			case budget == spillRoomyBudget && n != 0:
				t.Fatalf("%d spills under a budget far above the data size", n)
			case budget != spillRoomyBudget && n == 0:
				t.Fatalf("budget %d forced no spills over %d-row inputs", budget, spillRows)
			}
		})
	}
}

// aggregateLine returns the HashAggregate line of an EXPLAIN ANALYZE output.
func aggregateLine(t *testing.T, out string) string {
	t.Helper()
	return executedLine(t, out, "HashAggregate")
}

// executedLine is the first line of an EXPLAIN ANALYZE output naming op that
// ran.
func executedLine(t *testing.T, out, op string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, op) && strings.Contains(line, "actual:") {
			return line
		}
	}
	t.Fatalf("no executed %s in:\n%s", op, out)
	return ""
}

// TestSpillExplainAnalyze checks the observability contract: a budgeted run
// annotates spilling operators with `spilled: N B, R runs`, a budgeted
// reducer reports its table growth like an unbudgeted one, and the analyze
// run itself leaves no spill files behind.
func TestSpillExplainAnalyze(t *testing.T) {
	ctx := NewContextWithConfig(spillConfig(2 << 10))
	setupSpillTables(t, ctx)
	ctx.SpillFS().WriteNanosPerByte = 0
	ctx.SpillFS().ReadNanosPerByte = 0
	df, err := ctx.SQL("SELECT grp, count(*), sum(val) FROM events GROUP BY grp ORDER BY grp")
	if err != nil {
		t.Fatal(err)
	}
	out, err := df.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "spilled:") {
		t.Fatalf("EXPLAIN ANALYZE missing spill annotation:\n%s", out)
	}
	// 20 groups of ~230 reserved bytes per block against 2 KB: the reducers
	// themselves flush, and still count their tables' doublings.
	if agg := aggregateLine(t, out); !strings.Contains(agg, "spilled:") || !strings.Contains(agg, "grows=") {
		t.Fatalf("a spilling reducer must report both spilled: and grows=:\n%s", agg)
	}
	if nf := ctx.SpillFS().NumFiles(); nf != 0 {
		t.Fatalf("EXPLAIN ANALYZE left %d spill files", nf)
	}
	// DISTINCT is a grouping with no aggregate functions: its reducer takes
	// the same grace-spill merge.
	const distinct = "SELECT DISTINCT grp FROM events" // 20 groups per reducer
	tight := NewContextWithConfig(spillConfig(256))
	setupSpillTables(t, tight)
	ddf, err := tight.SQL(distinct)
	if err != nil {
		t.Fatal(err)
	}
	dout, err := ddf.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dout, "HashAggregate") || !strings.Contains(dout, "spilled:") {
		t.Fatalf("%q under a budget must merge through the spilling HashAggregate:\n%s", distinct, dout)
	}
	// An unbudgeted run must not mention spilling.
	g := NewContextWithConfig(spillConfig(0))
	setupSpillTables(t, g)
	gdf, err := g.SQL("SELECT grp, count(*), sum(val) FROM events GROUP BY grp ORDER BY grp")
	if err != nil {
		t.Fatal(err)
	}
	gout, err := gdf.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(gout, "spilled:") {
		t.Fatalf("unbudgeted EXPLAIN ANALYZE mentions spilling:\n%s", gout)
	}
	// A budget that is never hit runs the same tables: same groups, same
	// growth, no spill.
	roomy := NewContextWithConfig(spillConfig(spillRoomyBudget))
	setupSpillTables(t, roomy)
	rdf, err := roomy.SQL("SELECT grp, count(*), sum(val) FROM events GROUP BY grp ORDER BY grp")
	if err != nil {
		t.Fatal(err)
	}
	rout, err := rdf.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1's tables are its presplit exchange's, the reducers' growth the
	// aggregate's.
	tables := regexp.MustCompile(`groups=\d+ grows=\d+.*`)
	if got, want := tables.FindString(executedLine(t, rout, "Exchange presplit")), tables.FindString(executedLine(t, gout, "Exchange presplit")); got != want || want == "" {
		t.Fatalf("phase 1 under a roomy budget reports %q, unbudgeted %q", got, want)
	}
	reducers := regexp.MustCompile(`grows=\d+.*`)
	if got, want := reducers.FindString(aggregateLine(t, rout)), reducers.FindString(aggregateLine(t, gout)); got != want {
		t.Fatalf("reducer under a roomy budget reports %q, unbudgeted %q", got, want)
	}
}

// TestSpillCleanupOnCancel cancels a query mid-spill (slow simulated spill
// writes guarantee it cannot finish in time) and checks that every spill
// file is deleted on the cancellation path too: a sort alone, and a sort
// over a shuffled full outer join.
func TestSpillCleanupOnCancel(t *testing.T) {
	ctx := NewContextWithConfig(spillConfig(512))
	setupSpillTables(t, ctx)
	ctx.SpillFS().WriteNanosPerByte = 2000 // ~0.5 MB/s: spilling dominates the query
	ctx.SpillFS().ReadNanosPerByte = 0
	for _, q := range []string{
		"SELECT name, grp, val FROM events ORDER BY grp, name",
		"SELECT e.name, d.label FROM events e FULL JOIN dim d ON e.grp = d.grp ORDER BY e.name, d.label",
	} {
		df, err := ctx.SQL(q)
		if err != nil {
			t.Fatal(err)
		}
		cctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
		_, err = df.CollectContext(cctx)
		cancel()
		if err == nil {
			t.Fatalf("%q with a 15ms deadline over ~1s of simulated spill I/O should have been cancelled", q)
		}
		if nf := ctx.SpillFS().NumFiles(); nf != 0 {
			t.Fatalf("cancelled %q left %d spill files", q, nf)
		}
	}
}
