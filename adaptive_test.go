package sparksql

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/physical"
	"repro/internal/rdd"
)

// Adaptive query execution tests: each re-planning rule (partition
// coalescing, shuffled->broadcast promotion, broadcast->shuffled
// demotion, skew splitting) must both fire — visible as an `adapted:`
// note on an exchange in EXPLAIN ANALYZE — and leave query results
// byte-identical to the static plan.

// adaptiveConfig is the default engine — pipelines collapsed, vectorized
// and fused, since adaptation acts at the exchanges of any plan — with its
// counts fixed so decisions (and row emission order) do not depend on the
// host's core count.
func adaptiveConfig() Config {
	cfg := DefaultConfig()
	cfg.Parallelism = 4
	cfg.ShufflePartitions = 8
	return cfg
}

// registerRDDTable registers rows as an RDD-backed temp view: the
// planner sees no size estimates for it, which is exactly the regime
// adaptive execution exists for.
func registerRDDTable(t testing.TB, ctx *Context, name string, rows []Row, parts int) {
	t.Helper()
	schema := StructType{}.
		Add("k", LongType, false).
		Add("v", LongType, false)
	r := rdd.Parallelize(ctx.RDDContext(), rows, parts)
	df, err := ctx.CreateDataFrameFromRDD(schema, r)
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable(name)
}

// registerLocalTable registers rows as a LocalRelation temp view, whose
// row count the planner knows exactly (sizes are still estimated).
func registerLocalTable(t testing.TB, ctx *Context, name string, rows []Row) {
	t.Helper()
	schema := StructType{}.
		Add("k", LongType, false).
		Add("v", LongType, false)
	df, err := ctx.CreateDataFrame(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable(name)
}

func kvRows(n int, key func(i int) int64) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{key(i), int64(i)}
	}
	return rows
}

// explainAnalyze runs EXPLAIN ANALYZE and fails the test on error.
func explainAnalyze(t *testing.T, ctx *Context, query string) string {
	t.Helper()
	df, err := ctx.SQL(query)
	if err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	out, err := df.ExplainAnalyze()
	if err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	return out
}

// checkAblation runs query under cfg twice — adaptive on and off — and
// demands byte-identical results, then asserts the adaptive run's
// EXPLAIN ANALYZE carries the expected markers (the `adapted:` one, and what
// else the case pins).
func checkAblation(t *testing.T, cfg Config, setup func(testing.TB, *Context), query string, markers ...string) {
	t.Helper()
	on := cfg
	on.Adaptive = true
	off := cfg
	off.Adaptive = false

	ctxOn := NewContextWithConfig(on)
	setup(t, ctxOn)
	ctxOff := NewContextWithConfig(off)
	setup(t, ctxOff)

	gotOn := rowsText(spillCollect(t, ctxOn, query))
	gotOff := rowsText(spillCollect(t, ctxOff, query))
	if gotOn != gotOff {
		t.Fatalf("adaptive on/off results diverge for %q:\n-- on --\n%s\n-- off --\n%s",
			query, gotOn, gotOff)
	}
	if len(gotOn) == 0 {
		t.Fatalf("%q returned no rows; ablation is vacuous", query)
	}

	// A fresh context so the EXPLAIN ANALYZE run adapts from scratch.
	ctxEA := NewContextWithConfig(on)
	setup(t, ctxEA)
	ea := explainAnalyze(t, ctxEA, query)
	noNestedStages(t, ctxEA)
	batchesConverged(t, ctxEA)
	for _, marker := range markers {
		if !strings.Contains(ea, marker) {
			t.Fatalf("EXPLAIN ANALYZE for %q missing %q:\n%s", query, marker, ea)
		}
	}
	offEA := explainAnalyze(t, ctxOff, query)
	if strings.Contains(offEA, "adapted:") {
		t.Fatalf("EXPLAIN ANALYZE with Adaptive off shows an adaptation:\n%s", offEA)
	}
}

// TestAdaptiveCoalesce: an exchange statically sized to 8 reducers (the
// input size is unknown) observes a few hundred KB and coalesces. A grouped
// aggregate is re-sized up as well: one whose group count the planner could
// only guess (no column statistics: RowCount/16 groups, one reduce task)
// observes its input and splits into the session's 8 buckets, with the same
// rows in the same order as the static plan's one reducer.
func TestAdaptiveCoalesce(t *testing.T) {
	split := adaptiveConfig()
	split.TargetPartitionBytes = 16 << 10
	checkAblation(t, split, func(t testing.TB, ctx *Context) {
		registerLocalTable(t, ctx, "t", kvRows(4000, func(i int) int64 { return int64(i * 7 % 2000) }))
	}, "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k", "(est: 250 rows", "adapted: shuffle exchange -> 8 partitions")

	setup := func(t testing.TB, ctx *Context) {
		registerRDDTable(t, ctx, "t", kvRows(2000, func(i int) int64 { return int64(i % 50) }), 4)
	}
	checkAblation(t, adaptiveConfig(), setup,
		"SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k ORDER BY k",
		"adapted: shuffle exchange ->")
	// ORDER BY ... LIMIT n is a TopK, which has no exchange of its own and is
	// transparent to the re-planner: the aggregate under it still coalesces.
	checkAblation(t, adaptiveConfig(), setup,
		"SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k ORDER BY k LIMIT 5",
		"adapted: shuffle exchange ->", "TopK n=5 [k#", "50 rows in, 5 kept")
}

// TestAdaptivePromote: a shuffled join over estimate-free inputs whose
// build side turns out tiny is promoted to a broadcast join.
func TestAdaptivePromote(t *testing.T) {
	setup := func(t testing.TB, ctx *Context) {
		registerRDDTable(t, ctx, "a", kvRows(2000, func(i int) int64 { return int64(i % 50) }), 4)
		registerRDDTable(t, ctx, "b", kvRows(50, func(i int) int64 { return int64(i) }), 2)
	}
	checkAblation(t, adaptiveConfig(), setup,
		"SELECT a.k, a.v, b.v FROM a JOIN b ON a.k = b.k ORDER BY a.v",
		"ShuffledHashJoin -> BroadcastHashJoin (build side")
}

// TestAdaptiveDemote: the optimizer underestimates a filter (default
// selectivity on `v >= 0`, which actually keeps every row), plans a
// broadcast join under the threshold, and the observed build side blows
// past it — the join demotes to a shuffled hash join.
func TestAdaptiveDemote(t *testing.T) {
	cfg := adaptiveConfig()
	cfg.BroadcastThreshold = 8000
	setup := func(t testing.TB, ctx *Context) {
		registerLocalTable(t, ctx, "a", kvRows(1000, func(i int) int64 { return int64(i % 50) }))
		registerLocalTable(t, ctx, "b", kvRows(1000, func(i int) int64 { return int64(i % 50) }))
	}
	checkAblation(t, cfg, setup,
		"SELECT a.k, a.v, b.v FROM a JOIN (SELECT k, v FROM b WHERE v >= 0) b ON a.k = b.k ORDER BY a.v, b.v",
		"BroadcastHashJoin -> ShuffledHashJoin (build side")
}

// skewConfig shapes the skew ablations: a broadcast threshold of one
// byte keeps the dominated join shuffled (no promotion), and a small
// partition target keeps the observed exchange at 8 reducers so one hot
// bucket can exceed the skew factor.
func skewConfig() Config {
	cfg := adaptiveConfig()
	cfg.BroadcastThreshold = 1
	cfg.TargetPartitionBytes = 32 << 10
	return cfg
}

// setupSkewTables registers a Zipf(2)-keyed fact table (the majority of
// rows land on key 0) and a uniform dim side.
func setupSkewTables(t testing.TB, ctx *Context) {
	t.Helper()
	const factRows, keys = 6000, 64
	rows := make([]Row, factRows)
	for i := range rows {
		rows[i] = datagen.SkewedPairRow(0xADA9, int64(i), keys, 2.0)
	}
	r := rdd.Parallelize(ctx.RDDContext(), rows, 4)
	df, err := ctx.CreateDataFrameFromRDD(datagen.PairSchema(), r)
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("fact")

	dim := make([]Row, keys)
	for i := range dim {
		dim[i] = Row{int32(i), int32(i * 10)}
	}
	dr := rdd.Parallelize(ctx.RDDContext(), dim, 2)
	ddf, err := ctx.CreateDataFrameFromRDD(datagen.PairSchema(), dr)
	if err != nil {
		t.Fatal(err)
	}
	ddf.RegisterTempTable("dim")
}

const skewJoinQuery = "SELECT f.a, f.b, d.b FROM fact f JOIN dim d ON f.a = d.a ORDER BY f.a, f.b, d.b"

// TestAdaptiveSkewSplit: the hot reduce bucket exceeds SkewFactor x the
// mean bucket size and is split, visibly and without changing results.
func TestAdaptiveSkewSplit(t *testing.T) {
	checkAblation(t, skewConfig(), func(t testing.TB, ctx *Context) { setupSkewTables(t, ctx) },
		skewJoinQuery,
		"uniform reduce -> skew-split buckets")
}

// TestAdaptiveSkewProperty is the satellite property test: over the
// Zipf-keyed workload, every combination of {adaptive on, off} x
// {unbounded, 1-byte memory budget} must produce byte-identical results
// — the ORDER BY covers every selected column, so any correct execution
// has exactly one rendering.
func TestAdaptiveSkewProperty(t *testing.T) {
	queries := []string{
		skewJoinQuery,
		"SELECT f.a, COUNT(*), SUM(f.b) FROM fact f JOIN dim d ON f.a = d.a GROUP BY f.a ORDER BY f.a",
	}
	type variant struct {
		name     string
		adaptive bool
		budget   int64
	}
	variants := []variant{
		{"static", false, 0},
		{"adaptive", true, 0},
		{"static-1B", false, 1},
		{"adaptive-1B", true, 1},
	}
	for _, q := range queries {
		var golden string
		for _, v := range variants {
			cfg := skewConfig()
			cfg.Adaptive = v.adaptive
			cfg.MemoryBudget = v.budget
			ctx := NewContextWithConfig(cfg)
			setupSkewTables(t, ctx)
			got := rowsText(spillCollect(t, ctx, q))
			if v.name == "static" {
				golden = got
				continue
			}
			if got != golden {
				t.Fatalf("%s diverges from static for %q", v.name, q)
			}
		}
	}
	// The property must actually exercise the skew path: the unbounded
	// adaptive run splits the hot bucket.
	ctx := NewContextWithConfig(skewConfig())
	setupSkewTables(t, ctx)
	if ea := explainAnalyze(t, ctx, skewJoinQuery); !strings.Contains(ea, "skew-split") {
		t.Fatalf("skew property never hit a skew split:\n%s", ea)
	}
}

// TestPlanHashStripsAdaptedAnnotations is the regression test for plan
// fingerprint parity: the coordinator hashes its adapted plan (which
// carries `(adapted: ...)` annotations, including the skew note with a
// second embedded `adapted:` segment), a worker hashes its replayed
// plan (which need not carry any note), and the two must agree.
func TestPlanHashStripsAdaptedAnnotations(t *testing.T) {
	// The second plan has a TopK over the adapted join.
	for _, query := range []string{skewJoinQuery, skewJoinQuery + " LIMIT 9"} {
		testPlanHashStripsAdaptedAnnotations(t, query)
	}
}

func testPlanHashStripsAdaptedAnnotations(t *testing.T, query string) {
	cfg := skewConfig()
	ctx := NewContextWithConfig(cfg)
	setupSkewTables(t, ctx)
	df, err := ctx.SQL(query)
	if err != nil {
		t.Fatal(err)
	}
	qe, err := df.queryExecution()
	if err != nil {
		t.Fatal(err)
	}
	q := qe.q.(*core.QueryExecution)
	if _, err := q.Collect(); err != nil {
		t.Fatal(err)
	}
	if q.Executed == nil || len(q.Decisions) == 0 {
		t.Fatal("adaptive run recorded no decisions")
	}
	annotated := q.Executed.String()
	if !strings.Contains(annotated, "(adapted:") {
		t.Fatalf("executed plan carries no adapted annotation:\n%s", annotated)
	}
	if strings.Contains(query, "LIMIT") != strings.HasPrefix(annotated, "TopK n=9 [") {
		t.Fatalf("%q: only ORDER BY ... LIMIT plans as a TopK:\n%s", query, annotated)
	}
	h := q.PlanHash()

	// Worker-style replay: adaptive off, same decisions but with the
	// notes wiped, so the replayed plan has zero annotations. Only the
	// normalization in PlanHash can make the fingerprints agree.
	wcfg := cfg
	wcfg.Adaptive = false
	wctx := NewContextWithConfig(wcfg)
	setupSkewTables(t, wctx)
	wdf, err := wctx.SQL(query)
	if err != nil {
		t.Fatal(err)
	}
	wqe, err := wdf.queryExecution()
	if err != nil {
		t.Fatal(err)
	}
	wq := wqe.q.(*core.QueryExecution)
	bare := make([]physical.Decision, len(q.Decisions))
	copy(bare, q.Decisions)
	for i := range bare {
		bare[i].Note = ""
	}
	if err := wq.ApplyDecisions(bare); err != nil {
		t.Fatal(err)
	}
	if s := wq.Executed.String(); strings.Contains(s, "(adapted:") {
		t.Fatalf("note-free replay still renders an annotation:\n%s", s)
	}
	if wh := wq.PlanHash(); wh != h {
		t.Fatalf("plan hash %x (annotated) != %x (note-free replay):\n%s\n-- vs --\n%s",
			h, wh, annotated, wq.Executed.String())
	}
}

// TestAdaptiveOffMatchesDefaultPlans: with Adaptive off, plans and plan
// hashes are exactly the static planner's — no stage barriers, no
// decisions, no annotations.
func TestAdaptiveOffMatchesDefaultPlans(t *testing.T) {
	cfg := adaptiveConfig()
	cfg.Adaptive = false
	ctx := NewContextWithConfig(cfg)
	registerRDDTable(t, ctx, "t", kvRows(500, func(i int) int64 { return int64(i % 10) }), 4)
	for _, query := range []string{
		"SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k",
		"SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k LIMIT 3", // a TopK
	} {
		df, err := ctx.SQL(query)
		if err != nil {
			t.Fatal(err)
		}
		qe, err := df.queryExecution()
		if err != nil {
			t.Fatal(err)
		}
		q := qe.q.(*core.QueryExecution)
		before := q.PlanHash()
		if _, err := q.Collect(); err != nil {
			t.Fatal(err)
		}
		if q.Executed != nil || len(q.Decisions) != 0 {
			t.Fatalf("Adaptive off still adapted: %d decisions", len(q.Decisions))
		}
		if after := q.PlanHash(); after != before {
			t.Fatalf("plan hash changed across execution with Adaptive off: %x -> %x", before, after)
		}
		if strings.Contains(query, "LIMIT") != strings.HasPrefix(q.Physical.String(), "TopK n=3 [") {
			t.Fatalf("%q: only ORDER BY ... LIMIT plans as a TopK:\n%s", query, q.Physical)
		}
	}
}

// The fused plans adapt too: a grouped aggregate over a cached table (Q2a's
// shape) and a fused broadcast join feeding an aggregate (Q3b's shape) show
// an `adapted:` or `not adapted:` note on every exchange line under the
// default config, answer byte for byte as with adaptive execution off at
// budgets ∞, 64 KB and 1 B, leave no spill file behind, and run each
// exchange's map stage once: the shuffle records they count equal the static
// plan's, which runs each map stage once.
func TestAdaptiveFusedPlans(t *testing.T) {
	for shape, q := range map[string]string{
		"Q2a": "SELECT name, SUM(val) FROM events GROUP BY name",
		"Q3b": "SELECT d.label, SUM(e.val), COUNT(*) FROM events e JOIN dim d ON e.grp = d.grp GROUP BY d.label",
	} {
		for _, budget := range []int64{0, 64 << 10, 1} {
			var got [2]string
			var records [2]int64
			for i, adaptive := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.MemoryBudget, cfg.Adaptive = budget, adaptive
				ctx := NewContextWithConfig(cfg)
				setupFusedTables(t, ctx, cacheTempTable)
				shuffled := ctx.Metrics().Counter("rdd.shuffle.records")
				before := shuffled.Load()
				got[i], records[i] = rowsText(spillCollect(t, ctx, q)), shuffled.Load()-before
				if nf := ctx.SpillFS().NumFiles(); nf != 0 {
					t.Fatalf("%s budget=%d adaptive=%v: %d spill files left", shape, budget, adaptive, nf)
				}
				if !adaptive || budget != 0 {
					continue
				}
				ea := explainAnalyze(t, ctx, q)
				if !fusedAggregate(ea) || shape == "Q3b" && !strings.Contains(ea, "FusedBroadcastHashJoin") {
					t.Fatalf("%s: the plan is not fused:\n%s", shape, ea)
				}
				for _, line := range strings.Split(ea, "\n") {
					if strings.Contains(line, "Exchange ") && !strings.Contains(line, "adapted: ") {
						t.Fatalf("%s: an exchange without an adaptive note: %q in\n%s", shape, line, ea)
					}
				}
			}
			if got[0] != got[1] {
				t.Fatalf("%s budget=%d: adaptive on/off diverge:\n-- off --\n%.400s\n-- on --\n%.400s", shape, budget, got[0], got[1])
			}
			if records[0] == 0 || records[1] != records[0] {
				t.Fatalf("%s budget=%d: shuffle records %d adaptive, %d static: a map stage ran twice or not at all", shape, budget, records[1], records[0])
			}
		}
	}
}
