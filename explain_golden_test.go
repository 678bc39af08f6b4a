package sparksql

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenConfig is DefaultConfig with the fan-out pinned: Parallelism and
// ShufflePartitions default to GOMAXPROCS, and partition counts show in
// EXPLAIN (adaptive coalescing annotations), so an unpinned golden only
// matches on hosts with the core count it was generated on.
func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.Parallelism = 4
	cfg.ShufflePartitions = 4
	return cfg
}

// starSchemaContext registers a deterministic 3-table star schema: a fact
// table and two dimensions, where dim1 is small (20 rows) and dim2 is much
// larger (1000 rows) but the test query filters dim2 down to one name.
// Per-column statistics are what tell the optimizer that the filtered dim2
// is the smaller join input; without them the size-only guess prefers dim1.
func starSchemaContext(t *testing.T, cfg Config) *Context {
	t.Helper()
	ctx := NewContextWithConfig(cfg)

	fact := StructType{}.
		Add("f_id", LongType, false).
		Add("d1_k", LongType, false).
		Add("d2_k", LongType, false).
		Add("amount", DoubleType, false)
	var factRows []Row
	for i := int64(0); i < 5000; i++ {
		factRows = append(factRows, Row{i, i % 20, i % 1000, float64(i%97) / 2})
	}
	df, err := ctx.CreateDataFrame(fact, factRows)
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("fact")

	dim1 := StructType{}.
		Add("d1_k", LongType, false).
		Add("d1_name", StringType, false)
	var dim1Rows []Row
	for i := int64(0); i < 20; i++ {
		dim1Rows = append(dim1Rows, Row{i, "d1-" + string(rune('a'+i))})
	}
	df, err = ctx.CreateDataFrame(dim1, dim1Rows)
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("dim1")

	dim2 := StructType{}.
		Add("d2_k", LongType, false).
		Add("d2_name", StringType, false)
	var dim2Rows []Row
	for i := int64(0); i < 1000; i++ {
		dim2Rows = append(dim2Rows, Row{i, "d2-" + strings.Repeat("x", int(i%7)) + string(rune('0'+i%10))})
	}
	df, err = ctx.CreateDataFrame(dim2, dim2Rows)
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("dim2")
	return ctx
}

func analyzeStarSchema(t *testing.T, ctx *Context) {
	t.Helper()
	for _, name := range []string{"fact", "dim1", "dim2"} {
		if _, err := ctx.SQL("ANALYZE TABLE " + name + " COMPUTE STATISTICS"); err != nil {
			t.Fatal(err)
		}
	}
}

const starQuery = `SELECT f_id, d1_name, d2_name, amount
FROM fact
JOIN dim1 ON fact.d1_k = dim1.d1_k
JOIN dim2 ON fact.d2_k = dim2.d2_k
WHERE d2_name = 'd2-xxx3'
ORDER BY f_id`

// explainText runs EXPLAIN <starQuery> through the SQL front end and
// reassembles the returned rows into the plan text.
func explainText(t *testing.T, ctx *Context) string {
	t.Helper()
	df, err := ctx.SQL("EXPLAIN " + starQuery)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(r[0].(string))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// attrIDs normalizes expression IDs (#42 -> #N) so golden files survive
// unrelated ID-counter drift across test runs and orderings.
var attrIDs = regexp.MustCompile(`#\d+`)

func normalizePlan(s string) string { return attrIDs.ReplaceAllString(s, "#N") }

// TestExplainStarSchemaGolden pins the full annotated EXPLAIN output of a
// star-schema query after ANALYZE: every resolved node carries an est:
// annotation and the join order reflects the statistics (fact joins the
// filtered dim2 — estimated at a handful of rows via 1/NDV equality
// selectivity — before the 20-row dim1).
func TestExplainStarSchemaGolden(t *testing.T) {
	ctx := starSchemaContext(t, goldenConfig())
	analyzeStarSchema(t, ctx)
	got := normalizePlan(explainText(t, ctx))
	batchesConverged(t, ctx)

	golden := filepath.Join("testdata", "explain_star_schema.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("EXPLAIN output differs from golden (run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Structural assertions, independent of the golden bytes: every line of
	// the optimized plan is annotated.
	sections := strings.Split(got, "== ")
	var optimized string
	for _, s := range sections {
		if strings.HasPrefix(s, "Optimized Plan ==") {
			optimized = s
		}
	}
	if optimized == "" {
		t.Fatal("no optimized section in EXPLAIN output")
	}
	for _, line := range strings.Split(optimized, "\n")[1:] {
		if strings.TrimSpace(line) == "" {
			continue
		}
		if !strings.Contains(line, "est: ") {
			t.Fatalf("optimized plan line lacks est: annotation: %q", line)
		}
	}
}

// TestJoinReorderChangesPlanNotResults is the end-to-end acceptance check:
// with collected statistics the join order changes relative to the
// reorder-disabled plan, while the query result stays byte-identical.
func TestJoinReorderChangesPlanNotResults(t *testing.T) {
	on := starSchemaContext(t, goldenConfig())
	analyzeStarSchema(t, on)
	cfgOff := goldenConfig()
	cfgOff.JoinReorder = false
	off := starSchemaContext(t, cfgOff)
	analyzeStarSchema(t, off)

	onPlan := normalizePlan(explainText(t, on))
	offPlan := normalizePlan(explainText(t, off))
	if onPlan == offPlan {
		t.Fatal("join reordering changed nothing on the star schema")
	}

	// In the reordered plan the deepest join must pair fact with the
	// filtered dim2; in the original order it pairs fact with dim1.
	deepestJoinLine := func(text string) string {
		var sections []string
		for _, s := range strings.Split(text, "== ") {
			if strings.HasPrefix(s, "Optimized Plan ==") {
				sections = append(sections, s)
			}
		}
		if len(sections) != 1 {
			t.Fatal("no optimized section")
		}
		last := ""
		for _, line := range strings.Split(sections[0], "\n") {
			if strings.Contains(line, "Join") {
				last = line
			}
		}
		return last
	}
	onDeep, offDeep := deepestJoinLine(onPlan), deepestJoinLine(offPlan)
	if !strings.Contains(onDeep, "d2_k") {
		t.Fatalf("reordered deepest join should use d2_k: %q", onDeep)
	}
	if !strings.Contains(offDeep, "d1_k") {
		t.Fatalf("original deepest join should use d1_k: %q", offDeep)
	}

	// Same rows, same order, byte for byte.
	run := func(ctx *Context) []Row {
		df, err := ctx.SQL(starQuery)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := df.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	onRows, offRows := run(on), run(off)
	if len(onRows) == 0 {
		t.Fatal("query returned no rows; the filter literal must match seeded data")
	}
	if !reflect.DeepEqual(onRows, offRows) {
		t.Fatalf("reordering changed results: %d vs %d rows", len(onRows), len(offRows))
	}
}
