package sparksql

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// analyzeText runs EXPLAIN ANALYZE <starQuery> through the SQL front end —
// executing the query with per-operator metrics forced on — and reassembles
// the returned rows into the annotated plan text.
func analyzeText(t *testing.T, ctx *Context) string {
	t.Helper()
	df, err := ctx.SQL("EXPLAIN ANALYZE " + starQuery)
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

// wallTimes normalizes measured durations ("0.6 ms" -> "T ms") so the golden
// file pins row counts and plan shape, not machine speed.
var wallTimes = regexp.MustCompile(`\d+(\.\d+)? ms`)

func normalizeAnalyze(s string) string {
	return wallTimes.ReplaceAllString(normalizePlan(s), "T ms")
}

// TestExplainAnalyzeStarSchemaGolden pins the EXPLAIN ANALYZE output of the
// star-schema query: every physical node carries both its cost estimate and
// the measured actuals, with row counts that are hand-computable from the
// fixture. dim2 holds 1000 rows named "d2-" + "x"*(i%7) + digit(i%10), so
// "d2-xxx3" matches i ≡ 3 (mod 70): 15 keys. Each dim2 key matches 5000/1000
// = 5 fact rows, so the join (and everything above it) carries 15*5 = 75
// rows; the build sides materialize 15 (filtered dim2) and 20 (dim1) rows.
func TestExplainAnalyzeStarSchemaGolden(t *testing.T) {
	ctx := starSchemaContext(t, goldenConfig())
	analyzeStarSchema(t, ctx)
	raw := analyzeText(t, ctx)
	got := normalizeAnalyze(raw)

	golden := filepath.Join("testdata", "explain_analyze_star_schema.golden")
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
		t.Fatalf("EXPLAIN ANALYZE output differs from golden (run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Structural assertions, independent of the golden bytes.
	sections := strings.Split(got, "== ")
	var physical string
	for _, s := range sections {
		if strings.HasPrefix(s, "Physical Plan ==") {
			physical = s
		}
	}
	if physical == "" {
		t.Fatal("no physical section in EXPLAIN ANALYZE output")
	}
	for _, line := range strings.Split(physical, "\n")[1:] {
		if strings.TrimSpace(line) == "" {
			continue
		}
		if !strings.Contains(line, "actual: ") {
			t.Fatalf("physical plan line lacks actual: annotation: %q", line)
		}
		if !strings.Contains(line, "est: ") {
			t.Fatalf("physical plan line lacks est: annotation: %q", line)
		}
	}

	// The hand-computed cardinalities, matched exactly: top of the plan and
	// both joins flow 75 rows, the filtered dim2 pipeline keeps 15 of its
	// 1000, the builds hold 20 (dim1) and 15 (filtered dim2), and the scans
	// see every seeded row.
	for _, want := range []string{
		"actual: 75 rows",   // Sort / joins / projections
		"actual: 15 rows",   // filtered dim2 pipeline
		"actual: 5000 rows", // fact scan
		"actual: 1000 rows", // dim2 scan
		"actual: 20 rows",   // dim1 scan
		"build=20 rows",
		"build=15 rows",
	} {
		if !strings.Contains(physical, want) {
			t.Fatalf("physical plan lacks %q:\n%s", want, physical)
		}
	}
	if !strings.Contains(got, "result: 75 rows in T ms") {
		t.Fatalf("missing runtime summary:\n%s", got)
	}
}

// TestExplainAnalyzeFreshPerRun pins that each EXPLAIN ANALYZE builds a
// fresh execution: actuals reflect exactly one run and do not accumulate
// across invocations.
func TestExplainAnalyzeFreshPerRun(t *testing.T) {
	ctx := starSchemaContext(t, goldenConfig())
	analyzeStarSchema(t, ctx)
	first := normalizeAnalyze(analyzeText(t, ctx))
	second := normalizeAnalyze(analyzeText(t, ctx))
	if first != second {
		t.Fatalf("EXPLAIN ANALYZE not stable across runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if strings.Contains(second, "actual: 150 rows") {
		t.Fatal("actual row counts accumulated across runs")
	}
}

// TestExplainAnalyzeGroupTable pins the group table's line in EXPLAIN ANALYZE.
// fact's d1_k takes 20 values in each of the 4 partitions: phase 1 holds
// 4 × 20 partial groups in tables that start at 16 slots and double on their
// 9th and 17th group, and the pre-sized reducers never grow. A join whose 40
// build rows share 20 keys says so; one whose build keys are its build rows
// (the golden's joins) says nothing more than build=.
func TestExplainAnalyzeGroupTable(t *testing.T) {
	ctx := starSchemaContext(t, goldenConfig())
	analyzeStarSchema(t, ctx)
	for q, want := range map[string]string{
		"SELECT d1_k, count(*) AS n FROM fact GROUP BY d1_k":                         "actual: 20 rows, T ms, groups=80 grows=8)",
		"SELECT f.f_id FROM fact f JOIN fact g ON f.d1_k = g.d1_k WHERE g.f_id < 40": "build=40 rows, table=i64, groups=20 grows=0)",
		"SELECT f.f_id FROM fact f JOIN dim1 d ON f.d1_k = d.d1_k WHERE f.f_id < 40": "build=20 rows, table=i64)",
	} {
		df, err := ctx.SQL("EXPLAIN ANALYZE " + q)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := df.Collect()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, r := range rows {
			sb.WriteString(r[0].(string) + "\n")
		}
		if got := normalizeAnalyze(sb.String()); !strings.Contains(got, want) {
			t.Errorf("%s: no %q in\n%s", q, want, got)
		}
	}
}

// TestExplainAnalyzeMatchesCollect pins that running a query under EXPLAIN
// ANALYZE returns the same row count the plain query produces, for a few
// shapes beyond the star schema (aggregate, vectorizable scan), and says how
// the result left the engine: an aggregate's reducers box it in their tasks,
// a row pipeline's rows are copied.
func TestExplainAnalyzeMatchesCollect(t *testing.T) {
	ctx := starSchemaContext(t, goldenConfig())
	analyzeStarSchema(t, ctx)
	for q, path := range map[string]string{
		"SELECT d1_k, count(*) AS n FROM fact GROUP BY d1_k": ", boxed in 1 tasks", // adaptive execution coalesced its 4 reducers
		"SELECT f_id FROM fact WHERE amount > 40":            ", copied from WholeStagePipeline rows",
	} {
		df, err := ctx.SQL(q)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := df.Collect()
		if err != nil {
			t.Fatal(err)
		}
		adf, err := ctx.SQL("EXPLAIN ANALYZE " + q)
		if err != nil {
			t.Fatal(err)
		}
		arows, err := adf.Collect()
		if err != nil {
			t.Fatal(err)
		}
		var text strings.Builder
		for _, r := range arows {
			text.WriteString(r[0].(string))
			text.WriteByte('\n')
		}
		want := fmt.Sprintf("result: %d rows", len(rows))
		if !strings.Contains(text.String(), want) || !strings.Contains(normalizeAnalyze(text.String()), want+" in T ms"+path) {
			t.Fatalf("EXPLAIN ANALYZE of %q lacks %q…%q:\n%s", q, want, path, text.String())
		}
	}
}
