package core

import (
	"fmt"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalyst"
	"repro/internal/columnar"
	"repro/internal/datasource"
	"repro/internal/datasource/colfile"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/row"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// ruleOffQueries is the rule-off differential's query set: the paper's Q1–Q3
// shapes over a cached rankings and a colfile uservisits, a three-table star
// join, UNIONs and ORDER BY … LIMIT, written so that every optimizer rule
// rewrites at least one of them. ordered marks a query whose row order is
// part of its answer.
var ruleOffQueries = []struct {
	sql     string
	ordered bool
}{
	{sql: "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 10 + 40"},
	{sql: `SELECT pageURL FROM (SELECT * FROM rankings WHERE pageRank > 20) r
		WHERE CAST(pageRank AS INT) < 90 AND true AND pageRank IS NOT NULL`},
	{sql: "SELECT COUNT(*), SUM(avgDuration + NULL) FROM rankings WHERE 1 = 1"},
	{sql: "SELECT a, b * 2 FROM (SELECT pageURL AS a, pageRank + 1 AS b FROM rankings WHERE pageRank < 30) s"},
	{sql: "SELECT SUBSTR(sourceIP, 1, 5), SUM(adRevenue) FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 5)"},
	{sql: `SELECT SUBSTR(sourceIP, 1, 3) AS p, SUM(CAST(duration AS DECIMAL(7, 2))) FROM uservisits
		WHERE destURL LIKE 'url1%' GROUP BY SUBSTR(sourceIP, 1, 3)`},
	{sql: `SELECT d, c FROM (SELECT duration AS d, COUNT(*) AS c FROM uservisits GROUP BY duration) a
		WHERE d > 5`},
	{sql: `SELECT sourceIP, SUM(adRevenue), AVG(pageRank) FROM rankings r JOIN uservisits uv
		ON r.pageURL = uv.destURL WHERE uv.visitDate BETWEEN '1980-02-01' AND '1980-05-01'
		GROUP BY sourceIP`},
	{sql: `SELECT f_id, d1_name, d2_name, amount FROM fact
		JOIN dim1 ON fact.d1 = dim1.d1 JOIN dim2 ON fact.d2 = dim2.d2 WHERE d2_name LIKE 'y3%'`},
	{sql: `SELECT u, n FROM (SELECT pageURL AS u, pageRank AS n FROM rankings WHERE pageRank < 10
		UNION ALL SELECT destURL, duration FROM uservisits
		UNION ALL SELECT pageURL, avgDuration FROM rankings) x WHERE n > 3`},
	{sql: "SELECT d1 FROM fact UNION SELECT d1 FROM dim1"},
	{sql: "SELECT pageURL, pageRank FROM rankings ORDER BY pageRank DESC, pageURL LIMIT 7", ordered: true},
	{sql: `SELECT * FROM (SELECT pageURL, pageRank FROM rankings ORDER BY pageRank DESC, pageURL LIMIT 20) t
		LIMIT 5`, ordered: true},
}

// TestRuleOffDifferential removes one rule at a time, an optimizer rule or a
// physical preparation rule, and runs ruleOffQueries: each answer must equal
// the one with every rule on, and each rule must change the optimized (or the
// physical) plan of at least one query, so that no rule is in the list
// without being tested (paper §4.2: rules are independent partial functions;
// Calcite tests each against the unoptimised plan). The planner needs none of
// them: every query plans with any one rule removed.
func TestRuleOffDifferential(t *testing.T) {
	uservisits := colfileRelation(t)
	run := func(without string) (answers, optPlans, physPlans []string) {
		e := NewEngine(DefaultConfig())
		registerRuleOffTables(e, uservisits)
		dropRule(e.opt.Exec, without)
		dropRule(e.planner.Prepare, without)
		for _, q := range ruleOffQueries {
			stmt, err := sqlparser.Parse(q.sql)
			if err != nil {
				t.Fatalf("%s: %v", q.sql, err)
			}
			qe, err := e.Execute(stmt.(*sqlparser.SelectStatement).Plan)
			if err != nil {
				t.Fatalf("without %s: %s: %v", without, q.sql, err)
			}
			rows, err := qe.Collect()
			if err != nil {
				t.Fatalf("without %s: %s: %v", without, q.sql, err)
			}
			answers = append(answers, answerText(rows, q.ordered))
			optPlans = append(optPlans, exprIDs.ReplaceAllString(qe.Optimized.String(), "#"))
			physPlans = append(physPlans, exprIDs.ReplaceAllString(qe.Physical.String(), "#"))
		}
		if n := e.RDDCtx.Metrics().Counter("catalyst.batches.unconverged").Load(); n != 0 {
			t.Fatalf("without %s: catalyst.batches.unconverged = %d", without, n)
		}
		return answers, optPlans, physPlans
	}

	want, allOpt, allPhys := run("")
	for _, a := range want {
		if a == "" {
			t.Fatalf("a query returned no rows; the differential is vacuous:\n%v", want)
		}
	}
	e := NewEngine(DefaultConfig())
	optRules, physRules := ruleNames(e.opt.Exec), ruleNames(e.planner.Prepare)
	if !slices.Equal(physRules, []string{"Collapse", "Vectorize", "Fuse"}) {
		t.Fatalf("physical preparation rules %v, want Collapse, Vectorize and Fuse", physRules)
	}
	for _, name := range slices.Concat(optRules, physRules) {
		got, optPlans, physPlans := run(name)
		if slices.Contains(optRules, name) && slices.Equal(optPlans, allOpt) {
			t.Errorf("removing %s changed no optimized plan: the query set does not exercise it", name)
		}
		if slices.Contains(physRules, name) && slices.Equal(physPlans, allPhys) {
			t.Errorf("removing %s changed no physical plan: the query set does not exercise it", name)
		}
		for i, q := range ruleOffQueries {
			if got[i] != want[i] {
				t.Errorf("without %s, %s\n-- got --\n%s\n-- want --\n%s", name, q.sql, got[i], want[i])
			}
		}
	}
}

// dropRule removes the rule named name from every batch of x.
func dropRule[T catalyst.TreeNode[T]](x *catalyst.RuleExecutor[T], name string) {
	for i, b := range x.Batches {
		x.Batches[i].Rules = slices.DeleteFunc(slices.Clone(b.Rules), func(r catalyst.Rule[T]) bool { return r.Name == name })
	}
}

// exprIDs matches the expression ids a plan prints, which differ between
// analyses of the same text.
var exprIDs = regexp.MustCompile(`#\d+`)

func ruleNames[T catalyst.TreeNode[T]](x *catalyst.RuleExecutor[T]) []string {
	var names []string
	for _, b := range x.Batches {
		for _, r := range b.Rules {
			names = append(names, r.Name)
		}
	}
	return names
}

func answerText(rows []row.Row, ordered bool) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = fmt.Sprint([]any(r))
	}
	if !ordered {
		slices.Sort(lines)
	}
	return strings.Join(lines, "\n")
}

var (
	rankingsSchema = types.NewStruct(
		types.StructField{Name: "pageURL", Type: types.String},
		types.StructField{Name: "pageRank", Type: types.Int},
		types.StructField{Name: "avgDuration", Type: types.Int},
	)
	uservisitsSchema = types.NewStruct(
		types.StructField{Name: "sourceIP", Type: types.String},
		types.StructField{Name: "destURL", Type: types.String},
		types.StructField{Name: "visitDate", Type: types.String},
		types.StructField{Name: "adRevenue", Type: types.Double},
		types.StructField{Name: "duration", Type: types.Int},
	)
)

// colfileRelation writes 600 uservisits rows to a colfile of 100-row groups:
// the leaf the source-pushdown rules rewrite. Half the destURLs hold their
// LIKE prefix mid-string, and adRevenue is a multiple of 0.25, so its sums
// are exact in any order.
func colfileRelation(t *testing.T) datasource.Relation {
	rows := make([]row.Row, 600)
	for i := range rows {
		rows[i] = row.Row{
			fmt.Sprintf("10.%d.%d.%d", i%7, i%5, i%3),
			[]string{"", "m."}[i%2] + fmt.Sprintf("url%d", i%150),
			fmt.Sprintf("1980-%02d-%02d", 1+i%12, 1+i%28),
			float64(i%40) / 4,
			int32(i % 11),
		}
	}
	path := filepath.Join(t.TempDir(), "uservisits.col")
	if err := colfile.Write(path, uservisitsSchema, rows, 100); err != nil {
		t.Fatal(err)
	}
	rel, err := colfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// registerRuleOffTables registers rankings (200 rows behind the columnar
// cache), uservisits (the colfile, under fresh attributes) and the star schema
// (LocalRelations: a 300-row fact and two 20-row dimensions).
func registerRuleOffTables(e *Engine, uservisits datasource.Relation) {
	ranks := make([]row.Row, 200)
	for i := range ranks {
		ranks[i] = row.Row{fmt.Sprintf("url%d", i), int32(i % 97), int32(i % 13)}
	}
	table := columnar.BuildTable(rankingsSchema, [][]row.Row{ranks[:100], ranks[100:]}, 0)
	e.Catalog.RegisterTable("rankings", &plan.InMemoryRelation{
		Attrs: plan.NewLocalRelation(rankingsSchema, nil).Attrs, Table: table,
		SizeInBytes: table.SizeBytes(), RowCount: table.RowCount(), Origin: "rankings",
	})
	attrs := make([]*expr.AttributeReference, len(uservisitsSchema.Fields))
	for i, f := range uservisitsSchema.Fields {
		attrs[i] = expr.NewAttribute(f.Name, f.Type, f.Nullable)
	}
	e.Catalog.RegisterTable("uservisits", &plan.DataSourceRelation{Name: "uservisits", Rel: uservisits, Attrs: attrs})

	fact := make([]row.Row, 300)
	for i := range fact {
		fact[i] = row.Row{int64(i), int32(i % 20), int32(i % 17), int64(i * 3)}
	}
	dim := func(prefix string) []row.Row {
		rows := make([]row.Row, 20)
		for i := range rows {
			rows[i] = row.Row{int32(i), fmt.Sprintf("%s%d", prefix, i)}
		}
		return rows
	}
	e.Catalog.RegisterTable("fact", plan.NewLocalRelation(types.NewStruct(
		types.StructField{Name: "f_id", Type: types.Long},
		types.StructField{Name: "d1", Type: types.Int},
		types.StructField{Name: "d2", Type: types.Int},
		types.StructField{Name: "amount", Type: types.Long},
	), fact))
	e.Catalog.RegisterTable("dim1", plan.NewLocalRelation(types.NewStruct(
		types.StructField{Name: "d1", Type: types.Int},
		types.StructField{Name: "d1_name", Type: types.String},
	), dim("x")))
	e.Catalog.RegisterTable("dim2", plan.NewLocalRelation(types.NewStruct(
		types.StructField{Name: "d2", Type: types.Int},
		types.StructField{Name: "d2_name", Type: types.String},
	), dim("y")))
}
