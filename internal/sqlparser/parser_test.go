package sqlparser

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

func parseQuery(t *testing.T, sql string) plan.LogicalPlan {
	t.Helper()
	lp, err := ParseQuery(sql)
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", sql, err)
	}
	return lp
}

func TestSelectBasicShape(t *testing.T) {
	lp := parseQuery(t, "SELECT a, b AS bee FROM t WHERE a > 1")
	proj, ok := lp.(*plan.Project)
	if !ok {
		t.Fatalf("top = %T", lp)
	}
	if len(proj.List) != 2 {
		t.Fatalf("list = %v", proj.List)
	}
	if alias, ok := proj.List[1].(*expr.Alias); !ok || alias.Name != "bee" {
		t.Fatalf("alias = %v", proj.List[1])
	}
	f, ok := proj.Child.(*plan.Filter)
	if !ok {
		t.Fatalf("expected filter below project, got %T", proj.Child)
	}
	if _, ok := f.Child.(*plan.UnresolvedRelation); !ok {
		t.Fatalf("expected unresolved relation, got %T", f.Child)
	}
}

func TestImplicitAlias(t *testing.T) {
	lp := parseQuery(t, "SELECT a + 1 total FROM t")
	proj := lp.(*plan.Project)
	if alias, ok := proj.List[0].(*expr.Alias); !ok || alias.Name != "total" {
		t.Fatalf("implicit alias = %v", proj.List[0])
	}
}

func TestStarVariants(t *testing.T) {
	lp := parseQuery(t, "SELECT *, t.* FROM t")
	proj := lp.(*plan.Project)
	if _, ok := proj.List[0].(*expr.Star); !ok {
		t.Fatal("bare star")
	}
	if s, ok := proj.List[1].(*expr.Star); !ok || s.Qualifier != "t" {
		t.Fatalf("qualified star = %v", proj.List[1])
	}
}

func TestOperatorPrecedence(t *testing.T) {
	lp := parseQuery(t, "SELECT 1 + 2 * 3 FROM t")
	proj := lp.(*plan.Project)
	add, ok := proj.List[0].(*expr.BinaryArith)
	if !ok || add.Op != expr.OpAdd {
		t.Fatalf("top op = %v", proj.List[0])
	}
	if mul, ok := add.Right.(*expr.BinaryArith); !ok || mul.Op != expr.OpMul {
		t.Fatalf("* must bind tighter: %v", proj.List[0])
	}
	// AND binds tighter than OR; NOT tighter than AND.
	lp = parseQuery(t, "SELECT * FROM t WHERE NOT a AND b OR c")
	cond := lp.(*plan.Project).Child.(*plan.Filter).Cond
	or, ok := cond.(*expr.Or)
	if !ok {
		t.Fatalf("top = %v", cond)
	}
	and, ok := or.Left.(*expr.And)
	if !ok {
		t.Fatalf("left of OR = %v", or.Left)
	}
	if _, ok := and.Left.(*expr.Not); !ok {
		t.Fatalf("NOT a = %v", and.Left)
	}
}

func TestPredicateForms(t *testing.T) {
	cond := func(sql string) expr.Expression {
		lp := parseQuery(t, "SELECT * FROM t WHERE "+sql)
		return lp.(*plan.Project).Child.(*plan.Filter).Cond
	}
	if _, ok := cond("a IS NULL").(*expr.IsNull); !ok {
		t.Error("IS NULL")
	}
	if _, ok := cond("a IS NOT NULL").(*expr.IsNotNull); !ok {
		t.Error("IS NOT NULL")
	}
	if _, ok := cond("a LIKE '%x%'").(*expr.Like); !ok {
		t.Error("LIKE")
	}
	if n, ok := cond("a NOT LIKE '%x%'").(*expr.Not); !ok {
		t.Error("NOT LIKE")
	} else if _, ok := n.Child.(*expr.Like); !ok {
		t.Error("NOT LIKE child")
	}
	if in, ok := cond("a IN (1, 2, 3)").(*expr.In); !ok || len(in.List) != 3 {
		t.Error("IN")
	}
	if _, ok := cond("a NOT IN (1)").(*expr.Not); !ok {
		t.Error("NOT IN")
	}
	between := cond("a BETWEEN 1 AND 5")
	if and, ok := between.(*expr.And); !ok {
		t.Errorf("BETWEEN = %v", between)
	} else {
		if ge, ok := and.Left.(*expr.Comparison); !ok || ge.Op != expr.OpGE {
			t.Errorf("BETWEEN lower = %v", and.Left)
		}
	}
}

func TestCaseAndCast(t *testing.T) {
	lp := parseQuery(t, "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t")
	cw, ok := lp.(*plan.Project).List[0].(*expr.CaseWhen)
	if !ok || len(cw.Branches()) != 1 || cw.ElseValue() == nil {
		t.Fatalf("case = %v", lp.(*plan.Project).List[0])
	}
	lp = parseQuery(t, "SELECT CAST(a AS BIGINT), CAST(b AS DECIMAL(10,2)) FROM t")
	c1 := lp.(*plan.Project).List[0].(*expr.Cast)
	if !c1.To.Equals(types.Long) {
		t.Errorf("cast 1 = %s", c1.To.Name())
	}
	c2 := lp.(*plan.Project).List[1].(*expr.Cast)
	if !c2.To.Equals(types.DecimalType{Precision: 10, Scale: 2}) {
		t.Errorf("cast 2 = %s", c2.To.Name())
	}
}

func TestJoinVariants(t *testing.T) {
	shapes := []struct {
		sql  string
		want plan.JoinType
	}{
		{"SELECT * FROM a JOIN b ON a.x = b.x", plan.InnerJoin},
		{"SELECT * FROM a INNER JOIN b ON a.x = b.x", plan.InnerJoin},
		{"SELECT * FROM a LEFT JOIN b ON a.x = b.x", plan.LeftOuterJoin},
		{"SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x", plan.LeftOuterJoin},
		{"SELECT * FROM a RIGHT JOIN b ON a.x = b.x", plan.RightOuterJoin},
		{"SELECT * FROM a FULL OUTER JOIN b ON a.x = b.x", plan.FullOuterJoin},
		{"SELECT * FROM a LEFT SEMI JOIN b ON a.x = b.x", plan.LeftSemiJoin},
		{"SELECT * FROM a CROSS JOIN b", plan.CrossJoin},
	}
	for _, s := range shapes {
		lp := parseQuery(t, s.sql)
		j, ok := lp.(*plan.Project).Child.(*plan.Join)
		if !ok {
			t.Fatalf("%q: no join", s.sql)
		}
		if j.Type != s.want {
			t.Errorf("%q: type = %s, want %s", s.sql, j.Type, s.want)
		}
	}
	// Comma-separated FROM is a cross join (condition in WHERE).
	lp := parseQuery(t, "SELECT * FROM a, b WHERE a.x = b.x")
	if _, ok := lp.(*plan.Project).Child.(*plan.Filter).Child.(*plan.Join); !ok {
		t.Fatal("comma join shape")
	}
}

func TestGroupByHavingOrderLimit(t *testing.T) {
	lp := parseQuery(t, `
		SELECT dept, count(*) AS n FROM emp
		WHERE age > 18
		GROUP BY dept
		HAVING count(*) > 2
		ORDER BY n DESC
		LIMIT 5`)
	l, ok := lp.(*plan.Limit)
	if !ok || l.N != 5 {
		t.Fatalf("limit = %v", lp)
	}
	s, ok := l.Child.(*plan.Sort)
	if !ok || !s.Orders[0].Descending {
		t.Fatalf("sort = %v", l.Child)
	}
	f, ok := s.Child.(*plan.Filter) // HAVING
	if !ok {
		t.Fatalf("having = %T", s.Child)
	}
	agg, ok := f.Child.(*plan.Aggregate)
	if !ok || len(agg.Grouping) != 1 {
		t.Fatalf("aggregate = %T", f.Child)
	}
	if _, ok := agg.Child.(*plan.Filter); !ok { // WHERE
		t.Fatalf("where = %T", agg.Child)
	}
}

func TestUnionForms(t *testing.T) {
	lp := parseQuery(t, "SELECT a FROM t UNION ALL SELECT a FROM u")
	if u, ok := lp.(*plan.Union); !ok || len(u.Kids) != 2 {
		t.Fatalf("union all = %v", lp)
	}
	lp = parseQuery(t, "SELECT a FROM t UNION SELECT a FROM u")
	if _, ok := lp.(*plan.Distinct); !ok {
		t.Fatalf("bare UNION dedupes: %T", lp)
	}
}

func TestSubqueryInFrom(t *testing.T) {
	lp := parseQuery(t, "SELECT x FROM (SELECT a AS x FROM t) sub WHERE x > 0")
	f := lp.(*plan.Project).Child.(*plan.Filter)
	sq, ok := f.Child.(*plan.SubqueryAlias)
	if !ok || sq.Name != "sub" {
		t.Fatalf("subquery = %v", f.Child)
	}
	if _, err := ParseQuery("SELECT x FROM (SELECT a FROM t)"); err == nil {
		t.Fatal("subquery without alias must fail")
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	lp := parseQuery(t, "SELECT 1 + 1")
	proj := lp.(*plan.Project)
	if _, ok := proj.Child.(*plan.OneRowRelation); !ok {
		t.Fatalf("child = %T", proj.Child)
	}
}

func TestNumericLiterals(t *testing.T) {
	lp := parseQuery(t, "SELECT 1, 3000000000, 2.5, 1e3, -7 FROM t")
	list := lp.(*plan.Project).List
	if list[0].(*expr.Literal).Value != int32(1) {
		t.Error("small ints are INT")
	}
	if list[1].(*expr.Literal).Value != int64(3000000000) {
		t.Error("big ints are BIGINT")
	}
	if list[2].(*expr.Literal).Value != 2.5 {
		t.Error("decimals are DOUBLE")
	}
	if list[3].(*expr.Literal).Value != 1000.0 {
		t.Error("scientific notation")
	}
	if list[4].(*expr.Literal).Value != int32(-7) {
		t.Error("negative literals fold")
	}
}

func TestStringEscapes(t *testing.T) {
	lp := parseQuery(t, `SELECT 'it''s', "dq", 'a\nb' FROM t`)
	list := lp.(*plan.Project).List
	if list[0].(*expr.Literal).Value != "it's" {
		t.Errorf("doubled quote = %q", list[0].(*expr.Literal).Value)
	}
	if list[1].(*expr.Literal).Value != "dq" {
		t.Error("double-quoted strings")
	}
	if list[2].(*expr.Literal).Value != "a\nb" {
		t.Error("backslash escapes")
	}
}

func TestNonReservedWordsAsNames(t *testing.T) {
	// The paper's own queries use columns named long, end, date...
	lp := parseQuery(t, "SELECT loc.long, a.end FROM a")
	list := lp.(*plan.Project).List
	if u := list[0].(*expr.UnresolvedAttribute); u.Parts[1] != "long" {
		t.Errorf("loc.long = %v", u.Parts)
	}
	if u := list[1].(*expr.UnresolvedAttribute); u.Parts[1] != "end" {
		t.Errorf("a.end = %v", u.Parts)
	}
	// END still terminates CASE.
	parseQuery(t, "SELECT CASE WHEN a THEN end END FROM t")
}

func TestCreateTempTable(t *testing.T) {
	stmt, err := Parse(`CREATE TEMPORARY TABLE messages USING com.databricks.spark.avro OPTIONS (path "messages.avro")`)
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := stmt.(*CreateTempTable)
	if !ok {
		t.Fatalf("stmt = %T", stmt)
	}
	if ct.Name != "messages" || ct.Provider != "com.databricks.spark.avro" {
		t.Fatalf("ct = %+v", ct)
	}
	if ct.Options["path"] != "messages.avro" {
		t.Fatalf("options = %v", ct.Options)
	}

	stmt, err = Parse("CREATE TEMPORARY TABLE t2 AS SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	if ct := stmt.(*CreateTempTable); ct.AsSelect == nil {
		t.Fatal("CTAS should carry a plan")
	}
}

func TestParseExpressionStandalone(t *testing.T) {
	e, err := ParseExpression("a + b * 2 AS total")
	if err != nil {
		t.Fatal(err)
	}
	alias, ok := e.(*expr.Alias)
	if !ok || alias.Name != "total" {
		t.Fatalf("e = %v", e)
	}
	if _, err := ParseExpression("a +"); err == nil {
		t.Fatal("dangling operator must fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t LIMIT x",
		"FROM t SELECT a",
		"SELECT a FROM t; DROP TABLE t", // no multi-statement
		"SELECT 'unterminated FROM t",
		"SELECT a FROM t JOIN",
		"CREATE TEMPORARY t",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

// Parser and analyzer reject different statements, and each says so itself:
// what the grammar refuses fails in Parse; what parses but names a column or
// table that does not exist, or mixes types, parses and fails in Analyze.
func TestParserAndAnalyzerRejectApart(t *testing.T) {
	cat := analysis.NewCatalog()
	cat.RegisterTable("t", plan.NewLocalRelation(types.NewStruct(
		types.StructField{Name: "a", Type: types.Int, Nullable: false},
		types.StructField{Name: "b", Type: types.String, Nullable: true},
	), nil))
	for _, sql := range []string{
		"SELECT a FROM t WHERE",
		"SELECT a b c FROM t",
		"SELECT a FROM t GROUP a",
		"SELECT (a FROM t",
		"SELECT a FROM t WHERE a IN ()",
		"SELECT CAST(a AS) FROM t",
	} {
		if _, err := Parse(sql); err == nil || !strings.HasPrefix(err.Error(), "sql: at offset") {
			t.Errorf("Parse(%q) = %v, want a parser error", sql, err)
		}
	}
	for _, sql := range []string{
		"SELECT nosuch FROM t",
		"SELECT a FROM missing",
		"SELECT a FROM t WHERE b",
		"SELECT a, count(*) FROM t GROUP BY b",
		"SELECT x.a FROM t",
	} {
		lp, err := ParseQuery(sql)
		if err != nil {
			t.Errorf("ParseQuery(%q): %v — the analyzer's to reject", sql, err)
			continue
		}
		if _, err := analysis.Analyze(cat, lp); err == nil {
			t.Errorf("Analyze(%q) accepted it", sql)
		}
	}
}

// Nesting past maxNesting — parentheses, subqueries, NOT and unary minus —
// is a parser error, not a stack overflow; nesting under it parses.
func TestParseNestingBounded(t *testing.T) {
	deep := func(open, inner, close string, n int) string {
		return strings.Repeat(open, n) + inner + strings.Repeat(close, n)
	}
	for _, q := range []string{
		"SELECT " + deep("(", "1", ")", 100000),
		"SELECT " + deep("NOT ", "TRUE", "", 100000),
		"SELECT " + deep("- ", "1", "", 100000),
		deep("SELECT * FROM (", "SELECT 1", ") s", 100000),
	} {
		if _, err := Parse(q); err == nil || !strings.Contains(err.Error(), "nested deeper than 1000 levels") {
			t.Errorf("Parse(%.30q…) = %v", q, err)
		}
	}
	if _, err := Parse("SELECT " + deep("(", "1", ")", maxNesting-2)); err != nil {
		t.Fatal(err)
	}
}

// A left-deep chain costs the parser no stack — a loop builds it — but every
// later tree walk a level per operator, so past maxDepth operators, nesting
// included, it is an error too; at the bound it parses, and || chains append
// to one concat.
func TestParseChainDepthBounded(t *testing.T) {
	chain := func(term, op string, n int) string { return strings.Repeat(term+op, n) + term }
	for _, q := range []string{
		"SELECT " + chain("1", " + ", maxDepth+1),
		"SELECT " + chain("a", " * ", 100000),
		"SELECT 1 WHERE " + chain("a", " OR ", maxDepth+1),
		"SELECT 1 WHERE " + chain("a", " AND ", maxDepth+1),
		"SELECT " + strings.Repeat("(", 900) + chain("1", " - ", maxDepth-800) + strings.Repeat(")", 900),
	} {
		if _, err := Parse(q); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("expression deeper than %d levels", maxDepth)) {
			t.Errorf("Parse(%.30q…) = %v", q, err)
		}
	}
	if _, err := Parse("SELECT " + chain("1", " + ", maxDepth-10)); err != nil {
		t.Fatal(err)
	}
	lp := parseQuery(t, "SELECT "+chain("a", " || ", 3)+" + 1 || b FROM t")
	got := lp.(*plan.Project).List[0].String()
	if want := "concat((concat('a, 'a, 'a, 'a) + 1), 'b)"; got != want {
		t.Fatalf("a || a || a || a + 1 || b = %s", got)
	}
}

func TestCommentsIgnored(t *testing.T) {
	lp := parseQuery(t, `
		-- leading comment
		SELECT a -- trailing comment
		FROM t -- another`)
	if _, ok := lp.(*plan.Project); !ok {
		t.Fatal("comments should be skipped")
	}
}

func TestConcatOperator(t *testing.T) {
	lp := parseQuery(t, "SELECT a || 'x' FROM t")
	if _, ok := lp.(*plan.Project).List[0].(*expr.Concat); !ok {
		t.Fatalf("|| = %v", lp.(*plan.Project).List[0])
	}
}

func TestErrorsMentionOffset(t *testing.T) {
	_, err := Parse("SELECT a FROM t WHERE %")
	if err == nil || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseAnalyzeTable(t *testing.T) {
	for _, sql := range []string{
		"ANALYZE TABLE t",
		"ANALYZE TABLE t COMPUTE STATISTICS",
		"analyze table t compute statistics",
	} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		at, ok := stmt.(*AnalyzeTable)
		if !ok {
			t.Fatalf("Parse(%q) = %T, want *AnalyzeTable", sql, stmt)
		}
		if at.Name != "t" {
			t.Fatalf("Parse(%q).Name = %q", sql, at.Name)
		}
	}
	for _, sql := range []string{
		"ANALYZE t",
		"ANALYZE TABLE t COMPUTE",
		"ANALYZE TABLE",
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestParseExplain(t *testing.T) {
	stmt, err := Parse("EXPLAIN SELECT a FROM t WHERE a > 1")
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := stmt.(*ExplainStatement)
	if !ok {
		t.Fatalf("stmt = %T, want *ExplainStatement", stmt)
	}
	if _, ok := ex.Plan.(*plan.Project); !ok {
		t.Fatalf("explained plan = %T", ex.Plan)
	}
	if _, err := Parse("EXPLAIN"); err == nil {
		t.Error("bare EXPLAIN should fail")
	}
	if ex.Analyze {
		t.Error("plain EXPLAIN must not set Analyze")
	}
}

func TestParseExplainAnalyze(t *testing.T) {
	stmt, err := Parse("EXPLAIN ANALYZE SELECT a FROM t WHERE a > 1")
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := stmt.(*ExplainStatement)
	if !ok {
		t.Fatalf("stmt = %T, want *ExplainStatement", stmt)
	}
	if !ex.Analyze {
		t.Error("EXPLAIN ANALYZE must set Analyze")
	}
	if _, ok := ex.Plan.(*plan.Project); !ok {
		t.Fatalf("explained plan = %T", ex.Plan)
	}
	if _, err := Parse("EXPLAIN ANALYZE"); err == nil {
		t.Error("EXPLAIN ANALYZE without a query should fail")
	}
}

func TestParseShowMetrics(t *testing.T) {
	stmt, err := Parse("SHOW METRICS")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stmt.(*ShowMetrics); !ok {
		t.Fatalf("stmt = %T, want *ShowMetrics", stmt)
	}
	if _, err := Parse("SHOW"); err == nil {
		t.Error("bare SHOW should fail")
	}
	if _, err := Parse("SHOW METRICS extra"); err == nil {
		t.Error("trailing input after SHOW METRICS should fail")
	}
}

// COMPUTE and STATISTICS stay usable as column names.
func TestAnalyzeKeywordsNonReserved(t *testing.T) {
	lp := parseQuery(t, "SELECT compute, statistics FROM t")
	if len(lp.(*plan.Project).List) != 2 {
		t.Fatalf("plan = %v", lp)
	}
}

// SHOW and METRICS stay usable as column names.
func TestShowMetricsKeywordsNonReserved(t *testing.T) {
	lp := parseQuery(t, "SELECT show, metrics FROM t")
	if len(lp.(*plan.Project).List) != 2 {
		t.Fatalf("plan = %v", lp)
	}
}
