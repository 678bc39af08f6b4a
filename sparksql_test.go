package sparksql

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/types"
)

type testUser struct {
	Name   string
	Age    int32
	DeptID int32
}

func testUsers(t *testing.T, ctx *Context) *DataFrame {
	t.Helper()
	df, err := ctx.CreateDataFrameFromStructs([]testUser{
		{"Alice", 22, 1},
		{"Bob", 19, 2},
		{"Carol", 35, 1},
		{"Dan", 40, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return df
}

func TestDSLWhereCount(t *testing.T) {
	ctx := NewContext()
	users := testUsers(t, ctx)
	young, err := users.Where(users.MustCol("Age").Lt(21))
	if err != nil {
		t.Fatal(err)
	}
	n, err := young.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("count = %d, want 1", n)
	}
}

func TestEagerAnalysisError(t *testing.T) {
	ctx := NewContext()
	users := testUsers(t, ctx)
	// Both the column lookup and a Where over a bogus column must fail
	// immediately, before any action (paper §3.4).
	if _, err := users.Col("nope"); err == nil {
		t.Fatal("expected error for missing column")
	}
	if _, err := users.Where(Col("nope").Lt(21)); err == nil {
		t.Fatal("expected eager analysis error")
	}
}

func TestSQLOverTempTable(t *testing.T) {
	ctx := NewContext()
	users := testUsers(t, ctx)
	users.RegisterTempTable("users")

	df, err := ctx.SQL("SELECT count(*), avg(Age) FROM users WHERE Age < 30")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != int64(2) || rows[0][1] != 20.5 {
		t.Fatalf("got %v, want [[2 20.5]]", rows)
	}
}

func TestSQLGroupByHavingOrderBy(t *testing.T) {
	ctx := NewContext()
	users := testUsers(t, ctx)
	users.RegisterTempTable("users")

	df, err := ctx.SQL(`
		SELECT DeptID, count(*) AS n, max(Age) AS oldest
		FROM users
		GROUP BY DeptID
		HAVING count(*) >= 2
		ORDER BY DeptID DESC`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows: %v", len(rows), rows)
	}
	if rows[0][0] != int32(2) || rows[0][1] != int64(2) || rows[0][2] != int32(40) {
		t.Fatalf("row0 = %v", rows[0])
	}
	if rows[1][0] != int32(1) || rows[1][2] != int32(35) {
		t.Fatalf("row1 = %v", rows[1])
	}
}

func TestSQLJoin(t *testing.T) {
	ctx := NewContext()
	users := testUsers(t, ctx)
	users.RegisterTempTable("employees")
	depts, err := ctx.CreateDataFrame(
		StructType{}.Add("id", IntType, false).Add("dept", StringType, false),
		[]Row{{int32(1), "eng"}, {int32(2), "sales"}})
	if err != nil {
		t.Fatal(err)
	}
	depts.RegisterTempTable("dept")

	df, err := ctx.SQL(`
		SELECT dept.dept, count(*) AS n
		FROM employees JOIN dept ON employees.DeptID = dept.id
		WHERE employees.Age > 20
		GROUP BY dept.dept
		ORDER BY dept.dept`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != "eng" || rows[0][1] != int64(2) ||
		rows[1][0] != "sales" || rows[1][1] != int64(1) {
		t.Fatalf("got %v", rows)
	}
}

func TestPaperExampleEmployeesJoin(t *testing.T) {
	// The paper's §3.3 example: female employees per department.
	ctx := NewContext()
	employees, err := ctx.CreateDataFrame(
		StructType{}.
			Add("name", StringType, false).
			Add("gender", StringType, false).
			Add("deptId", IntType, false),
		[]Row{
			{"Alice", "female", int32(1)},
			{"Bob", "male", int32(1)},
			{"Carol", "female", int32(2)},
			{"Dora", "female", int32(1)},
		})
	if err != nil {
		t.Fatal(err)
	}
	dept, err := ctx.CreateDataFrame(
		StructType{}.Add("id", IntType, false).Add("name", StringType, false),
		[]Row{{int32(1), "eng"}, {int32(2), "sales"}})
	if err != nil {
		t.Fatal(err)
	}

	joined, err := employees.Join(dept, employees.MustCol("deptId").EQ(dept.MustCol("id")))
	if err != nil {
		t.Fatal(err)
	}
	females, err := joined.Where(employees.MustCol("gender").EQ("female"))
	if err != nil {
		t.Fatal(err)
	}
	result, err := females.GroupBy(dept.MustCol("id"), dept.MustCol("name")).
		Agg(Count(dept.MustCol("name")).As("count"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := result.Collect()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, r := range rows {
		counts[r[1].(string)] = r[2].(int64)
	}
	if counts["eng"] != 2 || counts["sales"] != 1 {
		t.Fatalf("got %v", rows)
	}
}

func TestUDFInSQLAndDSL(t *testing.T) {
	ctx := NewContext()
	users := testUsers(t, ctx)
	users.RegisterTempTable("users")
	// The paper's §3.7 inline UDF registration.
	if err := ctx.RegisterUDF("ageBand", func(age int32) string {
		if age < 21 {
			return "minor"
		}
		return "adult"
	}); err != nil {
		t.Fatal(err)
	}

	df, err := ctx.SQL("SELECT Name, ageBand(Age) AS band FROM users ORDER BY Name")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][1] != "adult" || rows[1][1] != "minor" {
		t.Fatalf("got %v", rows)
	}

	// Same UDF through the DSL.
	df2, err := users.Select(ctx.CallUDF("ageBand", users.MustCol("Age")).As("b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df2.Collect(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterTempTableComposesAcrossSQLAndDSL(t *testing.T) {
	// Paper §3.3: registered DataFrames are unmaterialized views; SQL over
	// them optimizes across the original DataFrame expressions.
	ctx := NewContext()
	users := testUsers(t, ctx)
	young, err := users.Where(users.MustCol("Age").Lt(30))
	if err != nil {
		t.Fatal(err)
	}
	young.RegisterTempTable("young")
	df, err := ctx.SQL("SELECT count(*) FROM young")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != int64(2) {
		t.Fatalf("got %v", rows)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "people.csv")
	data := "name,age\nAlice,22\nBob,19\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	df, err := ctx.Read().CSV(path)
	if err != nil {
		t.Fatal(err)
	}
	schema := df.Schema()
	if !schema.Fields[1].Type.Equals(IntType) {
		t.Fatalf("inferred age type = %s, want INT", schema.Fields[1].Type.Name())
	}
	n, err := df.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("count = %d", n)
	}
}

func TestJSONSchemaInferenceTweets(t *testing.T) {
	// The paper's Figure 5/6 tweets.
	dir := t.TempDir()
	path := filepath.Join(dir, "tweets.json")
	data := `
{"text": "This is a tweet about #Spark", "tags": ["#Spark"], "loc": {"lat": 45.1, "long": 90}}
{"text": "This is another tweet", "tags": [], "loc": {"lat": 39, "long": 88.5}}
{"text": "A #tweet without #location", "tags": ["#tweet", "#location"]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	df, err := ctx.Read().JSON(path)
	if err != nil {
		t.Fatal(err)
	}
	schema := df.Schema()
	// text STRING NOT NULL
	i := schema.FieldIndex("text")
	if i < 0 || !schema.Fields[i].Type.Equals(StringType) || schema.Fields[i].Nullable {
		t.Fatalf("text field wrong: %+v", schema.Fields[i])
	}
	// loc STRUCT<lat DOUBLE, long DOUBLE>, nullable (absent in record 3).
	j := schema.FieldIndex("loc")
	if j < 0 || !schema.Fields[j].Nullable {
		t.Fatalf("loc should be nullable: %+v", schema.Fields)
	}

	df.RegisterTempTable("tweets")
	res, err := ctx.SQL(`SELECT loc.lat, loc.long FROM tweets WHERE text LIKE '%Spark%' AND tags IS NOT NULL`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != 45.1 {
		t.Fatalf("got %v", rows)
	}
}

func TestColFileRoundTripWithPushdown(t *testing.T) {
	ctx := NewContext()
	users := testUsers(t, ctx)
	dir := t.TempDir()
	path := filepath.Join(dir, "users.gcf")
	if err := users.Write().RowGroupSize(2).ColFile(path); err != nil {
		t.Fatal(err)
	}

	df, err := ctx.Read().ColFile(path)
	if err != nil {
		t.Fatal(err)
	}
	older, err := df.Where(Col("Age").Gt(30))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := older.Select("Name")
	if err != nil {
		t.Fatal(err)
	}
	explain, err := sel.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "pushed=") {
		t.Fatalf("expected filter pushdown in plan:\n%s", explain)
	}
	rows, err := sel.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %v", rows)
	}
}

func TestCreateTempTableUsingSQL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "msgs.csv")
	os.WriteFile(path, []byte("id,msg\n1,hello\n2,world\n"), 0o644)
	ctx := NewContext()
	// The paper's §4.4.1 USING statement.
	if _, err := ctx.SQL("CREATE TEMPORARY TABLE messages USING csv OPTIONS (path '" + path + "')"); err != nil {
		t.Fatal(err)
	}
	df, err := ctx.SQL("SELECT msg FROM messages WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "world" {
		t.Fatalf("got %v", rows)
	}
}

func TestCacheColumnar(t *testing.T) {
	ctx := NewContext()
	users := testUsers(t, ctx)
	info, err := users.Cache()
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 4 {
		t.Fatalf("cached %d rows", info.Rows)
	}
	if info.ColumnarBytes >= info.ObjectBytes {
		t.Fatalf("columnar bytes %d should be well under object bytes %d",
			info.ColumnarBytes, info.ObjectBytes)
	}
	n, err := users.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("count after cache = %d", n)
	}

	// ARRAY and MAP values have no order: collecting statistics over two or
	// more non-NULL ones (the cache build, ANALYZE) must not compare them.
	nested, err := ctx.CreateDataFrame(StructType{}.
		Add("id", IntType, false).
		Add("tags", ArrayType(StringType, false), true).
		Add("attrs", types.MapType{Key: StringType, Value: IntType}, true),
		[]Row{
			{int32(1), []any{"a", "b"}, map[any]any{"x": int32(1)}},
			{int32(2), []any{"c"}, map[any]any{"y": int32(2)}},
			{int32(3), nil, nil},
		})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nested.Cache(); err != nil {
		t.Fatal(err)
	}
	nested.RegisterTempTable("nested")
	for _, q := range []string{"SELECT id, tags, attrs FROM nested WHERE id < 3", "ANALYZE TABLE nested COMPUTE STATISTICS"} {
		df, err := ctx.SQL(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if rows, err := df.Collect(); err != nil || (len(rows) != 2 && len(rows) != 0) {
			t.Fatalf("%s: %v, %v", q, rows, err)
		}
	}
}

func TestSelfJoinViaSQLAliases(t *testing.T) {
	ctx := NewContext()
	users := testUsers(t, ctx)
	users.RegisterTempTable("u")
	df, err := ctx.SQL(`
		SELECT a.Name, b.Name
		FROM u a JOIN u b ON a.DeptID = b.DeptID
		WHERE a.Name != b.Name`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := df.Count()
	if err != nil {
		t.Fatal(err)
	}
	// Each dept has 2 members -> 2 ordered pairs each.
	if n != 4 {
		t.Fatalf("self-join rows = %d, want 4", n)
	}
}

func TestOrderByLimitDistinctUnion(t *testing.T) {
	ctx := NewContext()
	users := testUsers(t, ctx)
	users.RegisterTempTable("users")
	df, err := ctx.SQL(`
		SELECT Age FROM users
		UNION ALL
		SELECT Age FROM users
		ORDER BY Age
		LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0] != int32(19) || rows[1][0] != int32(19) || rows[2][0] != int32(22) {
		t.Fatalf("got %v", rows)
	}

	d, err := ctx.SQL("SELECT DISTINCT DeptID FROM users")
	if err != nil {
		t.Fatal(err)
	}
	n, err := d.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("distinct depts = %d", n)
	}
}

func TestShowFormatting(t *testing.T) {
	ctx := NewContext()
	users := testUsers(t, ctx)
	out, err := users.Show(2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Alice") || !strings.Contains(out, "| Name") {
		t.Fatalf("unexpected Show output:\n%s", out)
	}
}

func TestCountDistinctAndDateFunctions(t *testing.T) {
	ctx := NewContext()
	schema := StructType{}.
		Add("k", IntType, false).
		Add("v", IntType, true).
		Add("d", DateType, false)
	df, err := ctx.CreateDataFrame(schema, []Row{
		{int32(1), int32(10), int32(16436)}, // 2015-01-01
		{int32(1), int32(10), int32(16436)},
		{int32(1), int32(20), int32(16467)}, // 2015-02-01
		{int32(2), nil, int32(16071)},       // 2014-01-01
	})
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("t")

	res, err := ctx.SQL("SELECT k, count(DISTINCT v), count(v) FROM t GROUP BY k ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][1] != int64(2) || rows[0][2] != int64(3) {
		t.Fatalf("k=1 distinct/count = %v", rows[0])
	}
	if rows[1][1] != int64(0) { // only NULLs
		t.Fatalf("k=2 distinct = %v", rows[1])
	}

	res, err = ctx.SQL("SELECT year(d), month(d), count(*) FROM t GROUP BY year(d), month(d) ORDER BY year(d), month(d)")
	if err != nil {
		t.Fatal(err)
	}
	rows, err = res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0] != int32(2014) || rows[1][1] != int32(1) || rows[2][1] != int32(2) {
		t.Fatalf("date grouping = %v", rows)
	}

	// DISTINCT on other aggregates is a clear error.
	if _, err := ctx.SQL("SELECT sum(DISTINCT v) FROM t"); err == nil {
		t.Fatal("sum(DISTINCT) unsupported and must error")
	}
}

func TestCreateDataFrameFromMaps(t *testing.T) {
	// The §3.5 Python path: dynamically typed records, schema inferred by
	// sampling with the §5.1 merge.
	ctx := NewContext()
	df, err := ctx.CreateDataFrameFromMaps([]map[string]any{
		{"name": "Alice", "age": 22},
		{"name": "Bob", "age": 19.5},        // fractional -> DOUBLE
		{"name": "Carol"},                   // missing age -> nullable
		{"name": "Dan", "tags": []any{"x"}}, // array field
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := df.Schema()
	ai := schema.FieldIndex("age")
	if ai < 0 || !schema.Fields[ai].Type.Equals(DoubleType) || !schema.Fields[ai].Nullable {
		t.Fatalf("age field = %+v", schema.Fields)
	}
	df.RegisterTempTable("dyn")
	res, err := ctx.SQL("SELECT avg(age) FROM dyn")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0][0].(float64); got < 20.7 || got > 20.8 { // (22+19.5)/2
		t.Fatalf("avg = %v", got)
	}
}

// Aggregate functions that print alike but differ in type — a folded
// CAST(1 AS BIGINT) prints as 1 — are computed separately, so every cell
// holds the Go value of the type its column declares.
func TestAggregateCellsMatchSchema(t *testing.T) {
	ctx := NewContext()
	df, err := ctx.CreateDataFrame(StructType{}.Add("a", IntType, true), []Row{{int32(1)}, {int32(2)}, {nil}})
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("t")
	goType := map[string]reflect.Type{
		"INT":           reflect.TypeOf(int32(0)),
		"BIGINT":        reflect.TypeOf(int64(0)),
		"DOUBLE":        reflect.TypeOf(0.0),
		"DECIMAL(20,1)": reflect.TypeOf(types.Decimal{}),
	}
	for _, q := range []string{
		"SELECT MAX(1), MAX(CAST(1 AS BIGINT)) FROM t",
		"SELECT SUM(CAST(1.5 AS DECIMAL(10,1))), SUM(CAST(1.5 AS DOUBLE)) FROM t",
		"SELECT a, MIN(CAST(2 AS BIGINT)), MIN(2), MIN(CAST(2 AS DOUBLE)) FROM t GROUP BY a",
	} {
		res, err := ctx.SQL(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		rows, err := res.Collect()
		if err != nil || len(rows) == 0 {
			t.Fatalf("%s: %d rows, %v", q, len(rows), err)
		}
		fields := res.Schema().Fields
		for _, r := range rows {
			for j, cell := range r {
				want, ok := goType[fields[j].Type.Name()]
				if !ok {
					t.Fatalf("%s: no Go type listed for %s", q, fields[j].Type.Name())
				}
				if cell != nil && reflect.TypeOf(cell) != want {
					t.Errorf("%s: column %s is %s but holds %T %v", q, fields[j].Name, fields[j].Type.Name(), cell, cell)
				}
			}
		}
	}
}
