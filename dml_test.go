package sparksql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func mustSQL(t *testing.T, ctx *Context, query string) *DataFrame {
	t.Helper()
	df, err := ctx.SQL(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	return df
}

func collectSQL(t *testing.T, ctx *Context, query string) []Row {
	t.Helper()
	rows, err := mustSQL(t, ctx, query).Collect()
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	return rows
}

func affected(t *testing.T, ctx *Context, query string) int64 {
	t.Helper()
	rows := collectSQL(t, ctx, query)
	if len(rows) != 1 || len(rows[0]) != 1 {
		t.Fatalf("%s: result = %v, want one rows_affected row", query, rows)
	}
	return rows[0][0].(int64)
}

func TestSQLCreateInsertSelect(t *testing.T) {
	ctx := NewContext()
	mustSQL(t, ctx, "CREATE TABLE users (id BIGINT NOT NULL, name STRING, age INT)")
	if n := affected(t, ctx, "INSERT INTO users VALUES (1, 'alice', 34), (2, 'bob', 19), (3, 'carol', 27)"); n != 3 {
		t.Fatalf("inserted %d rows", n)
	}
	// A column-subset insert leaves unlisted columns NULL.
	if n := affected(t, ctx, "INSERT INTO users (id, name) VALUES (4, 'dave')"); n != 1 {
		t.Fatalf("inserted %d rows", n)
	}
	// VALUES expressions run through the full evaluator: arithmetic, casts.
	affected(t, ctx, "INSERT INTO users VALUES (2 + 3, UPPER('eve'), CAST('40' AS INT))")

	got := collectSQL(t, ctx, "SELECT id, name, age FROM users ORDER BY id")
	want := []Row{
		{int64(1), "alice", int32(34)},
		{int64(2), "bob", int32(19)},
		{int64(3), "carol", int32(27)},
		{int64(4), "dave", nil},
		{int64(5), "EVE", int32(40)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}

	// Persistent tables are ordinary scan sources: aggregates, joins, the
	// whole relational surface.
	got = collectSQL(t, ctx, "SELECT COUNT(*), AVG(age) FROM users WHERE age IS NOT NULL")
	if len(got) != 1 || got[0][0].(int64) != 4 {
		t.Fatalf("agg = %v", got)
	}

	if n := affected(t, ctx, "UPDATE users SET age = age + 1 WHERE name = 'bob'"); n != 1 {
		t.Fatalf("updated %d rows", n)
	}
	got = collectSQL(t, ctx, "SELECT age FROM users WHERE name = 'bob'")
	if !reflect.DeepEqual(got, []Row{{int32(20)}}) {
		t.Fatalf("bob's age = %v", got)
	}

	if n := affected(t, ctx, "DELETE FROM users WHERE age IS NULL"); n != 1 {
		t.Fatalf("deleted %d rows", n)
	}
	if n := len(collectSQL(t, ctx, "SELECT id FROM users")); n != 4 {
		t.Fatalf("%d rows after delete", n)
	}

	mustSQL(t, ctx, "DROP TABLE users")
	if _, err := ctx.SQL("SELECT * FROM users"); err == nil {
		t.Fatal("query against dropped table succeeded")
	}
}

func TestSQLInsertSelect(t *testing.T) {
	ctx := NewContext()
	mustSQL(t, ctx, "CREATE TABLE src (id BIGINT, v STRING)")
	mustSQL(t, ctx, "CREATE TABLE dst (id BIGINT, v STRING)")
	affected(t, ctx, "INSERT INTO src VALUES (1,'a'),(2,'b'),(3,'c'),(4,'d')")
	if n := affected(t, ctx, "INSERT INTO dst SELECT id, UPPER(v) FROM src WHERE id > 2"); n != 2 {
		t.Fatalf("inserted %d rows", n)
	}
	got := collectSQL(t, ctx, "SELECT id, v FROM dst ORDER BY id")
	want := []Row{{int64(3), "C"}, {int64(4), "D"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	// CREATE TABLE AS SELECT snapshots a query result into a new table.
	mustSQL(t, ctx, "CREATE TABLE copy AS SELECT id FROM src WHERE id < 3")
	if n := len(collectSQL(t, ctx, "SELECT * FROM copy")); n != 2 {
		t.Fatalf("CTAS rows = %d", n)
	}
}

func TestSQLShowTablesAndDescribe(t *testing.T) {
	ctx := NewContext()
	mustSQL(t, ctx, "CREATE TABLE t1 (a BIGINT NOT NULL, b STRING)")
	affected(t, ctx, "INSERT INTO t1 VALUES (1,'x'),(2,'y')")
	ctx.Range(5).RegisterTempTable("view5")

	rows := collectSQL(t, ctx, "SHOW TABLES")
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r[0].(string)] = r
	}
	t1, ok := byName["t1"]
	if !ok || t1[1] != "table" || t1[2].(int64) != 2 || t1[3].(int64) <= 0 {
		t.Fatalf("t1 row = %v", t1)
	}
	if v, ok := byName["view5"]; !ok || v[1] != "temp" || v[2] != nil {
		t.Fatalf("view5 row = %v", v)
	}

	desc := collectSQL(t, ctx, "DESCRIBE t1")
	want := []Row{
		{"a", "BIGINT", "false"},
		{"b", "STRING", "true"},
		{"# version", "2", ""},
	}
	if !reflect.DeepEqual(desc, want) {
		t.Fatalf("describe = %v, want %v", desc, want)
	}
	// DESCRIBE works on temp tables too (no version row).
	desc = collectSQL(t, ctx, "DESCRIBE view5")
	if len(desc) != 1 || desc[0][0] != "id" {
		t.Fatalf("describe view5 = %v", desc)
	}
}

// TestSQLSnapshotIsolation is the acceptance criterion: a query planned
// before concurrent UPDATE/DELETE statements returns byte-identical
// pre-write results when executed after them.
func TestSQLSnapshotIsolation(t *testing.T) {
	ctx := NewContext()
	mustSQL(t, ctx, "CREATE TABLE accounts (id BIGINT, balance BIGINT)")
	affected(t, ctx, "INSERT INTO accounts VALUES (1, 100), (2, 200), (3, 300)")

	// Pin the snapshot: building the frame resolves the current version.
	pinned := mustSQL(t, ctx, "SELECT id, balance FROM accounts ORDER BY id")
	before, err := pinned.Collect()
	if err != nil {
		t.Fatal(err)
	}

	affected(t, ctx, "UPDATE accounts SET balance = 0 WHERE id = 1")
	affected(t, ctx, "DELETE FROM accounts WHERE id = 3")
	affected(t, ctx, "INSERT INTO accounts VALUES (4, 400)")

	// The pinned frame still reads the pre-write version...
	after, err := pinned.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("pinned query drifted: %v vs %v", after, before)
	}
	want := []Row{{int64(1), int64(100)}, {int64(2), int64(200)}, {int64(3), int64(300)}}
	if !reflect.DeepEqual(after, want) {
		t.Fatalf("pinned rows = %v, want %v", after, want)
	}
	// ...while a fresh query sees all three writes.
	fresh := collectSQL(t, ctx, "SELECT id, balance FROM accounts ORDER BY id")
	wantFresh := []Row{{int64(1), int64(0)}, {int64(2), int64(200)}, {int64(4), int64(400)}}
	if !reflect.DeepEqual(fresh, wantFresh) {
		t.Fatalf("fresh rows = %v, want %v", fresh, wantFresh)
	}
}

// TestSQLDurablePersistence: committed DML survives a context restart on
// the same data directory.
func TestSQLDurablePersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.DataDir = dir
	ctx := NewContextWithConfig(cfg)
	mustSQL(t, ctx, "CREATE TABLE kv (k BIGINT, v STRING)")
	affected(t, ctx, "INSERT INTO kv VALUES (1,'a'),(2,'b')")
	affected(t, ctx, "DELETE FROM kv WHERE k = 1")
	if err := ctx.Close(); err != nil {
		t.Fatal(err)
	}

	ctx2 := NewContextWithConfig(cfg)
	defer ctx2.Close()
	got := collectSQL(t, ctx2, "SELECT k, v FROM kv ORDER BY k")
	if !reflect.DeepEqual(got, []Row{{int64(2), "b"}}) {
		t.Fatalf("recovered rows = %v", got)
	}
	// And keeps accepting writes.
	affected(t, ctx2, "INSERT INTO kv VALUES (3,'c')")
	got = collectSQL(t, ctx2, "SELECT k FROM kv ORDER BY k")
	if !reflect.DeepEqual(got, []Row{{int64(2)}, {int64(3)}}) {
		t.Fatalf("rows = %v", got)
	}
}

// TestStatsAutoRefreshChangesPlan: once DML pushes a table past the
// refresh threshold its statistics recompute automatically, and a query
// planned afterwards comes out different — the CBO sees the new sizes.
func TestStatsAutoRefreshChangesPlan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StatsRefreshRows = 100
	cfg.BroadcastThreshold = 4096
	ctx := NewContextWithConfig(cfg)
	mustSQL(t, ctx, "CREATE TABLE big (k BIGINT, pad STRING)")
	mustSQL(t, ctx, "CREATE TABLE small (k BIGINT, name STRING)")
	affected(t, ctx, "INSERT INTO small VALUES (1,'a'),(2,'b'),(3,'c')")
	ctx.Range(50).RegisterTempTable("r50")
	ctx.Range(2000).RegisterTempTable("r2000")

	// 50 rows: below the refresh threshold, so big's statistics still say
	// zero rows and the planner happily broadcasts it.
	affected(t, ctx, "INSERT INTO big SELECT id, 'padpadpadpadpadpadpadpadpadpadpad' FROM r50")
	if rel := ctx.Store().Snapshot("big"); rel.RowCount != 0 {
		t.Fatalf("stats refreshed below threshold: %d rows", rel.RowCount)
	}
	const join = "SELECT small.name FROM big JOIN small ON big.k = small.k"
	planBefore, err := mustSQL(t, ctx, join).Explain()
	if err != nil {
		t.Fatal(err)
	}

	// 2000 more rows cross the threshold: statistics refresh, big's
	// estimated size blows past the broadcast threshold, and the same
	// query plans differently.
	affected(t, ctx, "INSERT INTO big SELECT id, 'padpadpadpadpadpadpadpadpadpadpad' FROM r2000")
	rel := ctx.Store().Snapshot("big")
	if rel.RowCount != 2050 {
		t.Fatalf("stats not refreshed above threshold: %d rows", rel.RowCount)
	}
	if rel.SizeInBytes <= int64(cfg.BroadcastThreshold) {
		t.Fatalf("test setup: big is only %d bytes", rel.SizeInBytes)
	}
	planAfter, err := mustSQL(t, ctx, join).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if planBefore == planAfter {
		t.Fatalf("plan did not change after stats refresh:\n%s", planAfter)
	}
}

// TestAnalyzeTableRoutesToStore: ANALYZE TABLE on a persistent table
// refreshes its statistics immediately, below any threshold.
func TestAnalyzeTableRoutesToStore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StatsRefreshRows = -1 // never auto-refresh
	ctx := NewContextWithConfig(cfg)
	mustSQL(t, ctx, "CREATE TABLE t (a BIGINT)")
	affected(t, ctx, "INSERT INTO t VALUES (1),(2),(3)")
	if rel := ctx.Store().Snapshot("t"); rel.RowCount != 0 {
		t.Fatalf("auto-refresh happened despite negative threshold: %d", rel.RowCount)
	}
	mustSQL(t, ctx, "ANALYZE TABLE t COMPUTE STATISTICS")
	rel := ctx.Store().Snapshot("t")
	if rel.RowCount != 3 || rel.TableStats == nil || rel.TableStats.RowCount != 3 {
		t.Fatalf("ANALYZE did not refresh store stats: %+v", rel)
	}
}

// TestDMLErrors: the failure modes surface as errors, not partial writes.
func TestDMLErrors(t *testing.T) {
	ctx := NewContext()
	mustSQL(t, ctx, "CREATE TABLE t (a BIGINT NOT NULL, b STRING)")
	for _, bad := range []string{
		"CREATE TABLE t (x INT)",                  // duplicate
		"INSERT INTO missing VALUES (1)",          // unknown table
		"INSERT INTO t VALUES (1)",                // arity
		"INSERT INTO t (a, nope) VALUES (1, 'x')", // unknown column
		"INSERT INTO t (b) VALUES ('x')",          // NULL into NOT NULL
		"UPDATE t SET nope = 1",                   // unknown SET column
		"UPDATE missing SET a = 1",                // unknown table
		"DELETE FROM missing",                     // unknown table
		"DROP TABLE missing",                      // unknown table
		"DESCRIBE missing",                        // unknown table
	} {
		if _, err := ctx.SQL(bad); err == nil {
			t.Errorf("%s: no error", bad)
		}
	}
	// Nothing was committed by the failures.
	if n := len(collectSQL(t, ctx, "SELECT * FROM t")); n != 0 {
		t.Fatalf("table has %d rows after failed DML", n)
	}
	if !strings.Contains(fmt.Sprint(collectSQL(t, ctx, "SHOW TABLES")), "t") {
		t.Fatal("SHOW TABLES lost the table")
	}
}

// storeTempTable is a tableLeaf: rows committed to a store table in parts
// transactions, a segment — and so a scan partition — each.
func storeTempTable(t testing.TB, ctx *Context, schema StructType, rows []Row, name string, parts int) {
	t.Helper()
	if err := ctx.Store().CreateTable(name, schema, false); err != nil {
		t.Fatal(err)
	}
	for per := len(rows) / parts; len(rows) > 0; rows = rows[per:] {
		if _, err := ctx.Store().Insert(name, rows[:per]); err != nil {
			t.Fatal(err)
		}
	}
}

// A store table built from 300 commits equals the row path through every batch
// consumer, run as a few tasks.
func TestSQLManyCommits(t *testing.T) { checkManyPartitions(t, storeTempTable) }
