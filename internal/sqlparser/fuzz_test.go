package sqlparser

import "testing"

// seedStatements are statements the repository's suites send: the paper's
// AMPLab Q1-Q4, the durable-table DML, the SQL server's statements and the
// parser's own shapes.
var seedStatements = []string{
	"SELECT pageURL, pageRank FROM rankings WHERE pageRank > 1000",
	"SELECT SUBSTR(sourceIP, 1, 8), SUM(adRevenue) FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 8)",
	`SELECT sourceIP, SUM(adRevenue) AS totalRevenue, AVG(pageRank) AS avgPageRank
		FROM rankings R JOIN uservisits UV ON R.pageURL = UV.destURL
		WHERE UV.visitDate >= '1980-01-01' AND UV.visitDate <= '1980-04-01'
		GROUP BY sourceIP
		ORDER BY totalRevenue DESC
		LIMIT 1`,
	"SELECT url_key(destURL), count(*) FROM uservisits GROUP BY url_key(destURL)",
	"CREATE TABLE users (id BIGINT NOT NULL, name STRING, age INT)",
	"CREATE TABLE IF NOT EXISTS t (x INT)",
	"CREATE TABLE copy AS SELECT id FROM src WHERE id < 3",
	"CREATE TEMPORARY TABLE v USING json OPTIONS(path 'x')",
	"CREATE TEMPORARY TABLE copy AS SELECT * FROM people",
	"INSERT INTO users VALUES (1, 'alice', 34), (2, 'bob', 19), (3, 'carol', 27)",
	"INSERT INTO users VALUES (2 + 3, UPPER('eve'), CAST('40' AS INT))",
	"INSERT INTO t (b, a) VALUES ('x', 1 + 2)",
	"INSERT INTO dst SELECT id, UPPER(v) FROM src WHERE id > 2",
	"UPDATE accounts SET balance = 0 WHERE id = 1",
	"UPDATE t SET a = a + 1, b = 'done' WHERE a < 5",
	"DELETE FROM users WHERE age IS NULL",
	"DROP TABLE IF EXISTS users",
	"DESCRIBE TABLE t",
	"SHOW TABLES",
	"SHOW METRICS",
	"ANALYZE TABLE people COMPUTE STATISTICS",
	"EXPLAIN SELECT name FROM people WHERE age > 20",
	"EXPLAIN ANALYZE SELECT a FROM t WHERE a > 1",
	"SELECT name, age FROM people WHERE age > 20 ORDER BY age",
	"SELECT small.name FROM big JOIN small ON big.k = small.k",
	"SELECT 1",
	"SELECT a || 'x', CASE WHEN a IN (1, 2) THEN -1.5e3 ELSE NULL END FROM t -- trailing comment",
	"SELECT e.id FROM events e LEFT SEMI JOIN dim d ON e.grp = d.grp AND e.sub * 10 < d.grp",
	"SELECT x FROM (SELECT a AS x FROM t) s WHERE x LIKE 'a%' UNION ALL SELECT b FROM u",
	"SELECT 'it''s', \"quoted\" FROM t WHERE NOT (a BETWEEN 1 AND 2) OR b IS NOT NULL",
}

// checkParse holds Parse and ParseExpression to their contract on any input:
// no panic, and a statement or an error — never both, never neither.
func checkParse(t *testing.T, sql string) {
	t.Helper()
	if stmt, err := Parse(sql); (stmt == nil) == (err == nil) {
		t.Fatalf("Parse(%q) = %v, %v", sql, stmt, err)
	}
	if e, err := ParseExpression(sql); (e == nil) == (err == nil) {
		t.Fatalf("ParseExpression(%q) = %v, %v", sql, e, err)
	}
}

// FuzzParse feeds the lexer and parser arbitrary text, and the input cut off
// halfway and one byte short.
func FuzzParse(f *testing.F) {
	for _, s := range seedStatements {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		checkParse(t, sql)
		checkParse(t, sql[:len(sql)/2])
		if len(sql) > 0 {
			checkParse(t, sql[:len(sql)-1])
		}
	})
}

// Every seed statement, cut off after each of its bytes, is an error or a
// statement — never a crash.
func TestParseTruncatedStatements(t *testing.T) {
	for _, s := range seedStatements {
		if _, err := Parse(s); err != nil {
			t.Fatalf("seed %q does not parse: %v", s, err)
		}
		for i := range s {
			checkParse(t, s[:i])
		}
	}
}
