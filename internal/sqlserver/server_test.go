package sqlserver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	sparksql "repro"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	ctx := sparksql.NewContext()
	df, err := ctx.CreateDataFrame(
		sparksql.StructType{}.
			Add("name", sparksql.StringType, false).
			Add("age", sparksql.IntType, false),
		[]sparksql.Row{{"Alice", int32(34)}, {"Bob", int32(19)}, {"Carol", int32(52)}})
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("people")
	if err := ctx.RegisterUDF("shout", func(s string) string { return s + "!" }); err != nil {
		t.Fatal(err)
	}
	srv := New(ctx)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func TestQueryOverTheWire(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.Query("SELECT name, age FROM people WHERE age > 20 ORDER BY age")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "name" {
		t.Fatalf("cols = %v", res.Columns)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "Alice" || res.Rows[1][0] != "Carol" {
		t.Fatalf("rows = %v", res.Rows)
	}

	// UDFs are reachable over the wire (paper §3.7: "once registered, the
	// UDF can also be used via the JDBC/ODBC interface by business
	// intelligence tools").
	res, err = c.Query("SELECT shout(name) FROM people WHERE age = 19")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "Bob!" {
		t.Fatalf("udf over wire = %v", res.Rows)
	}

	// Multiple statements on one connection.
	if _, err := c.Query("SELECT count(*) FROM people"); err != nil {
		t.Fatal(err)
	}
}

func TestErrorsOverTheWire(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query("SELECT nosuch FROM people")
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("err = %v", err)
	}
	// The connection survives an error.
	if _, err := c.Query("SELECT 1"); err != nil {
		t.Fatalf("connection should survive: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				res, err := c.Query("SELECT count(*) FROM people")
				if err != nil {
					errs <- err
					return
				}
				if res.Rows[0][0] != "3" {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestMaxRowsCap(t *testing.T) {
	ctx := sparksql.NewContext()
	ctx.Range(100).RegisterTempTable("r")
	srv := New(ctx)
	srv.MaxRows = 10
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query("SELECT id FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("cap not applied: %d rows", len(res.Rows))
	}
}

func TestDDLOverTheWire(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query("CREATE TEMPORARY TABLE copy AS SELECT * FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 0 {
		t.Fatalf("DDL result = %v", res)
	}
	out, err := c.Query("SELECT count(*) FROM copy")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0][0] != "3" {
		t.Fatalf("copy rows = %v", out.Rows)
	}
}

// A query that panics (poisoned UDF) must yield ERR and leave the server —
// same connection and fresh connections — fully usable.
func TestPoisonedQueryLeavesServerUsable(t *testing.T) {
	ctx := sparksql.NewContext()
	df, err := ctx.CreateDataFrame(
		sparksql.StructType{}.Add("name", sparksql.StringType, false),
		[]sparksql.Row{{"Alice"}, {"Bob"}})
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("people")
	if err := ctx.RegisterUDF("poison", func(s string) string { panic("poisoned UDF") }); err != nil {
		t.Fatal(err)
	}
	srv := New(ctx)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SELECT poison(name) FROM people"); err == nil {
		t.Fatal("poisoned query must return ERR")
	} else if !strings.Contains(err.Error(), "poisoned UDF") {
		t.Fatalf("ERR should carry the panic cause: %v", err)
	}
	// Same connection survives.
	res, err := c.Query("SELECT count(*) FROM people")
	if err != nil || res.Rows[0][0] != "2" {
		t.Fatalf("connection poisoned: %v %v", res, err)
	}
	// Fresh connections work too.
	c2, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Query("SELECT name FROM people WHERE name = 'Bob'"); err != nil {
		t.Fatalf("server poisoned: %v", err)
	}
}

// A query exceeding the server's QueryTimeout is cancelled and reported as
// ERR; the server keeps serving.
func TestQueryTimeout(t *testing.T) {
	ctx := sparksql.NewContext()
	df, err := ctx.CreateDataFrame(
		sparksql.StructType{}.Add("name", sparksql.StringType, false),
		[]sparksql.Row{{"a"}, {"b"}, {"c"}, {"d"}})
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("people")
	if err := ctx.RegisterUDF("slow", func(s string) string {
		time.Sleep(80 * time.Millisecond)
		return s
	}); err != nil {
		t.Fatal(err)
	}
	srv := New(ctx)
	srv.QueryTimeout = 20 * time.Millisecond
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SELECT slow(name) FROM people"); err == nil {
		t.Fatal("slow query should be cancelled by QueryTimeout")
	} else if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("want a deadline error, got: %v", err)
	}
	// Queries under the timeout still work on the same connection.
	if res, err := c.Query("SELECT count(*) FROM people"); err != nil || res.Rows[0][0] != "4" {
		t.Fatalf("server unusable after timeout: %v %v", res, err)
	}
}

// SHOW METRICS (and its /metrics line-command alias) exposes the engine
// registry over the wire: after one query the executor's task counter and
// the server's own query counter are visible and non-zero.
func TestShowMetricsOverTheWire(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Query("SELECT count(*) FROM people"); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"SHOW METRICS", "/metrics"} {
		res, err := c.Query(cmd)
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		if len(res.Columns) != 2 || res.Columns[0] != "metric" || res.Columns[1] != "value" {
			t.Fatalf("%s cols = %v", cmd, res.Columns)
		}
		vals := map[string]string{}
		for _, r := range res.Rows {
			vals[r[0]] = r[1]
		}
		if v := vals["rdd.tasks.run"]; v == "" || v == "0" {
			t.Fatalf("%s: rdd.tasks.run = %q after a query", cmd, v)
		}
		if v := vals["server.queries"]; v == "" || v == "0" {
			t.Fatalf("%s: server.queries = %q", cmd, v)
		}
		if v := vals["server.query.micros_count"]; v == "" || v == "0" {
			t.Fatalf("%s: latency histogram missing: %q", cmd, v)
		}
	}
}

// The HTTP side serves /metrics as plain text and /trace as a JSONL span
// log whose records round-trip as JSON.
func TestMetricsHTTPEndpoint(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SELECT count(*) FROM people"); err != nil {
		t.Fatal(err)
	}

	haddr, err := srv.ListenAndServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + haddr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	text := get("/metrics")
	for _, want := range []string{"rdd.tasks.run ", "server.queries "} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	trace := get("/trace")
	if strings.TrimSpace(trace) == "" {
		t.Fatal("/trace is empty after a query")
	}
	sc := bufio.NewScanner(strings.NewReader(trace))
	kinds := map[string]bool{}
	for sc.Scan() {
		var span struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			t.Fatalf("trace line not JSON: %v: %s", err, sc.Text())
		}
		kinds[span.Kind] = true
	}
	for _, want := range []string{"job", "stage", "task"} {
		if !kinds[want] {
			t.Fatalf("/trace missing %q spans (have %v)", want, kinds)
		}
	}
}

// Every statement emits one structured query-log record: successes carry
// query id, plan hash and row count; task failures additionally carry the
// failing stage, partition, attempts and root cause unwrapped from the
// *rdd.JobError chain — the satellite fix for the bare ERR strings.
func TestStructuredQueryLog(t *testing.T) {
	ctx := sparksql.NewContext()
	df, err := ctx.CreateDataFrame(
		sparksql.StructType{}.Add("name", sparksql.StringType, false),
		[]sparksql.Row{{"Alice"}, {"Bob"}})
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("people")
	if err := ctx.RegisterUDF("poison", func(s string) string { panic("poisoned UDF") }); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	srv := New(ctx)
	srv.Logger = slog.New(slog.NewJSONHandler(&buf, nil))
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Query("SELECT name FROM people"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT poison(name) FROM people"); err == nil {
		t.Fatal("poisoned query must fail")
	}

	type record struct {
		Msg         string  `json:"msg"`
		QueryID     int64   `json:"query_id"`
		PlanHash    string  `json:"plan_hash"`
		Rows        float64 `json:"rows"`
		Error       string  `json:"error"`
		FailedStage string  `json:"failed_stage"`
		Attempts    float64 `json:"attempts"`
		Cause       string  `json:"cause"`
	}
	var recs []record
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("log line not JSON: %v: %s", err, sc.Text())
		}
		recs = append(recs, r)
	}
	if len(recs) != 2 {
		t.Fatalf("want 2 log records, got %d", len(recs))
	}
	ok, fail := recs[0], recs[1]
	if ok.Msg != "query ok" || ok.Rows != 2 || ok.QueryID == 0 {
		t.Fatalf("success record = %+v", ok)
	}
	if ok.PlanHash == "" || ok.PlanHash == fmt.Sprintf("%016x", 0) {
		t.Fatalf("success record lacks a plan hash: %+v", ok)
	}
	if fail.Msg != "query failed" || fail.QueryID != ok.QueryID+1 {
		t.Fatalf("failure record = %+v", fail)
	}
	if fail.FailedStage == "" || fail.Attempts == 0 {
		t.Fatalf("failure record lacks JobError context: %+v", fail)
	}
	if !strings.Contains(fail.Cause, "poisoned UDF") {
		t.Fatalf("failure record lacks the root cause: %+v", fail)
	}
	// The logged hash is the plan that ran: the statement's SHOW HISTORY
	// entry carries the same one.
	hist, err := c.Query("SHOW HISTORY")
	if err != nil {
		t.Fatal(err)
	}
	hashes := map[string]string{}
	for _, r := range hist.Rows {
		hashes[r[1]] = r[3]
	}
	if got := hashes["SELECT name FROM people"]; got != ok.PlanHash {
		t.Fatalf("log plan_hash %s, SHOW HISTORY plan_hash %s", ok.PlanHash, got)
	}
	if got := hashes["SELECT poison(name) FROM people"]; got != fail.PlanHash {
		t.Fatalf("failure log plan_hash %s, SHOW HISTORY plan_hash %s", fail.PlanHash, got)
	}
}

// A statement through the server is optimised and planned once, and its
// plan rendered for a fingerprint at most once.
func TestStatementPlannedOnce(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := srv.ctx.Metrics()
	planned, hashed := reg.Counter("query.planned"), reg.Counter("query.plan.hashed")
	for _, q := range []string{
		"SELECT name FROM people WHERE age > 20",
		"SELECT age % 2, COUNT(*) FROM people GROUP BY age % 2 ORDER BY age % 2",
		"SELECT shout(name) FROM people ORDER BY name LIMIT 2",
	} {
		p0, h0 := planned.Load(), hashed.Load()
		if _, err := c.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if n := planned.Load() - p0; n != 1 {
			t.Errorf("%s: planned %d times, want once", q, n)
		}
		if n := hashed.Load() - h0; n > 1 {
			t.Errorf("%s: plan rendered for its hash %d times, want at most once", q, n)
		}
	}
}

// ANALYZE TABLE and EXPLAIN work over the wire: after collecting
// statistics, EXPLAIN output carries est: annotations reflecting the
// table's real cardinality.
func TestAnalyzeAndExplainOverTheWire(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Query("ANALYZE TABLE people COMPUTE STATISTICS"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("EXPLAIN SELECT name FROM people WHERE age > 20")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("cols = %v", res.Columns)
	}
	text := ""
	for _, r := range res.Rows {
		text += r[0] + "\n"
	}
	for _, want := range []string{"== Optimized Plan ==", "== Physical Plan ==", "est: "} {
		if !strings.Contains(text, want) {
			t.Fatalf("EXPLAIN output missing %q:\n%s", want, text)
		}
	}
	// 3 rows analyzed: the scan's estimate is exact.
	if !strings.Contains(text, "est: 3 rows") {
		t.Fatalf("EXPLAIN should reflect analyzed row count:\n%s", text)
	}
}

// startServerWith is startServer with configuration applied before the
// listener starts (fields like DrainTimeout are read by handler
// goroutines and must not be written once serving).
func startServerWith(t *testing.T, configure func(*Server)) (*Server, string) {
	t.Helper()
	ctx := sparksql.NewContext()
	df, err := ctx.CreateDataFrame(
		sparksql.StructType{}.
			Add("name", sparksql.StringType, false).
			Add("age", sparksql.IntType, false),
		[]sparksql.Row{{"Alice", int32(34)}, {"Bob", int32(19)}, {"Carol", int32(52)}})
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("people")
	srv := New(ctx)
	configure(srv)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func TestGracefulDrain(t *testing.T) {
	srv, addr := startServerWith(t, func(s *Server) {
		s.DrainTimeout = 2 * time.Second
	})

	// A slow in-flight statement: hold it open with a UDF that blocks
	// until we release it, so Close must drain it rather than cut it off.
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	if err := srv.ctx.RegisterUDF("slow", func(s string) string {
		once.Do(func() { close(started) })
		<-release
		return s
	}); err != nil {
		t.Fatal(err)
	}

	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := c1.Query("SELECT slow(name) FROM people")
		done <- outcome{res, err}
	}()
	<-started

	// Close in the background: it must block on the in-flight statement.
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a statement was in flight")
	case <-time.After(100 * time.Millisecond):
	}

	// A second statement on a pre-existing connection is rejected.
	c2, err := Dial(addr)
	if err == nil {
		defer c2.Close()
		if _, qerr := c2.Query("SELECT 1"); qerr == nil ||
			!strings.Contains(qerr.Error(), "shutting down") {
			t.Fatalf("draining server accepted new statement: %v", qerr)
		}
	}

	// Release the slow query: it completes normally and Close returns.
	close(release)
	out := <-done
	if out.err != nil {
		t.Fatalf("in-flight query failed during drain: %v", out.err)
	}
	if len(out.res.Rows) != 3 {
		t.Fatalf("in-flight query returned %d rows, want 3", len(out.res.Rows))
	}
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after drain completed")
	}
}

func TestDrainTimeoutForcesClose(t *testing.T) {
	srv, addr := startServerWith(t, func(s *Server) {
		s.DrainTimeout = 200 * time.Millisecond
	})

	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	var once sync.Once
	if err := srv.ctx.RegisterUDF("stall", func(s string) string {
		once.Do(func() { close(started) })
		<-release
		return s
	}); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.Query("SELECT stall(name) FROM people")
	<-started

	doneC := make(chan struct{})
	go func() {
		srv.Close()
		close(doneC)
	}()
	select {
	case <-doneC:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung past DrainTimeout on a stuck statement")
	}
}

func TestConnTimeoutDropsIdleConnections(t *testing.T) {
	_, addr := startServerWith(t, func(s *Server) {
		s.ConnTimeout = 150 * time.Millisecond
	})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// An active statement works...
	if _, err := c.Query("SELECT name FROM people"); err != nil {
		t.Fatal(err)
	}
	// ...then the idle connection is dropped at the read deadline.
	time.Sleep(400 * time.Millisecond)
	if _, err := c.Query("SELECT name FROM people"); err == nil {
		t.Fatal("idle connection survived past ConnTimeout")
	}
}
