// Package sqlserver exposes a Context over TCP with a simple line
// protocol — the reproduction's stand-in for the JDBC/ODBC server in the
// paper's Figure 1, through which business-intelligence tools submit SQL
// (and can call registered UDFs, §3.7).
//
// Protocol (text, newline-delimited):
//
//	client:  <one SQL statement on a single line>\n
//	server:  OK <ncols> <nrows>\n
//	         <tab-separated header>\n
//	         <tab-separated row>\n × nrows
//	         \n                      (blank terminator)
//	or:      ERR <message>\n
//
// Statements are executed sequentially per connection; connections are
// served concurrently.
package sqlserver

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sparksql "repro"
	"repro/internal/metrics"
	"repro/internal/rdd"
	"repro/internal/row"
)

// Server serves SQL over a listener.
type Server struct {
	ctx *sparksql.Context
	// MaxRows caps result sizes per query (0 = unlimited).
	MaxRows int
	// QueryTimeout bounds each query's execution (0 = unlimited): on
	// expiry the query's tasks are cancelled and the client gets ERR.
	QueryTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: Close stops accepting
	// connections, lets in-flight statements finish for this long, then
	// force-closes what remains. Zero means close immediately (the old
	// behavior); statements arriving while draining get
	// "ERR server shutting down".
	DrainTimeout time.Duration
	// ConnTimeout is the per-connection idle deadline: each read of the
	// next statement and each response write must complete within it, or
	// the connection is dropped (0 = no deadline). It protects drain from
	// clients that hold connections open silently.
	ConnTimeout time.Duration
	// Logger receives one structured record per statement: query id, plan
	// hash, elapsed time, and rows returned or the error — with the failing
	// stage, partition, attempt count and root cause unwrapped from a
	// *rdd.JobError when the failure came from task execution. Defaults to
	// slog.Default().
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof and expvar under /debug/ on the
	// metrics mux. Off by default: profiling endpoints are opt-in.
	EnablePprof bool

	// querySeq numbers statements across all connections for log
	// correlation.
	querySeq atomic.Int64
	// server-scope metrics, resolved once from the engine registry.
	mQueries *metrics.Counter
	mErrors  *metrics.Counter
	mLatency *metrics.Histogram

	mu       sync.Mutex
	listener net.Listener
	httpL    net.Listener
	closed   bool
	draining bool
	conns    map[net.Conn]struct{}
	inflight sync.WaitGroup
}

// New builds a server over a context.
func New(ctx *sparksql.Context) *Server {
	scope := ctx.Metrics().Scoped("server")
	return &Server{
		ctx:      ctx,
		MaxRows:  10_000,
		mQueries: scope.Counter("queries"),
		mErrors:  scope.Counter("errors"),
		mLatency: scope.Histogram("query.micros"),
		conns:    make(map[net.Conn]struct{}),
	}
}

func (s *Server) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return slog.Default()
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// ListenAndServe listens on addr ("127.0.0.1:0" for an ephemeral port) and
// serves; it reports the bound address through the returned listener.
func (s *Server) ListenAndServe(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go s.Serve(l)
	return l.Addr(), nil
}

// Close shuts the server down gracefully: it stops accepting connections
// (SQL and metrics listeners both), rejects statements that arrive on
// open connections with "ERR server shutting down", waits up to
// DrainTimeout for in-flight statements to finish, then force-closes any
// connection still open. With DrainTimeout zero everything closes
// immediately.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.draining = true
	if s.httpL != nil {
		s.httpL.Close()
	}
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	drain := s.DrainTimeout
	s.mu.Unlock()

	if drain > 0 {
		done := make(chan struct{})
		go func() {
			s.inflight.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(drain):
		}
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.conns = make(map[net.Conn]struct{})
	s.mu.Unlock()
	return err
}

// MetricsHandler serves the engine's observability surfaces over HTTP:
// GET /metrics returns the registry as plain text (one metric per line,
// histograms expanded into _count/_sum/_min/_max/_p50/_p99; ?prefix= filters
// with glob semantics), with harvested per-worker counters appended as
// `name{worker=id} value` lines when the context runs a cluster;
// GET /trace returns the span buffer — the in-memory event log — as JSONL,
// one job/stage/task/shuffle span per line; GET /history replays the
// persistent query event log as JSONL, one completed query per line. With
// EnablePprof the net/http/pprof and expvar handlers mount under /debug/.
func (s *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		pattern := r.URL.Query().Get("prefix")
		s.ctx.Metrics().WriteTextFiltered(w, pattern)
		if rt := s.ctx.Cluster(); rt != nil {
			rt.WriteFederatedMetrics(w, pattern)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		s.ctx.Trace().ExportJSONL(w)
	})
	mux.HandleFunc("/history", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		s.ctx.EventLog().WriteJSONL(w)
	})
	if s.EnablePprof {
		metrics.RegisterDebugHandlers(mux)
	}
	return mux
}

// ListenAndServeMetrics exposes MetricsHandler on addr ("127.0.0.1:0" for
// an ephemeral port) and reports the bound address.
func (s *Server) ListenAndServeMetrics(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.httpL = l
	s.mu.Unlock()
	go http.Serve(l, s.MetricsHandler())
	return l.Addr(), nil
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	out := bufio.NewWriter(conn)
	for {
		if s.ConnTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ConnTimeout))
		}
		if !in.Scan() {
			return
		}
		query := strings.TrimSpace(in.Text())
		if query == "" {
			continue
		}
		s.mu.Lock()
		draining := s.draining
		if !draining {
			s.inflight.Add(1)
		}
		s.mu.Unlock()
		if draining {
			writeErr(out, errShuttingDown)
			out.Flush()
			return
		}
		s.execute(out, query)
		if s.ConnTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.ConnTimeout))
		}
		// A statement is in flight until its reply is written: Close closes
		// every connection once none is, and would cut an unflushed reply.
		err := out.Flush()
		s.inflight.Done()
		if err != nil {
			return
		}
	}
}

// errShuttingDown is the drain-phase rejection sent to statements that
// arrive after Close began.
var errShuttingDown = errors.New("server shutting down")

// execute runs one statement, writes the protocol response, updates the
// server metrics and emits one structured query-log record.
func (s *Server) execute(out *bufio.Writer, query string) {
	qid := s.querySeq.Add(1)
	start := time.Now()
	planHash, nrows, err := s.runQuery(out, query)
	elapsed := time.Since(start)
	s.mQueries.Inc()
	s.mLatency.Observe(elapsed.Microseconds())
	if err != nil {
		s.mErrors.Inc()
	}
	s.logQuery(qid, query, planHash, elapsed, nrows, err)
}

// logQuery is the structured query log — the replacement for opaque ERR
// strings: every statement gets a record with its id, plan fingerprint and
// latency, and failures additionally carry the failing stage, partition,
// attempt count and root cause when the error chain holds a *rdd.JobError.
func (s *Server) logQuery(qid int64, query string, planHash uint64, elapsed time.Duration, rows int, err error) {
	attrs := []any{
		slog.Int64("query_id", qid),
		slog.String("query", sanitize(query)),
		slog.String("plan_hash", fmt.Sprintf("%016x", planHash)),
		slog.Duration("elapsed", elapsed),
	}
	if err == nil {
		s.logger().Info("query ok", append(attrs, slog.Int("rows", rows))...)
		return
	}
	attrs = append(attrs, slog.String("error", err.Error()))
	var je *rdd.JobError
	if errors.As(err, &je) {
		attrs = append(attrs,
			slog.String("failed_stage", je.RDDName),
			slog.Int("partition", je.Partition),
			slog.Int("attempts", je.Attempts),
			slog.String("cause", fmt.Sprint(je.Cause)),
		)
		if je.Worker != "" {
			attrs = append(attrs, slog.String("worker", je.Worker))
		}
	}
	s.logger().Error("query failed", attrs...)
}

// runQuery executes one statement and writes the protocol response; the
// returned plan hash, row count and error feed the query log. A panic
// anywhere in parsing, planning or execution is confined to this query:
// the client gets an ERR line and the connection (and server) stay usable.
// Task failures arrive as ordinary errors from Collect; the recover is the
// last line of defense for non-task panics (e.g. a misbehaving UDF
// evaluated at plan time).
func (s *Server) runQuery(out *bufio.Writer, query string) (planHash uint64, nrows int, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("panic while executing query: %v", rec)
			writeErr(out, err)
		}
	}()
	// The /metrics line command is an alias for SHOW METRICS, so plain
	// netcat sessions can inspect the engine without SQL.
	if query == "/metrics" {
		query = "SHOW METRICS"
	}
	df, err := s.ctx.SQL(query)
	if err != nil {
		writeErr(out, err)
		return 0, 0, err
	}
	cols := df.Columns()
	if len(cols) == 0 { // DDL
		fmt.Fprintf(out, "OK 0 0\n\n")
		return 0, 0, nil
	}
	qc := context.Background()
	var cancel context.CancelFunc
	if s.QueryTimeout > 0 {
		qc, cancel = context.WithTimeout(qc, s.QueryTimeout)
		defer cancel()
	}
	rows, planHash, err := df.CollectN(qc, s.MaxRows)
	if err != nil {
		writeErr(out, err)
		return planHash, 0, err
	}
	fmt.Fprintf(out, "OK %d %d\n", len(cols), len(rows))
	out.WriteString(strings.Join(cols, "\t"))
	out.WriteByte('\n')
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				out.WriteByte('\t')
			}
			out.WriteString(sanitize(row.FormatValue(v)))
		}
		out.WriteByte('\n')
	}
	out.WriteByte('\n')
	return planHash, len(rows), nil
}

func writeErr(out *bufio.Writer, err error) {
	fmt.Fprintf(out, "ERR %s\n", sanitize(err.Error()))
}

// sanitize keeps the line protocol intact.
func sanitize(s string) string {
	s = strings.ReplaceAll(s, "\n", " ")
	return strings.ReplaceAll(s, "\t", " ")
}

// ---------------------------------------------------------------------------
// Client

// Client is the matching line-protocol client.
type Client struct {
	conn net.Conn
	in   *bufio.Scanner
	out  *bufio.Writer
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return &Client{conn: conn, in: sc, out: bufio.NewWriter(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Result is a query result.
type Result struct {
	Columns []string
	Rows    [][]string
}

// Query runs one SQL statement.
func (c *Client) Query(sql string) (*Result, error) {
	if strings.ContainsAny(sql, "\n") {
		sql = strings.ReplaceAll(sql, "\n", " ")
	}
	if _, err := c.out.WriteString(sql + "\n"); err != nil {
		return nil, err
	}
	if err := c.out.Flush(); err != nil {
		return nil, err
	}
	if !c.in.Scan() {
		return nil, fmt.Errorf("sqlserver: connection closed")
	}
	status := c.in.Text()
	if strings.HasPrefix(status, "ERR ") {
		return nil, fmt.Errorf("sqlserver: %s", strings.TrimPrefix(status, "ERR "))
	}
	var ncols, nrows int
	if _, err := fmt.Sscanf(status, "OK %d %d", &ncols, &nrows); err != nil {
		return nil, fmt.Errorf("sqlserver: bad status %q", status)
	}
	res := &Result{}
	if ncols == 0 {
		c.in.Scan() // blank terminator
		return res, nil
	}
	if !c.in.Scan() {
		return nil, fmt.Errorf("sqlserver: truncated header")
	}
	res.Columns = strings.Split(c.in.Text(), "\t")
	for i := 0; i < nrows; i++ {
		if !c.in.Scan() {
			return nil, fmt.Errorf("sqlserver: truncated results")
		}
		res.Rows = append(res.Rows, strings.Split(c.in.Text(), "\t"))
	}
	c.in.Scan() // blank terminator
	return res, nil
}
