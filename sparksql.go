// Package sparksql is a from-scratch Go reproduction of Spark SQL
// (Armbrust et al., SIGMOD 2015): a DataFrame API that intermixes
// relational and procedural processing, backed by the Catalyst extensible
// optimizer, an RDD execution engine, columnar in-memory caching, a SQL
// front end, schema inference for JSON and native Go structs, user-defined
// functions and types, and a data source API with predicate pushdown and
// query federation.
//
// Quick start:
//
//	ctx := sparksql.NewContext()
//	users, _ := ctx.CreateDataFrameFromStructs([]User{{"Alice", 22}, {"Bob", 19}})
//	young := users.Where(users.Col("Age").Lt(sparksql.Lit(21)))
//	n, _ := young.Count()
//
// DataFrames are lazy — each represents a logical plan — but are analyzed
// eagerly, so referencing a missing column fails at the line that writes
// it, not at execution (paper §3.4).
package sparksql

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/datasource"
	"repro/internal/datasource/colfile"
	"repro/internal/datasource/csvds"
	"repro/internal/datasource/jsonds"
	"repro/internal/dfs"
	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/sqlparser"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/types"
)

// Re-exported value and schema types, so callers need only this package.
type (
	// Row is a positional result tuple; NULL is nil.
	Row = row.Row
	// DataType is a Spark SQL type object.
	DataType = types.DataType
	// StructType is a schema.
	StructType = types.StructType
	// StructField is one schema column.
	StructField = types.StructField
	// Decimal is a fixed-point decimal value.
	Decimal = types.Decimal
	// UserDefinedType maps a Go type onto built-in SQL types (paper §4.4.2).
	UserDefinedType = types.UserDefinedType
)

// Re-exported type singletons.
var (
	BooleanType   = types.Boolean
	IntType       = types.Int
	LongType      = types.Long
	FloatType     = types.Float
	DoubleType    = types.Double
	StringType    = types.String
	DateType      = types.Date
	TimestampType = types.Timestamp
)

// DecimalType builds a fixed-precision decimal type.
func DecimalType(precision, scale int) DataType {
	return types.DecimalType{Precision: precision, Scale: scale}
}

// ArrayType builds an array type.
func ArrayType(elem DataType, containsNull bool) DataType {
	return types.ArrayType{Elem: elem, ContainsNull: containsNull}
}

// Config selects the engine's operating mode; ClusterOptions tunes
// distributed execution (Config.Cluster). Both are declared once, with
// every knob's documentation, in internal/core.
type (
	Config         = core.Config
	ClusterOptions = core.ClusterOptions
)

// DefaultConfig enables the full Spark SQL feature set.
func DefaultConfig() Config { return core.DefaultConfig() }

// SharkConfig is the paper's Shark baseline, the one Figures 4 and 8
// measure: no codegen, no pipelining, no source pushdown.
func SharkConfig() Config { return core.SharkConfig() }

// Context is the entry point — the paper's SQLContext/HiveContext. It owns
// the catalog of temp tables, registered UDFs/UDTs, the data source
// provider registry and the execution engine.
type Context struct {
	engine  *core.Engine
	sources *datasource.Registry
	// store is the persistent table subsystem (CREATE TABLE / INSERT /
	// UPDATE / DELETE, WAL, snapshot reads). It publishes every table
	// version into the catalog, so queries treat persistent tables exactly
	// like cached temp tables.
	store *store.Store
}

// NewContext builds a context with DefaultConfig.
func NewContext() *Context { return NewContextWithConfig(DefaultConfig()) }

// NewContextWithConfig builds a context in the given mode. A bad
// Config.Cluster listen address panics — it is a programming error on par
// with an invalid regexp, and this constructor has no error return.
func NewContextWithConfig(cfg Config) *Context {
	ctx := &Context{
		engine:  core.NewEngine(cfg),
		sources: datasource.NewRegistry(),
	}
	// Built-in data sources (paper §4.4.1's CSV / JSON / columnar file).
	ctx.sources.Register("csv", csvds.Provider())
	ctx.sources.Register("json", jsonds.Provider())
	ctx.sources.Register("colfile", colfile.Provider())
	// The persistent table store: durable (WAL + checkpoints mirrored to
	// DataDir) when configured, process-lifetime otherwise. Every committed
	// version is published into the catalog, so persistent tables are
	// first-class scan sources for the whole stack — vectorized/fused
	// pipelines, the cost-based optimizer, cluster shipping.
	storeFS := ctx.engine.SpillFS
	if cfg.DataDir != "" {
		var err error
		storeFS, err = dfs.OpenDir(cfg.DataDir)
		if err != nil {
			panic(fmt.Sprintf("sparksql: Config.DataDir: %v", err))
		}
	}
	st, err := store.Open(storeFS, store.Options{
		StatsRefreshRows: cfg.StatsRefreshRows,
		CheckpointBytes:  cfg.CheckpointBytes,
		Metrics:          ctx.engine.RDDCtx.Metrics(),
		Trace:            ctx.engine.RDDCtx.Trace(),
		OnChange: func(name string, rel *plan.InMemoryRelation) {
			if rel == nil {
				ctx.engine.Catalog.DropTable(name)
				return
			}
			ctx.engine.Catalog.RegisterTable(name, rel)
		},
	})
	if err != nil {
		panic(fmt.Sprintf("sparksql: opening table store: %v", err))
	}
	ctx.store = st
	if cfg.Cluster != nil {
		if _, err := core.EnableCluster(ctx.engine, *cfg.Cluster); err != nil {
			panic(fmt.Sprintf("sparksql: Config.Cluster: %v", err))
		}
	}
	return ctx
}

// Cluster returns the distributed-execution runtime (nil without
// Config.Cluster): membership snapshots, chaos hooks, the coordinator.
func (c *Context) Cluster() *core.ClusterRuntime { return c.engine.Cluster() }

// ClusterAddr returns the coordinator's listen address, or "" when the
// context runs without a cluster. Workers are pointed at this address.
func (c *Context) ClusterAddr() string {
	if rt := c.engine.Cluster(); rt != nil {
		return rt.Addr()
	}
	return ""
}

// Close releases the context's external resources: the cluster
// coordinator when one is running, and the table store's durable file
// handles (syncing them) when DataDir is set. Purely local, non-durable
// contexts need no Close (it is a no-op on them, kept for symmetric
// defer ctx.Close()).
func (c *Context) Close() error {
	var first error
	if c.store != nil {
		if err := c.store.Close(); err != nil {
			first = err
		}
	}
	if rt := c.engine.Cluster(); rt != nil {
		if err := rt.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Store exposes the persistent table subsystem for tests and tools (WAL
// checkpointing, table info, direct snapshots).
func (c *Context) Store() *store.Store { return c.store }

// Engine exposes the underlying engine for advanced integrations (planner
// strategies, metrics); examples and benches use it, typical callers don't.
func (c *Context) Engine() *core.Engine { return c.engine }

// RDDContext exposes the task execution context for procedural RDD code.
func (c *Context) RDDContext() *rdd.Context { return c.engine.RDDCtx }

// SpillFS exposes the engine's spill file system (non-nil even without a
// MemoryBudget). Tests and experiments use it to assert spill files are
// cleaned up and to inject write faults.
func (c *Context) SpillFS() *dfs.FileSystem { return c.engine.SpillFS }

// RegisterDataSource adds a named relation provider, the USING extension
// point of §4.4.1.
func (c *Context) RegisterDataSource(name string, p datasource.Provider) {
	c.sources.Register(name, p)
}

// RegisterUDT registers a user-defined type (paper §4.4.2).
func (c *Context) RegisterUDT(udt UserDefinedType) error {
	return c.engine.Catalog.UDTs().Register(udt)
}

// withOriginSQL stamps the statement text onto a SHOW frame for event-log
// provenance only — SHOW frames are built from engine state, so the text is
// never shippable and must not become sqlText.
func withOriginSQL(df *DataFrame, err error, query string) (*DataFrame, error) {
	if err != nil {
		return nil, err
	}
	df.originSQL = query
	return df, nil
}

// SQL runs a SQL statement. Queries return a DataFrame; CREATE TEMPORARY
// TABLE statements register the table and return an empty DataFrame.
func (c *Context) SQL(query string) (*DataFrame, error) {
	stmt, err := sqlparser.Parse(query)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sqlparser.SelectStatement:
		df, err := c.newDataFrame(s.Plan)
		if err != nil {
			return nil, err
		}
		// Remember the SQL text: it is the only form of a query that can
		// be shipped to cluster workers (closures cannot serialize), so
		// output actions on this exact frame may execute distributed.
		df.sqlText = query
		return df, nil
	case *sqlparser.AnalyzeTable:
		if err := c.AnalyzeTable(s.Name); err != nil {
			return nil, err
		}
		return c.emptyFrame(), nil
	case *sqlparser.ExplainStatement:
		df, err := c.newDataFrame(s.Plan)
		if err != nil {
			return nil, err
		}
		var text string
		if s.Analyze {
			text, err = df.ExplainAnalyze()
		} else {
			text, err = df.Explain()
		}
		if err != nil {
			return nil, err
		}
		lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
		rows := make([]Row, len(lines))
		for i, l := range lines {
			rows[i] = Row{l}
		}
		schema := types.NewStruct(types.StructField{Name: "plan", Type: types.String, Nullable: false})
		return c.CreateDataFrame(schema, rows)
	case *sqlparser.CreateTable:
		return c.execCreateTable(s)
	case *sqlparser.DropTable:
		if err := c.store.DropTable(s.Name, s.IfExists); err != nil {
			return nil, err
		}
		return c.emptyFrame(), nil
	case *sqlparser.InsertStatement:
		return c.execInsert(s)
	case *sqlparser.UpdateStatement:
		return c.execUpdate(s)
	case *sqlparser.DeleteStatement:
		return c.execDelete(s)
	case *sqlparser.ShowTables:
		df, err := c.showTablesFrame()
		return withOriginSQL(df, err, query)
	case *sqlparser.DescribeTable:
		df, err := c.describeFrame(s.Name)
		return withOriginSQL(df, err, query)
	case *sqlparser.ShowMetrics:
		df, err := c.metricsFrame(s.Like)
		return withOriginSQL(df, err, query)
	case *sqlparser.ShowCluster:
		df, err := c.clusterFrame()
		return withOriginSQL(df, err, query)
	case *sqlparser.ShowHistory:
		df, err := c.historyFrame()
		return withOriginSQL(df, err, query)
	case *sqlparser.CreateTempTable:
		if s.AsSelect != nil {
			df, err := c.newDataFrame(s.AsSelect)
			if err != nil {
				return nil, err
			}
			df.RegisterTempTable(s.Name)
			return c.emptyFrame(), nil
		}
		provider, err := c.sources.Lookup(s.Provider)
		if err != nil {
			return nil, err
		}
		rel, err := provider.CreateRelation(s.Options)
		if err != nil {
			return nil, fmt.Errorf("sparksql: creating relation %q: %w", s.Name, err)
		}
		df, err := c.frameForRelation(s.Provider, rel)
		if err != nil {
			return nil, err
		}
		df.RegisterTempTable(s.Name)
		return c.emptyFrame(), nil
	default:
		return nil, fmt.Errorf("sparksql: unsupported statement")
	}
}

// AnalyzeTable scans a registered table once, collects per-table and
// per-column statistics (row count, size, min/max, null count, distinct
// count estimate) and attaches them to the table's catalog entry, where
// the cost-based optimizer reads them — the SQL form is
// `ANALYZE TABLE name [COMPUTE STATISTICS]`.
func (c *Context) AnalyzeTable(name string) error {
	// Persistent tables refresh through the store, which recomputes the
	// statistics and republishes the relation so the catalog's pinned
	// version carries them.
	if c.store.Has(name) {
		return c.store.Analyze(name)
	}
	lp, ok := c.engine.Catalog.LookupTable(name)
	if !ok {
		return fmt.Errorf("sparksql: ANALYZE TABLE: unknown table %q", name)
	}
	df, err := c.newDataFrame(lp)
	if err != nil {
		return err
	}
	rows, err := df.Collect()
	if err != nil {
		return err
	}
	t := stats.FromRows(df.Schema(), rows)
	// Attach to the catalog's own plan: its leaf is shared by reference
	// with every query planned after this point.
	if !plan.AttachStats(lp, t) {
		return fmt.Errorf("sparksql: ANALYZE TABLE %q: table is a view, not a base relation", name)
	}
	return nil
}

// Metrics returns the engine-wide metrics registry: every counter, gauge
// and histogram the rdd executor, shuffles and SQL server record. Shared
// with SHOW METRICS and the server's /metrics endpoint.
func (c *Context) Metrics() *metrics.Registry { return c.engine.RDDCtx.Metrics() }

// Trace returns the in-memory span buffer (job/stage/task/shuffle events)
// — the reproduction's Spark event log — or nil when tracing is disabled
// via RDDContext().SetTracing(false).
func (c *Context) Trace() *metrics.TraceBuffer { return c.engine.RDDCtx.Trace() }

// metricsFrame renders the registry as (metric, value) rows — the result
// of SHOW METRICS [LIKE '<glob>']. Histograms expand into
// _count/_sum/_min/_max/_p50/_p99 pseudo-metrics, matching the /metrics
// text endpoint line for line.
func (c *Context) metricsFrame(pattern string) (*DataFrame, error) {
	var buf strings.Builder
	if err := c.Metrics().WriteTextFiltered(&buf, pattern); err != nil {
		return nil, err
	}
	var rows []Row
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if line == "" {
			continue
		}
		name, value, _ := strings.Cut(line, " ")
		rows = append(rows, Row{name, value})
	}
	schema := types.NewStruct(
		types.StructField{Name: "metric", Type: types.String, Nullable: false},
		types.StructField{Name: "value", Type: types.String, Nullable: false},
	)
	return c.CreateDataFrame(schema, rows)
}

// clusterFrame renders cluster membership and per-worker health as rows —
// the result of SHOW CLUSTER. It harvests fresh worker metrics first so
// shuffle-byte columns reflect the moment of the query, not the last
// background pull. Without a cluster it returns zero rows.
func (c *Context) clusterFrame() (*DataFrame, error) {
	schema := types.NewStruct(
		types.StructField{Name: "worker", Type: types.String, Nullable: false},
		types.StructField{Name: "status", Type: types.String, Nullable: false},
		types.StructField{Name: "pid", Type: types.Long, Nullable: false},
		types.StructField{Name: "inflight", Type: types.Long, Nullable: false},
		types.StructField{Name: "failures", Type: types.Long, Nullable: false},
		types.StructField{Name: "tasks", Type: types.Long, Nullable: false},
		types.StructField{Name: "shuffle_bytes", Type: types.Long, Nullable: false},
	)
	rt := c.engine.Cluster()
	if rt == nil {
		return c.CreateDataFrame(schema, nil)
	}
	rt.Harvest(nil)
	reg := c.Metrics()
	var rows []Row
	for _, w := range rt.Coordinator().Workers() {
		status := "live"
		if w.Banned {
			status = "blacklisted"
		}
		rows = append(rows, Row{
			w.ID, status, w.PID, int64(w.Inflight), int64(w.Failures),
			reg.Counter("cluster.tasks.worker." + w.ID).Load(),
			rt.WorkerCounter(w.ID, "rdd.shuffle.bytes"),
		})
	}
	return c.CreateDataFrame(schema, rows)
}

// historyFrame renders the query event log as rows, oldest first — the
// result of SHOW HISTORY. Full entries (plan text, AQE decisions,
// per-stage and per-worker actuals) are in EventLog().Events() and the
// server's /history JSONL endpoint; this view keeps one line per query.
func (c *Context) historyFrame() (*DataFrame, error) {
	schema := types.NewStruct(
		types.StructField{Name: "id", Type: types.String, Nullable: false},
		types.StructField{Name: "query", Type: types.String, Nullable: true},
		types.StructField{Name: "action", Type: types.String, Nullable: false},
		types.StructField{Name: "plan_hash", Type: types.String, Nullable: true},
		types.StructField{Name: "rows", Type: types.Long, Nullable: false},
		types.StructField{Name: "millis", Type: types.Double, Nullable: false},
		types.StructField{Name: "status", Type: types.String, Nullable: false},
	)
	var rows []Row
	for _, ev := range c.engine.Events.Events() {
		status := "ok"
		if ev.Err != "" {
			status = "error: " + ev.Err
		}
		rows = append(rows, Row{ev.ID, ev.SQL, ev.Action, ev.PlanHash, ev.Rows, ev.Millis, status})
	}
	return c.CreateDataFrame(schema, rows)
}

// EventLog returns the persistent query history: one entry per completed
// query action with plan, plan hash, AQE decisions, per-stage actuals and
// per-worker task breakdown. Backs SHOW HISTORY and the server's /history
// endpoint.
func (c *Context) EventLog() *core.EventLog { return c.engine.Events }

// Table returns a DataFrame over a registered temp table.
func (c *Context) Table(name string) (*DataFrame, error) {
	return c.newDataFrame(&plan.UnresolvedRelation{Name: name})
}

// CreateDataFrame builds a DataFrame from a schema and rows. Row values
// must match the declared types (INT→int32, BIGINT→int64, DOUBLE→float64,
// STRING→string, ...). The rows slice is adopted, not copied, and is
// immutable from then on, as the paper's DataFrames are: the planner sizes
// the relation from its rows once and a cluster coordinator ships their
// encoding once, so a later write to the slice would be seen by local scans
// and by neither of those. To change a table, build a new DataFrame and
// register it under the same name.
func (c *Context) CreateDataFrame(schema StructType, rows []Row) (*DataFrame, error) {
	return c.newDataFrame(plan.NewLocalRelation(schema, rows))
}

// CreateDataFrameFromRDD views an existing row RDD as a DataFrame (paper
// §3.5: relational processing over native datasets inside Spark programs).
func (c *Context) CreateDataFrameFromRDD(schema StructType, r *rdd.RDD[Row]) (*DataFrame, error) {
	attrs := make([]*expr.AttributeReference, len(schema.Fields))
	for i, f := range schema.Fields {
		attrs[i] = expr.NewAttribute(f.Name, f.Type, f.Nullable)
	}
	return c.newDataFrame(&plan.LogicalRDD{Attrs: attrs, RDD: r})
}

// Range produces the integers [0, n) as a single BIGINT column "id".
func (c *Context) Range(n int64) *DataFrame {
	df, err := c.newDataFrame(plan.NewRange(0, n, 1, 0))
	if err != nil {
		panic(err) // range plans always analyze
	}
	return df
}

// RegisterUDF registers a Go function as a scalar UDF callable from SQL
// and the DSL (paper §3.7). Parameter and result types are derived from
// the function signature by reflection; supported Go types are bool,
// int32, int64, float32, float64, string and types.Decimal.
func (c *Context) RegisterUDF(name string, fn any) error {
	udf, err := reflectUDF(name, fn)
	if err != nil {
		return err
	}
	c.engine.Catalog.RegisterUDF(udf)
	return nil
}

// RegisterTableUDF registers a MADLib-style table-valued function (paper
// §3.7): callable in SQL as `SELECT ... FROM name(table1, table2)`, it
// receives DataFrames for its argument tables and returns a DataFrame. The
// function body may use the full relational and procedural API.
func (c *Context) RegisterTableUDF(name string, fn func(args []*DataFrame) (*DataFrame, error)) {
	c.engine.Catalog.RegisterTableFunction(name, func(plans []plan.LogicalPlan) (plan.LogicalPlan, error) {
		dfs := make([]*DataFrame, len(plans))
		for i, p := range plans {
			df, err := c.newDataFrame(p)
			if err != nil {
				return nil, err
			}
			dfs[i] = df
		}
		out, err := fn(dfs)
		if err != nil {
			return nil, err
		}
		return out.logical, nil
	})
}

// CallUDF builds a DSL column invoking a registered UDF.
func (c *Context) CallUDF(name string, args ...Column) Column {
	exprs := make([]expr.Expression, len(args))
	for i, a := range args {
		exprs[i] = a.e
	}
	return Column{e: &expr.UnresolvedFunction{Name: name, Args: exprs}}
}

// DropTempTable removes a temp table registration.
func (c *Context) DropTempTable(name string) {
	c.engine.Catalog.DropTable(name)
}

// TableNames lists registered temp tables.
func (c *Context) TableNames() []string { return c.engine.Catalog.TableNames() }

// Read begins building a data source read.
func (c *Context) Read() *Reader { return &Reader{ctx: c, options: map[string]string{}} }

// newDataFrame analyzes eagerly and wraps the plan.
func (c *Context) newDataFrame(lp plan.LogicalPlan) (*DataFrame, error) {
	analyzed, err := c.engine.Analyze(lp)
	if err != nil {
		return nil, err
	}
	return &DataFrame{ctx: c, logical: lp, analyzed: analyzed}, nil
}

func (c *Context) emptyFrame() *DataFrame {
	lp := plan.NewLocalRelation(types.StructType{}, nil)
	return &DataFrame{ctx: c, logical: lp, analyzed: lp}
}

// frameForRelation wraps a data source relation as a DataFrame.
func (c *Context) frameForRelation(name string, rel datasource.Relation) (*DataFrame, error) {
	schema := rel.Schema()
	attrs := make([]*expr.AttributeReference, len(schema.Fields))
	for i, f := range schema.Fields {
		attrs[i] = expr.NewAttribute(f.Name, f.Type, f.Nullable)
	}
	var size int64
	if sized, ok := rel.(datasource.SizedRelation); ok {
		size = sized.SizeInBytes()
	}
	return c.newDataFrame(&plan.DataSourceRelation{
		Name: name, Rel: rel, Attrs: attrs, SizeHint: size,
	})
}

// Catalog grants tests and tools access to the analysis catalog.
func (c *Context) Catalog() *analysis.Catalog { return c.engine.Catalog }
