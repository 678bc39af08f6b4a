package physical

import (
	"context"
	"fmt"
	"time"

	"repro/internal/columnar"
	"repro/internal/datasource"
	"repro/internal/expr"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/types"
)

// ScanExec is the generic leaf: it wraps a partition-producing function for
// local relations, RDDs, ranges, data sources and the columnar cache.
type ScanExec struct {
	PlanEstimate
	PlanMetrics
	Name  string
	Attrs []*expr.AttributeReference
	// Build produces the RDD when executed.
	Build func(ctx *ExecContext) *rdd.RDD[row.Row]
	// Detail annotates EXPLAIN output (pushed filters/columns).
	Detail string
}

func (s *ScanExec) Children() []SparkPlan { return nil }
func (s *ScanExec) WithNewChildren(children []SparkPlan) SparkPlan {
	return s
}
func (s *ScanExec) Output() []*expr.AttributeReference { return s.Attrs }
func (s *ScanExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	return s.Build(ctx)
}
func (s *ScanExec) SimpleString() string {
	if s.Detail != "" {
		return fmt.Sprintf("Scan %s %s %s", s.Name, attrsString(s.Attrs), s.Detail)
	}
	return fmt.Sprintf("Scan %s %s", s.Name, attrsString(s.Attrs))
}
func (s *ScanExec) String() string { return Format(s) }

// BatchScan is the one batch-producing leaf contract: the columnar cache and
// columnar data sources implement it, and the vectorized pipeline and the
// fused sinks are written against it alone.
type BatchScan interface {
	SparkPlan
	// OpenBatches starts one execution of the scan. used marks the output
	// positions some consumer reads; the scan need not decode the others.
	OpenBatches(ctx *ExecContext, used []bool) BatchSource
}

// BatchSource is an opened BatchScan.
type BatchSource struct {
	NumPartitions int
	// PartitionBytes is each partition's encoded size, nil when the source
	// does not know it (a fused join's output): what the pipeline cuts a
	// task's run of partitions by.
	PartitionBytes []int64
	// Batches runs partition p under the task's context, handing fn its
	// batches in order: a fused join runs its probe there, which can fail or
	// be cancelled (a leaf scan returns no error). sc is the task's scratch,
	// which a scan may decode into (the cached scan does). In a batch, Cols[j] is output position j as a typed vector
	// (nil where used[j] was false), N the batch's row count, and Sel the
	// selection of all N: a scan with filters of its own hands over the rows
	// that passed them and no others. An empty batch may come with nil
	// vectors. A batch is valid until fn returns, and its Sel must not be
	// written to. The scan records its own metrics (batches, rows decoded,
	// rows selected).
	Batches func(jc context.Context, p int, sc *expr.Scratch, fn func(datasource.Batch)) error
	// Stages are the stages Batches reads (a fused join's build sides), which
	// the RDD whose tasks open the partitions reads in turn.
	Stages []rdd.Dep
}

// NewLocalScan scans in-memory rows, splitting them across the default
// parallelism.
func NewLocalScan(attrs []*expr.AttributeReference, rows []row.Row) *ScanExec {
	s := &ScanExec{Name: "LocalRelation", Attrs: attrs}
	s.Build = func(ctx *ExecContext) *rdd.RDD[row.Row] {
		om := s.EnableMetrics(ctx.Metrics)
		n := ctx.RDD.Parallelism()
		total := len(rows)
		return rdd.Generate(ctx.RDD, "parallelize", n, func(p int) []row.Row {
			start := time.Now()
			lo := total * p / n
			hi := total * (p + 1) / n
			out := make([]row.Row, hi-lo)
			copy(out, rows[lo:hi])
			om.RecordPartition(len(out), time.Since(start))
			return out
		})
	}
	return s
}

// NewRDDScan scans an existing row RDD (paper §3.5: the logical data scan
// operator pointing to a native RDD).
func NewRDDScan(attrs []*expr.AttributeReference, r *rdd.RDD[row.Row]) *ScanExec {
	s := &ScanExec{Name: "ExistingRDD", Attrs: attrs}
	s.Build = func(ctx *ExecContext) *rdd.RDD[row.Row] {
		om := s.EnableMetrics(ctx.Metrics)
		if om == nil {
			return r
		}
		// The RDD pre-exists the scan; counting needs a pass-through stage.
		return rdd.MapPartitions(r, func(_ int, in []row.Row) []row.Row {
			om.RecordPartition(len(in), 0)
			return in
		})
	}
	return s
}

// NewRangeScan produces [start,end) by step across partitions.
func NewRangeScan(attr *expr.AttributeReference, start, end, step int64, partitions int) *ScanExec {
	s := &ScanExec{Name: "Range", Attrs: []*expr.AttributeReference{attr}}
	s.Build = func(ctx *ExecContext) *rdd.RDD[row.Row] {
		om := s.EnableMetrics(ctx.Metrics)
		n := partitions
		if n <= 0 {
			n = ctx.RDD.Parallelism()
		}
		total := (end - start + step - 1) / step
		if total < 0 {
			total = 0
		}
		return rdd.Generate(ctx.RDD, "range", n, func(p int) []row.Row {
			t0 := time.Now()
			lo := total * int64(p) / int64(n)
			hi := total * int64(p+1) / int64(n)
			out := make([]row.Row, 0, hi-lo)
			for i := lo; i < hi; i++ {
				out = append(out, row.Row{start + i*step})
			}
			om.RecordPartition(len(out), time.Since(t0))
			return out
		})
	}
	return s
}

// NewSourceScan scans a data source relation through the smartest interface
// it offers, passing pushed columns and filters (paper §4.4.1). A relation
// that also implements datasource.ColumnarScan gets a leaf that is a
// BatchScan as well.
func NewSourceScan(name string, attrs []*expr.AttributeReference, rel datasource.Relation,
	cols []string, filters []datasource.Filter, predicates []expr.Expression) SparkPlan {
	s := newSourceRowScan(name, attrs, rel, cols, filters, predicates)
	if columnarRel, ok := rel.(datasource.ColumnarScan); ok {
		return &SourceBatchScanExec{ScanExec: s, source: name, rel: columnarRel, filters: filters}
	}
	return s
}

func newSourceRowScan(name string, attrs []*expr.AttributeReference, rel datasource.Relation,
	cols []string, filters []datasource.Filter, predicates []expr.Expression) *ScanExec {
	detail := ""
	if len(cols) > 0 {
		detail += fmt.Sprintf("columns=%v ", cols)
	}
	if len(filters) > 0 {
		detail += fmt.Sprintf("pushed=%v", filters)
	}
	if len(predicates) > 0 {
		detail += fmt.Sprintf("pushedExprs=%v", predicates)
	}
	s := &ScanExec{Name: "Source " + name, Attrs: attrs, Detail: detail}
	s.Build = func(ctx *ExecContext) *rdd.RDD[row.Row] {
		om := s.EnableMetrics(ctx.Metrics)
		scan, err := openScan(rel, attrs, cols, filters, predicates)
		if err != nil {
			panic(fmt.Sprintf("physical: opening scan of %s: %v", name, err))
		}
		return rdd.Generate(ctx.RDD, "scan:"+name, scan.NumPartitions, func(p int) []row.Row {
			t0 := time.Now()
			out := scan.Partition(p)
			om.RecordPartition(len(out), time.Since(t0))
			return out
		})
	}
	return s
}

// openScan picks the best scan interface available for the pushdown set.
func openScan(rel datasource.Relation, attrs []*expr.AttributeReference,
	cols []string, filters []datasource.Filter, predicates []expr.Expression) (datasource.Scan, error) {
	if len(cols) == 0 {
		// No pruning was pushed; scan all declared columns.
		cols = make([]string, len(attrs))
		for i, a := range attrs {
			cols[i] = a.Name
		}
	}
	switch r := rel.(type) {
	case datasource.CatalystScan:
		return r.ScanCatalyst(cols, predicates)
	case datasource.PrunedFilteredScan:
		return r.ScanPrunedFiltered(cols, filters)
	case datasource.PrunedScan:
		return r.ScanPruned(cols)
	case datasource.TableScan:
		return r.ScanAll()
	}
	return datasource.Scan{}, fmt.Errorf("relation %T implements no scan interface", rel)
}

// SourceBatchScanExec is the leaf over a data source that implements
// datasource.ColumnarScan. Executed as a row operator (a bare scan, or with
// vectorization off) it is the embedded source scan; under a vectorized
// pipeline it hands over the source's typed batches.
type SourceBatchScanExec struct {
	*ScanExec
	source  string // provider name, prefix of the scan's counters
	rel     datasource.ColumnarScan
	filters []datasource.Filter
}

func (s *SourceBatchScanExec) WithNewChildren(children []SparkPlan) SparkPlan { return s }
func (s *SourceBatchScanExec) String() string                                 { return Format(s) }

// OpenBatches implements BatchScan: it asks the source for the used columns
// only — a column that just a pushed filter reads is never materialised —
// and spreads the answer back over the output positions.
func (s *SourceBatchScanExec) OpenBatches(ctx *ExecContext, used []bool) BatchSource {
	om := s.EnableMetrics(ctx.Metrics)
	var names []string
	var at []int
	for j, a := range s.Attrs {
		if used[j] {
			names, at = append(names, a.Name), append(at, j)
		}
	}
	scan, err := s.rel.ScanColumnar(names, s.filters)
	if err != nil {
		panic(fmt.Sprintf("physical: opening scan of %s: %v", s.source, err))
	}
	skipped := ctx.RDD.Metrics().Counter(s.source + ".groups.skipped")
	pruned := ctx.RDD.Metrics().Counter(s.source + ".rows.pruned")
	fallback := ctx.RDD.Metrics().Counter("vec.fallback.rows")
	return BatchSource{NumPartitions: scan.NumPartitions, PartitionBytes: scan.PartitionBytes, Batches: func(_ context.Context, p int, _ *expr.Scratch, fn func(datasource.Batch)) error {
		batches, stats := scan.Partition(p)
		skipped.Add(int64(stats.GroupsSkipped))
		pruned.Add(int64(stats.RowsPruned))
		fallback.Add(int64(stats.FallbackRows))
		read := stats.RowsRead // what the batches were decoded from, counted with the first
		out := make([]*columnar.Vector, len(used))
		for _, b := range batches {
			om.RecordBatch(read, b.N)
			read = 0
			for k, j := range at {
				out[j] = b.Cols[k]
			}
			b.Cols = out
			fn(b)
		}
		return nil
	}}
}

// InMemoryScanExec scans the columnar cache with optional column pruning
// and batch skipping (paper §3.6). Unlike the other leaves it is a concrete
// struct rather than a closure-configured ScanExec: its row path and its
// batch path share the table, the pruning and the batch-skipping predicate.
type InMemoryScanExec struct {
	PlanEstimate
	PlanMetrics
	Attrs []*expr.AttributeReference
	Table *columnar.CachedTable
	// Ordinals maps each output position to its cached column (nil = all
	// columns in schema order).
	Ordinals []int
	// Keep skips batches by min/max statistics (nil = keep all).
	Keep columnar.BatchPredicate
}

// NewInMemoryScan builds a columnar cache scan.
func NewInMemoryScan(attrs []*expr.AttributeReference, table *columnar.CachedTable,
	ordinals []int, keep columnar.BatchPredicate) *InMemoryScanExec {
	return &InMemoryScanExec{Attrs: attrs, Table: table, Ordinals: ordinals, Keep: keep}
}

func (s *InMemoryScanExec) Children() []SparkPlan { return nil }
func (s *InMemoryScanExec) WithNewChildren(children []SparkPlan) SparkPlan {
	return s
}
func (s *InMemoryScanExec) Output() []*expr.AttributeReference { return s.Attrs }
func (s *InMemoryScanExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	table, ordinals, keep := s.Table, s.Ordinals, s.Keep
	om := s.EnableMetrics(ctx.Metrics)
	return rdd.Generate(ctx.RDD, "cacheScan", len(table.Partitions), func(p int) []row.Row {
		t0 := time.Now()
		out := table.ScanPartition(p, ordinals, keep)
		om.RecordPartition(len(out), time.Since(t0))
		return out
	})
}

// OpenBatches implements BatchScan: each kept cache batch decodes its used
// columns once, into the task scratch's Decoder, and every row is selected.
func (s *InMemoryScanExec) OpenBatches(ctx *ExecContext, used []bool) BatchSource {
	om := s.EnableMetrics(ctx.Metrics)
	// Map each output position to the cached column to decode (-1 when no
	// consumer references it) and its type.
	ords := make([]int, len(s.Attrs))
	colTypes := make([]types.DataType, len(s.Attrs))
	for j := range s.Attrs {
		ord := j
		if s.Ordinals != nil {
			ord = s.Ordinals[j]
		}
		colTypes[j] = s.Table.Schema.Fields[ord].Type
		if used[j] {
			ords[j] = ord
		} else {
			ords[j] = -1
		}
	}
	// Every batch selects all of its rows: one identity selection, as long
	// as the longest batch, serves them all.
	ident := identitySel(s.Table.LongestBatch)
	return BatchSource{NumPartitions: len(s.Table.Partitions), PartitionBytes: s.Table.PartBytes, Batches: func(_ context.Context, p int, sc *expr.Scratch, fn func(datasource.Batch)) error {
		for _, b := range s.Table.Partitions[p] {
			if s.Keep != nil && !s.Keep(b.Stats) {
				continue
			}
			om.RecordBatch(b.NumRows, b.NumRows)
			fn(datasource.Batch{Cols: sc.Decoder.Decode(b, colTypes, ords), N: b.NumRows, Sel: ident[:b.NumRows:b.NumRows]})
		}
		return nil
	}}
}
func (s *InMemoryScanExec) SimpleString() string {
	if s.Ordinals != nil {
		return fmt.Sprintf("Scan InMemoryColumnar %s ordinals=%v", attrsString(s.Attrs), s.Ordinals)
	}
	return fmt.Sprintf("Scan InMemoryColumnar %s", attrsString(s.Attrs))
}
func (s *InMemoryScanExec) String() string { return Format(s) }
