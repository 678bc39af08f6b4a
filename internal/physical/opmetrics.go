package physical

import (
	"strconv"
	"sync/atomic"
	"time"
)

// OperatorMetrics accumulates the runtime counters of one physical operator
// while its tasks execute: rows and batches produced, wall time spent inside
// the operator's partition closures, and build-side size for joins. All
// fields are atomics because partitions run concurrently; all methods are
// nil-safe so call sites stay unconditional when instrumentation is off.
//
// Operators record per partition (or per batch), never per row, which keeps
// the cost to a handful of atomic adds per task — cheap enough to leave on
// by default (see BenchmarkMetricsOverhead).
type OperatorMetrics struct {
	OutputRows atomic.Int64 // rows the operator produced
	Partitions atomic.Int64 // partition closures observed
	Batches    atomic.Int64 // columnar batches scanned (vectorized path)
	Decoded    atomic.Int64 // rows decoded into those batches (batch scans)
	WallNanos  atomic.Int64 // summed wall time inside the operator's closures
	BuildRows  atomic.Int64 // build-side rows collected (joins)
	BuildBytes atomic.Int64 // estimated build-side bytes (joins)
	SpillBytes atomic.Int64 // bytes written to spill files
	SpillRuns  atomic.Int64 // spill events (sorted runs / hash-partition flushes)
	InputRows  atomic.Int64 // rows a top-K read
	KeptRows   atomic.Int64 // rows its per-partition heaps kept for the merge
	Groups     atomic.Int64 // groups in its group tables: an aggregate's partial groups, a join's distinct build keys
	Grows      atomic.Int64 // times those tables (and an aggregate's reducers') doubled their slots
	Skipped    atomic.Int64 // an aggregate's map tasks that stopped partial aggregation
	Passed     atomic.Int64 // rows those tasks passed through as one-row partials
	// Table names the key comparison a hash join's group table runs (i64, str,
	// pair or generic), Build how a fused join collected its build side
	// ("lanes", or "boxed: " and why), Emits what a fused join hands its
	// consumer (rows or batches). Execute sets them before any task runs.
	Table, Build, Emits string
	// RunPartitions and Runs are set on a batch leaf whose partitions the
	// pipeline cut into fewer tasks: how many partitions, in how many runs.
	RunPartitions, Runs int32
}

// RecordPartition records one partition's output and elapsed wall time.
func (m *OperatorMetrics) RecordPartition(rows int, elapsed time.Duration) {
	if m == nil {
		return
	}
	m.OutputRows.Add(int64(rows))
	m.Partitions.Add(1)
	m.WallNanos.Add(elapsed.Nanoseconds())
}

// RecordBatch records one columnar batch a scan handed over: the rows it
// decoded into the batch, and those of them its own filters selected.
func (m *OperatorMetrics) RecordBatch(decoded, selected int) {
	if m == nil {
		return
	}
	m.Batches.Add(1)
	m.Decoded.Add(int64(decoded))
	m.OutputRows.Add(int64(selected))
}

// RecordBuild records a join's materialized build side.
func (m *OperatorMetrics) RecordBuild(rows int, bytes int64) {
	if m == nil {
		return
	}
	m.BuildRows.Add(int64(rows))
	m.BuildBytes.Add(bytes)
}

// RecordTable records a finished group table: its groups (an aggregate's
// reducers pass none: theirs are the output rows) and how often it grew.
func (m *OperatorMetrics) RecordTable(groups, grows int) {
	if m == nil {
		return
	}
	m.Groups.Add(int64(groups))
	m.Grows.Add(int64(grows))
}

// RecordSpill records bytes written to spill files over some number of
// spill events (sorted runs or aggregation partition flushes).
func (m *OperatorMetrics) RecordSpill(bytes int64, runs int64) {
	if m == nil || runs == 0 {
		return
	}
	m.SpillBytes.Add(bytes)
	m.SpillRuns.Add(runs)
}

// ActualString renders the EXPLAIN ANALYZE annotation, the runtime
// counterpart of plan.Statistics.EstString.
func (m *OperatorMetrics) ActualString() string {
	var buf [192]byte // the string is the one allocation
	b := appendNum(buf[:0], "actual: ", m.OutputRows.Load())
	b = strconv.AppendFloat(append(b, " rows, "...), float64(m.WallNanos.Load())/1e6, 'f', 1, 64)
	b = append(b, " ms"...)
	if n := m.BuildRows.Load(); n > 0 {
		b = append(appendNum(b, ", build=", n), " rows"...)
		b = appendNote(appendNote(b, ", ", m.Build), ", table=", m.Table)
	}
	// build= says it all when a join's build keys are distinct and non-NULL;
	// a reducer's tables hold no partial groups, only doublings.
	if g, w := m.Groups.Load(), m.Grows.Load(); g > 0 && (g != m.BuildRows.Load() || w > 0) {
		b = appendNum(appendNum(b, ", groups=", g), " grows=", w)
	} else if g == 0 && w > 0 {
		b = appendNum(b, ", grows=", w)
	}
	if n := m.Skipped.Load(); n > 0 {
		b = append(appendNum(appendNum(b, ", partial skipped in ", n), " tasks, ", m.Passed.Load()), " rows passed through"...)
	}
	b = appendNote(b, ", emits ", m.Emits)
	if in := m.InputRows.Load(); in > 0 {
		b = append(appendNum(appendNum(b, ", ", in), " rows in, ", m.KeptRows.Load()), " kept"...)
	}
	if n := m.Batches.Load(); n > 0 {
		b = append(appendNum(b, ", ", n), " batches"...)
	}
	if d := m.Decoded.Load(); d > 0 {
		b = append(appendNum(b, ", ", d), " rows decoded"...)
	}
	if r := m.SpillRuns.Load(); r > 0 {
		b = append(appendNum(appendNum(b, ", spilled: ", m.SpillBytes.Load()), " B, ", r), " runs"...)
	}
	if m.Runs > 0 {
		b = append(appendNum(appendNum(b, ", tasks: ", int64(m.RunPartitions)), " partitions in ", int64(m.Runs)), " runs"...)
	}
	return string(b)
}

func appendNum(b []byte, prefix string, n int64) []byte {
	return strconv.AppendInt(append(b, prefix...), n, 10)
}

// appendNote appends a set string after its prefix.
func appendNote(b []byte, prefix, s string) []byte {
	if s == "" {
		return b
	}
	return append(append(b, prefix...), s...)
}

// PlanMetrics carries runtime metrics on a physical operator, mirroring
// PlanEstimate: operators embed it, Execute lazily attaches an
// OperatorMetrics when the ExecContext has metrics enabled, and EXPLAIN
// ANALYZE reads it back through Runtime after the query ran.
//
// The embed holds a plain pointer (not the atomics themselves) so the
// WithNewChildren copy idiom (c := *n) stays vet-clean, and so copies made
// after Execute share the same counters as the executed tree. Execute runs
// single-threaded during plan building, which is what makes the lazy
// allocation below safe without locking.
type PlanMetrics struct {
	m *OperatorMetrics
}

// EnableMetrics returns the operator's metrics, allocating them on first
// use, or nil when enabled is false (every OperatorMetrics method accepts
// a nil receiver). Operators call this at the top of Execute.
func (p *PlanMetrics) EnableMetrics(enabled bool) *OperatorMetrics {
	if !enabled {
		return nil
	}
	if p.m == nil {
		p.m = &OperatorMetrics{}
	}
	return p.m
}

// Runtime returns the recorded metrics, or nil if the operator never ran
// with instrumentation enabled.
func (p *PlanMetrics) Runtime() *OperatorMetrics { return p.m }

// MetricsAnnotated is implemented by physical operators that carry runtime
// metrics (all built-in operators, via PlanMetrics).
type MetricsAnnotated interface {
	Runtime() *OperatorMetrics
}
