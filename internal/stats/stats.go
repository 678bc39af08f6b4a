// Package stats implements table- and column-level statistics for
// cost-based optimization (paper §4.3.3: "costs can be estimated
// recursively for a whole tree"; Spark's later CBO work and Calcite's
// metadata layer are the models). Statistics are collected in one of two
// ways: cheaply as a side effect of columnar cache materialization, or on
// demand by ANALYZE TABLE scanning any data source. The planner consumes
// them through plan.Stats to derive predicate selectivities, join
// cardinalities and shuffle partition counts.
package stats

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/row"
	"repro/internal/types"
)

// Column holds per-column statistics.
type Column struct {
	// Min and Max are the extreme non-NULL values (nil = unknown/empty).
	Min, Max any
	// NullCount counts NULL values.
	NullCount int64
	// NDV estimates the number of distinct non-NULL values (0 = unknown).
	NDV int64
	// AvgWidth is the average flat width of a value in bytes (0 = unknown).
	AvgWidth float64
}

// Table holds statistics for one relation, columns keyed by lower-cased
// column name.
type Table struct {
	RowCount    int64
	SizeInBytes int64
	Columns     map[string]*Column
}

// String renders the table stats deterministically (for tests and the
// sqlshell).
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rows=%d size=%dB", t.RowCount, t.SizeInBytes)
	names := make([]string, 0, len(t.Columns))
	for n := range t.Columns {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := t.Columns[n]
		fmt.Fprintf(&sb, "\n  %s: ndv=%d nulls=%d min=%s max=%s avgWidth=%.1f",
			n, c.NDV, c.NullCount, row.FormatValue(c.Min), row.FormatValue(c.Max), c.AvgWidth)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Distinct-value sketch

// distinctSketch estimates NDV with Wegman's adaptive sampling: it keeps a
// bounded set of value hashes; when the set overflows, the sampling level
// rises (only hashes whose low `level` bits are zero are retained) and the
// estimate becomes len(set) << level. Exact up to maxSketchSize distinct
// values, ~2-4% error beyond.
type distinctSketch struct {
	level uint
	set   map[uint64]struct{}
}

const maxSketchSize = 1 << 12

func newDistinctSketch() *distinctSketch {
	return &distinctSketch{set: make(map[uint64]struct{})}
}

func (d *distinctSketch) Add(h uint64) {
	if h&((1<<d.level)-1) != 0 {
		return
	}
	d.set[h] = struct{}{}
	for len(d.set) > maxSketchSize {
		d.level++
		mask := uint64(1<<d.level) - 1
		for k := range d.set {
			if k&mask != 0 {
				delete(d.set, k)
			}
		}
	}
}

func (d *distinctSketch) Estimate() int64 {
	return int64(len(d.set)) << d.level
}

// ---------------------------------------------------------------------------
// Collector

// colAcc accumulates one column's statistics.
type colAcc struct {
	ordered    bool // the type has an order: min and max are tracked
	min, max   any
	nullCount  int64
	totalWidth int64
	nonNull    int64
	distinct   *distinctSketch
}

func (c *colAcc) add(v any) {
	if v == nil {
		c.nullCount++
		return
	}
	c.nonNull++
	c.totalWidth += row.FlatSize(v)
	c.distinct.Add(row.HashValue(v))
	if !c.ordered {
		return // ARRAY, MAP, STRUCT: row.Compare has no order for them
	}
	if c.min == nil || row.Compare(v, c.min) < 0 {
		c.min = v
	}
	if c.max == nil || row.Compare(v, c.max) > 0 {
		c.max = v
	}
}

func (c *colAcc) finish() *Column {
	col := &Column{
		Min:       c.min,
		Max:       c.max,
		NullCount: c.nullCount,
		NDV:       c.distinct.Estimate(),
	}
	if c.nonNull > 0 {
		col.AvgWidth = float64(c.totalWidth) / float64(c.nonNull)
	}
	return col
}

// Collector accumulates statistics for a fixed schema, fed either row by
// row (ANALYZE TABLE scans) or a column of values at a time (columnar
// cache builds). Not safe for concurrent use.
type Collector struct {
	names []string
	cols  []*colAcc
	rows  int64
}

// NewCollector builds a collector for a schema.
func NewCollector(schema types.StructType) *Collector {
	c := &Collector{
		names: make([]string, len(schema.Fields)),
		cols:  make([]*colAcc, len(schema.Fields)),
	}
	for i, f := range schema.Fields {
		c.names[i] = strings.ToLower(f.Name)
		c.cols[i] = &colAcc{ordered: types.IsOrdered(f.Type), distinct: newDistinctSketch()}
	}
	return c
}

// AddRow folds one row into every column accumulator.
func (c *Collector) AddRow(r row.Row) {
	c.rows++
	for i := range c.cols {
		if i < len(r) {
			c.cols[i].add(r[i])
		}
	}
}

// AddValues folds a slice of values into column i's accumulator without
// advancing the row count (the caller tracks rows once per batch via
// AddRowCount — columnar builds visit each column of a batch separately).
func (c *Collector) AddValues(i int, values []any) {
	for _, v := range values {
		c.cols[i].add(v)
	}
}

// AddRowCount advances the row count by n (used with AddValues).
func (c *Collector) AddRowCount(n int64) { c.rows += n }

// Finish produces the table statistics. sizeInBytes ≤ 0 derives the size
// from the accumulated value widths.
func (c *Collector) Finish(sizeInBytes int64) *Table {
	t := &Table{
		RowCount: c.rows,
		Columns:  make(map[string]*Column, len(c.cols)),
	}
	var width int64
	for i, a := range c.cols {
		col := a.finish()
		t.Columns[c.names[i]] = col
		width += a.totalWidth
	}
	if sizeInBytes > 0 {
		t.SizeInBytes = sizeInBytes
	} else {
		t.SizeInBytes = width
	}
	return t
}

// FromRows computes full statistics for a materialized row set — the
// ANALYZE TABLE path over arbitrary data sources.
func FromRows(schema types.StructType, rows []row.Row) *Table {
	c := NewCollector(schema)
	var size int64
	for _, r := range rows {
		c.AddRow(r)
		size += r.FlatSize()
	}
	return c.Finish(size)
}
