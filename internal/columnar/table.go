package columnar

import (
	"repro/internal/row"
	"repro/internal/stats"
	"repro/internal/types"
)

// DefaultBatchSize is the rows-per-batch granularity of the cache (and of
// batch-skipping statistics).
const DefaultBatchSize = 4096

// Batch is a horizontal slice of a cached partition stored column-wise.
type Batch struct {
	NumRows int
	Cols    []Column
	Stats   []ColStats
}

// SizeBytes is the batch's encoded footprint.
func (b *Batch) SizeBytes() int64 {
	var s int64
	for _, c := range b.Cols {
		s += c.SizeBytes()
	}
	return s
}

// Row materializes row i of the batch (all columns).
func (b *Batch) Row(i int) row.Row {
	r := make(row.Row, len(b.Cols))
	for j, c := range b.Cols {
		r[j] = c.Get(i)
	}
	return r
}

// RowPruned materializes row i restricted to the given column ordinals —
// the columnar win: untouched columns are never decoded.
func (b *Batch) RowPruned(i int, ordinals []int) row.Row {
	r := make(row.Row, len(ordinals))
	for j, ord := range ordinals {
		r[j] = b.Cols[ord].Get(i)
	}
	return r
}

// CachedTable is a cached DataFrame: per-partition batch lists. It is
// immutable once built.
type CachedTable struct {
	Schema     types.StructType
	Partitions [][]*Batch
	// PartBytes is each partition's encoded footprint and LongestBatch the row
	// count of the longest batch: what a scan needs on every execution,
	// measured once by whoever assembles Partitions.
	PartBytes    []int64
	LongestBatch int
	// Stats are table-level statistics (row count, size, per-column
	// min/max/NDV/null counts/widths) collected as a side effect of the
	// build — the cheap collection path of the cost-based optimizer.
	Stats *stats.Table
}

// BuildTable encodes partitioned rows into a cached table, collecting
// per-column statistics along the way (the column values are already in
// hand for encoding, so collection costs one extra pass per batch column).
func BuildTable(schema types.StructType, partitions [][]row.Row, batchSize int) *CachedTable {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	t := &CachedTable{Schema: schema, Partitions: make([][]*Batch, len(partitions)), PartBytes: make([]int64, len(partitions))}
	acc := stats.NewCollector(schema)
	for p, rows := range partitions {
		for lo := 0; lo < len(rows); lo += batchSize {
			hi := min(lo+batchSize, len(rows))
			b := buildBatch(schema, rows[lo:hi], acc)
			t.Partitions[p] = append(t.Partitions[p], b)
			t.PartBytes[p] += b.SizeBytes()
			t.LongestBatch = max(t.LongestBatch, b.NumRows)
		}
	}
	t.Stats = acc.Finish(t.SizeBytes())
	return t
}

func buildBatch(schema types.StructType, rows []row.Row, acc *stats.Collector) *Batch {
	b := &Batch{
		NumRows: len(rows),
		Cols:    make([]Column, len(schema.Fields)),
		Stats:   make([]ColStats, len(schema.Fields)),
	}
	acc.AddRowCount(int64(len(rows)))
	col := make([]any, len(rows))
	for j, f := range schema.Fields {
		for i, r := range rows {
			col[i] = r[j]
		}
		acc.AddValues(j, col)
		b.Cols[j], b.Stats[j] = buildColumn(f.Type, col)
	}
	return b
}

// SizeBytes is the whole table's encoded footprint.
func (t *CachedTable) SizeBytes() int64 {
	var s int64
	for _, b := range t.PartBytes {
		s += b
	}
	return s
}

// RowCount is the total number of cached rows.
func (t *CachedTable) RowCount() int64 {
	var n int64
	for _, part := range t.Partitions {
		for _, b := range part {
			n += int64(b.NumRows)
		}
	}
	return n
}

// BatchPredicate decides from column statistics whether a batch may contain
// matching rows; physical scans use it to skip batches.
type BatchPredicate func(stats []ColStats) bool

// ScanPartition materializes the rows of partition p, restricted to the
// given ordinals (nil = all columns) and skipping batches rejected by keep
// (nil = keep all).
func (t *CachedTable) ScanPartition(p int, ordinals []int, keep BatchPredicate) []row.Row {
	var out []row.Row
	for _, b := range t.Partitions[p] {
		if keep != nil && !keep(b.Stats) {
			continue
		}
		for i := 0; i < b.NumRows; i++ {
			if ordinals == nil {
				out = append(out, b.Row(i))
			} else {
				out = append(out, b.RowPruned(i, ordinals))
			}
		}
	}
	return out
}

// Encodings reports the encoding of each column in the first batch of the
// first non-empty partition — used by EXPLAIN output and tests.
func (t *CachedTable) Encodings() []string {
	for _, part := range t.Partitions {
		if len(part) > 0 {
			out := make([]string, len(part[0].Cols))
			for i, c := range part[0].Cols {
				out[i] = c.Encoding()
			}
			return out
		}
	}
	return nil
}
