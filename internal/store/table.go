// Tables and MVCC versions. A table's data is a list of immutable columnar
// segments; every committed transaction publishes a fresh version — a new
// segment list and a new InMemoryRelation over it — and swaps it into the
// catalog. Versions already pinned by planned queries keep their old
// segment lists untouched, which is the whole snapshot-isolation story:
// readers never lock, writers never wait for readers, and a query planned
// before a concurrent UPDATE/DELETE reads byte-identical pre-write data.
package store

import (
	"fmt"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/row"
	"repro/internal/stats"
	"repro/internal/types"
)

// Segment is an immutable run of rows stored as columnar batches — the
// unit of copy-on-write. INSERT appends one; DELETE/UPDATE rewrite only
// the segments holding affected rows and share the rest with the previous
// version.
type Segment struct {
	ID      int64
	Batches []*columnar.Batch
	Rows    int64
	Bytes   int64
	// longest is the row count of the longest batch.
	longest int
}

// newSegment encodes rows into a segment (empty rows yield a segment with
// no batches; callers avoid creating those).
func newSegment(id int64, schema types.StructType, rows []row.Row) *Segment {
	ct := columnar.BuildTable(schema, [][]row.Row{rows}, 0)
	return &Segment{ID: id, Batches: ct.Partitions[0], Rows: int64(len(rows)), Bytes: ct.PartBytes[0], longest: ct.LongestBatch}
}

// decode materializes the segment's rows in order.
func (g *Segment) decode() []row.Row {
	out := make([]row.Row, 0, g.Rows)
	for _, b := range g.Batches {
		for i := 0; i < b.NumRows; i++ {
			out = append(out, b.Row(i))
		}
	}
	return out
}

// Table is one persistent table's mutable head state; all fields are
// guarded by the store mutex except rel, which is immutable once built.
type Table struct {
	Name   string
	Schema types.StructType

	ver     int64 // bumps on every committed transaction
	segs    []*Segment
	nextSeg int64

	// rel is the current version's scan plan — what the catalog registers
	// and queries pin. relStats/relRows/relBytes are its optimizer-visible
	// statistics, refreshed only when the row delta since the last refresh
	// crosses the store's threshold (or on ANALYZE), so the CBO's view can
	// lag the data by design.
	rel       *plan.InMemoryRelation
	relStats  *stats.Table
	relRows   int64
	relBytes  int64
	statsRows int64 // live row count at the last stats refresh
}

// liveCounts returns the actual (not stats-epoch) row and byte totals.
func (t *Table) liveCounts() (rows, bytes int64) {
	for _, g := range t.segs {
		rows += g.Rows
		bytes += g.Bytes
	}
	return
}

// allRows decodes every live row in segment order.
func (t *Table) allRows() []row.Row {
	rows, _ := t.liveCounts()
	out := make([]row.Row, 0, rows)
	for _, g := range t.segs {
		out = append(out, g.decode()...)
	}
	return out
}

// buildRel constructs the version's InMemoryRelation: one cached-table
// partition per segment, fresh attribute IDs (each version is a distinct
// plan leaf), and the stats-epoch statistics.
func (t *Table) buildRel() *plan.InMemoryRelation {
	table := &columnar.CachedTable{Schema: t.Schema, Stats: t.relStats,
		Partitions: make([][]*columnar.Batch, len(t.segs)), PartBytes: make([]int64, len(t.segs))}
	for i, g := range t.segs {
		table.Partitions[i], table.PartBytes[i] = g.Batches, g.Bytes
		table.LongestBatch = max(table.LongestBatch, g.longest)
	}
	attrs := make([]*expr.AttributeReference, len(t.Schema.Fields))
	for i, f := range t.Schema.Fields {
		attrs[i] = expr.NewAttribute(f.Name, f.Type, f.Nullable)
	}
	return &plan.InMemoryRelation{
		Attrs:       attrs,
		Table:       table,
		SizeInBytes: t.relBytes,
		RowCount:    t.relRows,
		TableStats:  t.relStats,
		Origin:      t.Name,
	}
}

// validateRow type-checks one row against the schema: arity, NOT NULL
// constraints and Go representation per column. The SQL path casts values
// into shape before they get here; this guards direct API callers.
func validateRow(schema types.StructType, r row.Row) error {
	if len(r) != len(schema.Fields) {
		return fmt.Errorf("store: row has %d values, table has %d columns", len(r), len(schema.Fields))
	}
	for i, f := range schema.Fields {
		v := r[i]
		if v == nil {
			if !f.Nullable {
				return fmt.Errorf("store: NULL in non-nullable column %q", f.Name)
			}
			continue
		}
		if !valueFits(v, f.Type) {
			return fmt.Errorf("store: column %q: value %v (%T) does not fit %s", f.Name, v, v, f.Type.Name())
		}
	}
	return nil
}

func valueFits(v any, t types.DataType) bool {
	switch t {
	case types.Int, types.Date:
		_, ok := v.(int32)
		return ok
	case types.Long, types.Timestamp:
		_, ok := v.(int64)
		return ok
	case types.Float:
		_, ok := v.(float32)
		return ok
	case types.Double:
		_, ok := v.(float64)
		return ok
	case types.String:
		_, ok := v.(string)
		return ok
	case types.Boolean:
		_, ok := v.(bool)
		return ok
	}
	if _, ok := t.(types.DecimalType); ok {
		_, ok := v.(types.Decimal)
		return ok
	}
	return false
}

// ---------------------------------------------------------------------------
// Schema and payload (de)serialization. WAL payloads and the manifest carry
// schemas as (name, type-name, nullable) triples using the row codec; type
// names are the SQL spellings DESCRIBE prints.

// columnType reads a storable column type back from its name: every type a
// name parses to except NULL and BINARY, which no segment encodes.
func columnType(name string) (types.DataType, error) {
	t, ok := types.ParseName(name)
	if !ok || t.Equals(types.Null) || t.Equals(types.Binary) {
		return nil, fmt.Errorf("store: unsupported column type %q", name)
	}
	return t, nil
}

func encodeCreate(name string, schema types.StructType) ([]byte, error) {
	rows := make([]row.Row, 0, 1+len(schema.Fields))
	rows = append(rows, row.Row{name})
	for _, f := range schema.Fields {
		rows = append(rows, row.Row{f.Name, f.Type.Name(), f.Nullable})
	}
	return row.EncodeRows(rows)
}

func decodeCreate(payload []byte) (string, types.StructType, error) {
	rows, err := row.DecodeRows(payload)
	if err != nil || len(rows) < 1 || len(rows[0]) < 1 {
		return "", types.StructType{}, fmt.Errorf("store: bad create payload: %v", err)
	}
	name, _ := rows[0][0].(string)
	fields := make([]types.StructField, 0, len(rows)-1)
	for _, r := range rows[1:] {
		if len(r) != 3 {
			return "", types.StructType{}, fmt.Errorf("store: bad create column row")
		}
		cn, _ := r[0].(string)
		tn, _ := r[1].(string)
		nullable, _ := r[2].(bool)
		dt, err := columnType(tn)
		if err != nil {
			return "", types.StructType{}, err
		}
		fields = append(fields, types.StructField{Name: cn, Type: dt, Nullable: nullable})
	}
	return name, types.StructType{Fields: fields}, nil
}

func encodeDrop(name string) ([]byte, error) {
	return row.EncodeRows([]row.Row{{name}})
}

func decodeDrop(payload []byte) (string, error) {
	rows, err := row.DecodeRows(payload)
	if err != nil || len(rows) != 1 || len(rows[0]) < 1 {
		return "", fmt.Errorf("store: bad drop payload: %v", err)
	}
	name, _ := rows[0][0].(string)
	return name, nil
}

func encodeInsert(name string, segID int64, data []row.Row) ([]byte, error) {
	rows := make([]row.Row, 0, 1+len(data))
	rows = append(rows, row.Row{name, segID})
	rows = append(rows, data...)
	return row.EncodeRows(rows)
}

func decodeInsert(payload []byte) (string, int64, []row.Row, error) {
	rows, err := row.DecodeRows(payload)
	if err != nil || len(rows) < 1 || len(rows[0]) < 2 {
		return "", 0, nil, fmt.Errorf("store: bad insert payload: %v", err)
	}
	name, _ := rows[0][0].(string)
	segID, _ := rows[0][1].(int64)
	return name, segID, rows[1:], nil
}

// encodeDelete logs one segment rewrite: drop the rows at offsets from
// segment oldID; the survivors become segment newID (-1 = none survive).
func encodeDelete(name string, oldID, newID int64, offsets []int) ([]byte, error) {
	offs := make([]any, len(offsets))
	for i, o := range offsets {
		offs[i] = int64(o)
	}
	return row.EncodeRows([]row.Row{{name, oldID, newID, offs}})
}

func decodeDelete(payload []byte) (name string, oldID, newID int64, offsets []int, err error) {
	rows, derr := row.DecodeRows(payload)
	if derr != nil || len(rows) != 1 || len(rows[0]) != 4 {
		return "", 0, 0, nil, fmt.Errorf("store: bad delete payload: %v", derr)
	}
	name, _ = rows[0][0].(string)
	oldID, _ = rows[0][1].(int64)
	newID, _ = rows[0][2].(int64)
	raw, _ := rows[0][3].([]any)
	offsets = make([]int, len(raw))
	for i, v := range raw {
		o, ok := v.(int64)
		if !ok {
			return "", 0, 0, nil, fmt.Errorf("store: bad delete offset %T", v)
		}
		offsets[i] = int(o)
	}
	return name, oldID, newID, offsets, nil
}
