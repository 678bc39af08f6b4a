// Package colfile implements this repository's columnar file format — the
// stand-in for Parquet in the paper's evaluation (§6.1 stores the benchmark
// dataset as compressed columnar Parquet). Files hold row groups of
// column chunks with per-chunk min/max statistics; readers support column
// pruning (only requested chunks are decoded) and filter pushdown with
// row-group skipping. Filters are evaluated exactly, so the engine drops
// residual predicates (ExactFilterScan).
//
// The primary read path is the batch scan (datasource.ColumnarScan): chunks
// decode into typed column vectors and the pushed filters run on those
// lanes, so no value is boxed inside this package. The row scan is the
// batch scan with the surviving rows boxed.
//
// A Relation holds the file's bytes for as long as it lives and never
// modifies them. Every string a scan or StringColumn returns aliases those
// bytes instead of copying them: decoding a string allocates nothing, and
// any retained string keeps the whole file image reachable.
//
// A STRING chunk stores its values as length-prefixed bytes. Open walks
// those prefixes once, as it must to find where the chunk ends, and keeps
// each value's offset in an index, so a scan reaches any row's string in
// constant time rather than by walking the prefixes in front of it. The
// index costs 4 bytes of memory per stored string for as long as the
// Relation lives, and the file format does not carry it. Because the
// offsets are 32-bit, a STRING chunk of 4 GiB or more is refused by both
// Write and Open; a smaller row group splits such a column.
package colfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/row"
	"repro/internal/types"
)

var magic = [4]byte{'G', 'C', 'F', '1'}

// DefaultRowGroupSize is the writer's default rows-per-group.
const DefaultRowGroupSize = 1 << 16

// maxStringChunk is the largest STRING value block, length prefixes
// included, that Write writes and Open accepts: the offset index Open builds
// holds its end in a uint32.
var maxStringChunk int64 = math.MaxUint32

var errStringChunk = fmt.Errorf("a STRING column chunk holds more than %d bytes; write smaller row groups", maxStringChunk)

// type tags in the file format.
const (
	tagBool byte = iota + 1
	tagInt
	tagLong
	tagDouble
	tagString
	tagDate
	tagTimestamp
)

func tagOf(t types.DataType) (byte, error) {
	switch {
	case t.Equals(types.Boolean):
		return tagBool, nil
	case t.Equals(types.Int):
		return tagInt, nil
	case t.Equals(types.Long):
		return tagLong, nil
	case t.Equals(types.Double):
		return tagDouble, nil
	case t.Equals(types.String):
		return tagString, nil
	case t.Equals(types.Date):
		return tagDate, nil
	case t.Equals(types.Timestamp):
		return tagTimestamp, nil
	}
	return 0, fmt.Errorf("unsupported column type %s", t.Name())
}

func typeOf(tag byte) (types.DataType, error) {
	switch tag {
	case tagBool:
		return types.Boolean, nil
	case tagInt:
		return types.Int, nil
	case tagLong:
		return types.Long, nil
	case tagDouble:
		return types.Double, nil
	case tagString:
		return types.String, nil
	case tagDate:
		return types.Date, nil
	case tagTimestamp:
		return types.Timestamp, nil
	}
	return nil, fmt.Errorf("colfile: unknown type tag %d", tag)
}

// Write writes rows to path with the given schema and row-group size.
func Write(path string, schema types.StructType, rows []row.Row, rowGroupSize int) error {
	if rowGroupSize <= 0 {
		rowGroupSize = DefaultRowGroupSize
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("colfile: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := writeAll(w, schema, rows, rowGroupSize); err != nil {
		f.Close()
		return fmt.Errorf("colfile: %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("colfile: %w", err)
	}
	return f.Close()
}

func writeAll(w io.Writer, schema types.StructType, rows []row.Row, rowGroupSize int) error {
	if len(schema.Fields) == 0 {
		// Rows without columns would take no bytes; Open rejects them.
		return fmt.Errorf("schema has no columns")
	}
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	// Schema block.
	writeU32(w, uint32(len(schema.Fields)))
	for _, f := range schema.Fields {
		tag, err := tagOf(f.Type)
		if err != nil {
			return err
		}
		writeString(w, f.Name)
		writeByte(w, tag)
		if f.Nullable {
			writeByte(w, 1)
		} else {
			writeByte(w, 0)
		}
	}
	// Row groups.
	numGroups := (len(rows) + rowGroupSize - 1) / rowGroupSize
	writeU32(w, uint32(numGroups))
	for g := 0; g < numGroups; g++ {
		lo := g * rowGroupSize
		hi := min(lo+rowGroupSize, len(rows))
		if err := writeGroup(w, schema, rows[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

func writeGroup(w io.Writer, schema types.StructType, rows []row.Row) error {
	writeU32(w, uint32(len(rows)))
	for j, f := range schema.Fields {
		if err := writeChunk(w, f.Type, rows, j); err != nil {
			return err
		}
	}
	return nil
}

// writeChunk encodes one column chunk: null bitmap, min/max stats, values.
func writeChunk(w io.Writer, t types.DataType, rows []row.Row, col int) error {
	n := len(rows)
	bitmap := make([]byte, (n+7)/8)
	var mn, mx any
	var size int64 // a STRING chunk's value block
	for i, r := range rows {
		v := r[col]
		if v == nil {
			continue
		}
		if s, ok := v.(string); ok {
			size += 4 + int64(len(s))
		}
		bitmap[i/8] |= 1 << (uint(i) % 8)
		if mn == nil || row.Compare(v, mn) < 0 {
			mn = v
		}
		if mx == nil || row.Compare(v, mx) > 0 {
			mx = v
		}
	}
	if size > maxStringChunk {
		return errStringChunk
	}
	if _, err := w.Write(bitmap); err != nil {
		return err
	}
	if err := writeStat(w, t, mn); err != nil {
		return err
	}
	if err := writeStat(w, t, mx); err != nil {
		return err
	}
	for _, r := range rows {
		v := r[col]
		if v == nil {
			continue
		}
		if err := writeValue(w, t, v); err != nil {
			return err
		}
	}
	return nil
}

func writeStat(w io.Writer, t types.DataType, v any) error {
	if v == nil {
		writeByte(w, 0)
		return nil
	}
	writeByte(w, 1)
	return writeValue(w, t, v)
}

func writeValue(w io.Writer, t types.DataType, v any) error {
	switch {
	case t.Equals(types.Boolean):
		if v.(bool) {
			writeByte(w, 1)
		} else {
			writeByte(w, 0)
		}
	case t.Equals(types.Int), t.Equals(types.Date):
		writeU32(w, uint32(v.(int32)))
	case t.Equals(types.Long), t.Equals(types.Timestamp):
		writeU64(w, uint64(v.(int64)))
	case t.Equals(types.Double):
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.(float64)))
		_, err := w.Write(buf[:])
		return err
	case t.Equals(types.String):
		writeString(w, v.(string))
	default:
		return fmt.Errorf("unsupported value type %T", v)
	}
	return nil
}

func writeByte(w io.Writer, b byte) { w.Write([]byte{b}) }
func writeU32(w io.Writer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}
func writeU64(w io.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}
func writeString(w io.Writer, s string) {
	writeU32(w, uint32(len(s)))
	io.WriteString(w, s)
}
