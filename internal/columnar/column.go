// Package columnar implements the in-memory columnar cache (paper §3.6):
// cached DataFrames are stored column-wise with lightweight compression —
// dictionary encoding, run-length encoding and boolean bit-packing — which
// cuts the footprint by an order of magnitude versus boxed row objects, and
// keeps per-batch min/max statistics so scans can skip batches.
package columnar

import (
	"fmt"

	"repro/internal/row"
	"repro/internal/types"
)

// Column is an immutable encoded column of one batch.
type Column interface {
	// Len returns the number of values (including NULLs).
	Len() int
	// Get decodes the value at i (nil for NULL).
	Get(i int) any
	// SizeBytes is the encoded in-memory footprint.
	SizeBytes() int64
	// Encoding names the chosen encoding, for EXPLAIN and tests.
	Encoding() string
}

// validity is a null bitmap; nil means "no nulls".
type validity []uint64

func newValidity(n int) validity { return make(validity, (n+63)/64) }

func (v validity) set(i int)      { v[i/64] |= 1 << (uint(i) % 64) }
func (v validity) get(i int) bool { return v == nil || v[i/64]&(1<<(uint(i)%64)) != 0 }
func (v validity) sizeBytes() int64 {
	return int64(len(v)) * 8
}

// ---------------------------------------------------------------------------
// Plain typed columns

type longColumn struct {
	data  []int64
	valid validity
	width int // 4 for INT/DATE, 8 for BIGINT/TIMESTAMP
	out   func(int64) any
}

func (c *longColumn) Len() int { return len(c.data) }
func (c *longColumn) Get(i int) any {
	if !c.valid.get(i) {
		return nil
	}
	return c.out(c.data[i])
}
func (c *longColumn) SizeBytes() int64 {
	return int64(len(c.data)*c.width) + c.valid.sizeBytes()
}
func (c *longColumn) Encoding() string { return "PLAIN" }

type doubleColumn struct {
	data  []float64
	valid validity
}

func (c *doubleColumn) Len() int { return len(c.data) }
func (c *doubleColumn) Get(i int) any {
	if !c.valid.get(i) {
		return nil
	}
	return c.data[i]
}
func (c *doubleColumn) SizeBytes() int64 { return int64(len(c.data)*8) + c.valid.sizeBytes() }
func (c *doubleColumn) Encoding() string { return "PLAIN" }

type boolColumn struct {
	bits  []uint64
	valid validity
	n     int
}

func (c *boolColumn) Len() int { return c.n }
func (c *boolColumn) Get(i int) any {
	if !c.valid.get(i) {
		return nil
	}
	return c.bits[i/64]&(1<<(uint(i)%64)) != 0
}
func (c *boolColumn) SizeBytes() int64 { return int64(len(c.bits))*8 + c.valid.sizeBytes() }
func (c *boolColumn) Encoding() string { return "BITPACK" }

// stringColumn keeps a batch's strings back to back in one immutable string,
// built once when the batch is cached: value i is data[offsets[i]:offsets[i+1]],
// so Get and the decode return substrings and copy no cell. A cell kept by
// a consumer keeps the whole of data reachable, as a colfile string keeps its
// file image.
type stringColumn struct {
	offsets []int32
	data    string
	valid   validity
}

func (c *stringColumn) Len() int { return len(c.offsets) - 1 }
func (c *stringColumn) Get(i int) any {
	if !c.valid.get(i) {
		return nil
	}
	return c.data[c.offsets[i]:c.offsets[i+1]]
}
func (c *stringColumn) SizeBytes() int64 {
	return int64(len(c.data)) + int64(len(c.offsets)*4) + c.valid.sizeBytes()
}
func (c *stringColumn) Encoding() string { return "PLAIN" }

// ---------------------------------------------------------------------------
// Dictionary encoding (paper §3.6 names dictionary encoding explicitly)

type dictColumn struct {
	dict  []any   // distinct values
	codes []int32 // -1 for NULL
	// dictBytes is the footprint of the dictionary values.
	dictBytes int64
}

func (c *dictColumn) Len() int { return len(c.codes) }
func (c *dictColumn) Get(i int) any {
	code := c.codes[i]
	if code < 0 {
		return nil
	}
	return c.dict[code]
}
func (c *dictColumn) SizeBytes() int64 {
	codeWidth := int64(4)
	if len(c.dict) <= 1<<8 {
		codeWidth = 1
	} else if len(c.dict) <= 1<<16 {
		codeWidth = 2
	}
	return c.dictBytes + int64(len(c.codes))*codeWidth
}
func (c *dictColumn) Encoding() string { return "DICT" }

// ---------------------------------------------------------------------------
// Run-length encoding (paper §3.6 names run-length encoding explicitly)

type rleColumn struct {
	values []any // run value, nil for NULL runs
	ends   []int32
	bytes  int64 // footprint of run values
}

func (c *rleColumn) Len() int {
	if len(c.ends) == 0 {
		return 0
	}
	return int(c.ends[len(c.ends)-1])
}
func (c *rleColumn) Get(i int) any {
	// Binary search for the run containing i.
	lo, hi := 0, len(c.ends)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if int32(i) < c.ends[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return c.values[lo]
}
func (c *rleColumn) SizeBytes() int64 { return c.bytes + int64(len(c.ends))*4 }
func (c *rleColumn) Encoding() string { return "RLE" }

// ---------------------------------------------------------------------------
// Boxed fallback for nested/user types

type boxedColumn struct {
	data []any
}

func (c *boxedColumn) Len() int      { return len(c.data) }
func (c *boxedColumn) Get(i int) any { return c.data[i] }
func (c *boxedColumn) SizeBytes() int64 {
	var s int64
	for _, v := range c.data {
		s += row.FlatSize(v) + 8
	}
	return s
}
func (c *boxedColumn) Encoding() string { return "BOXED" }

// ColStats are per-batch, per-column statistics used to skip batches whose
// value range cannot satisfy a predicate.
type ColStats struct {
	Min, Max  any // nil when untracked (non-ordered types) or all-NULL
	NullCount int
}

// typeWidth returns the packed width for fixed-width types.
func typeWidth(t types.DataType) int {
	switch {
	case t.Equals(types.Int), t.Equals(types.Date):
		return 4
	default:
		return 8
	}
}

func outConv(t types.DataType) func(int64) any {
	switch {
	case t.Equals(types.Int), t.Equals(types.Date):
		return func(v int64) any { return int32(v) }
	default:
		return func(v int64) any { return v }
	}
}

func fmtEncodingError(t types.DataType, v any) string {
	return fmt.Sprintf("columnar: value %T does not match column type %s", v, t.Name())
}
