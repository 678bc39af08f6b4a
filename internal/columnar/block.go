package columnar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/row"
	"repro/internal/types"
)

// Block codec: rows that leave a process for a while and come back (a shuffle
// bucket, a task reply, a session table, a spill run) travel as a block of
// columns: the row count and width, then per column a kind byte, a NULL bitmap
// if the kind's high bit is set, and a lane holding a NULL as a zero: DOUBLE
// as 8-byte words, INT and BIGINT as varints, STRING as all the lengths, then
// all the bytes. A column of mixed Go types or of no lane (BOOLEAN, a byte a
// cell anyway, DECIMAL, FLOAT, binary, nested, all NULL) is written cell by
// cell in the row codec's value encoding. Counts and lengths are varints, and
// a zero-width block pads a zero byte a row, so every count is bounded by the
// bytes after it. Values decode exactly: INT as int32, doubles bit for bit.
const (
	laneCells byte = iota
	laneInt32
	laneInt64
	laneFloat64
	laneString
	laneNone byte = 0xff // a NULL cell's: it fits any lane
	hasNulls byte = 0x80
)

// laneTypes is the SQL type each lane decodes as, for Vector.BoxInto to box.
var laneTypes = [...]types.DataType{laneInt32: types.Int, laneInt64: types.Long, laneFloat64: types.Double, laneString: types.String}

// EncodeBlock encodes rows, all of one width, as one block.
func EncodeBlock(rows []row.Row) ([]byte, error) {
	w := 0
	if len(rows) > 0 {
		w = len(rows[0])
	}
	b := make([]byte, 0, 16+10*len(rows)*w) // a cell's bytes, about: growing by appends copies the block over
	b = binary.AppendVarint(binary.AppendVarint(b, int64(len(rows))), int64(w))
	for _, r := range rows {
		if len(r) != w {
			return nil, fmt.Errorf("columnar: block rows of width %d and %d", w, len(r))
		}
	}
	if w == 0 {
		return append(b, make([]byte, len(rows))...), nil
	}
	var err error
	for j := 0; j < w && err == nil; j++ {
		b, err = appendColumn(b, rows, j)
	}
	return b, err
}

func appendColumn(b []byte, rows []row.Row, j int) ([]byte, error) {
	lane, nulls := laneNone, false
	for _, r := range rows {
		l := laneCells
		switch r[j].(type) {
		case nil:
			nulls = true
			continue
		case int32:
			l = laneInt32
		case int64:
			l = laneInt64
		case float64:
			l = laneFloat64
		case string:
			l = laneString
		}
		if lane != laneNone && lane != l {
			l = laneCells
		}
		lane = l
	}
	if lane == laneCells || lane == laneNone {
		b = append(b, laneCells)
		var err error
		for i := 0; i < len(rows) && err == nil; i++ {
			b, err = row.AppendValue(b, rows[i][j])
		}
		return b, err
	}
	bits := len(b) + 1 // the NULL bitmap's first byte, when there is one
	if b = append(b, lane); nulls {
		b[bits-1] |= hasNulls
		b = append(b, make([]byte, (len(rows)+7)/8)...)
	}
	for i, r := range rows {
		switch x := r[j].(type) {
		case int32:
			b = binary.AppendVarint(b, int64(x))
		case int64:
			b = binary.AppendVarint(b, x)
		case float64:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		case string:
			b = binary.AppendVarint(b, int64(len(x)))
		case nil:
			b[bits+i/8] |= 1 << (i % 8)
			if b = append(b, 0); lane == laneFloat64 {
				b = append(b, 0, 0, 0, 0, 0, 0, 0)
			}
		}
	}
	for i := 0; lane == laneString && i < len(rows); i++ {
		if s, ok := rows[i][j].(string); ok {
			b = append(b, s...)
		}
	}
	return b, nil
}

// blockScratch is what decoding reuses from block to block: the vector a lane
// is read into before Vector.BoxInto copies it out, and the identity selection.
type blockScratch struct {
	vec Vector
	sel []int32
}

var scratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// DecodeBlock decodes a block EncodeBlock produced. The rows share one cell
// slab, each clipped to its own cells.
func DecodeBlock(b []byte) ([]row.Row, error) {
	d := &blockReader{b: b}
	n, w := d.varint(), d.varint()
	// A row costs a byte of each column (or of padding), a column its kind byte.
	if rest := int64(len(b) - d.off); n < 0 || w < 0 || w > rest || n > rest/max(w, 1) {
		d.fail("counts past the bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	rows, cells := make([]row.Row, n), make([]any, n*w)
	for i := range rows {
		rows[i] = cells[i*int(w) : (i+1)*int(w) : (i+1)*int(w)]
	}
	if w == 0 && bytes.Count(d.take(int(n)), []byte{0}) != int(n) {
		d.fail("zero-width padding")
	}
	s := scratchPool.Get().(*blockScratch)
	defer scratchPool.Put(s)
	s.sel = GrowLane(s.sel[:0], int(n))
	for i := range s.sel {
		s.sel[i] = int32(i)
	}
	for j := 0; j < int(w) && d.err == nil; j++ {
		d.column(s, cells[min(j, len(cells)):], int(w)) // no rows: no cells
	}
	if d.off != len(b) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	return rows, nil
}

// blockReader reads a block front to back. Its first error sticks.
type blockReader struct {
	b   []byte
	off int
	err error
}

func (d *blockReader) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("columnar: block corrupt at %d: %s", d.off, what)
	}
}

func (d *blockReader) varint() int64 {
	v, k := binary.Varint(d.b[d.off:]) // v is 0 when k <= 0
	if k <= 0 {
		d.fail("bad varint")
	}
	d.off += max(k, 0)
	return v
}

func (d *blockReader) take(n int) []byte {
	if n > len(d.b)-d.off {
		d.fail("truncated")
		return nil
	}
	d.off += n
	return d.b[d.off-n : d.off]
}

// column decodes one column of len(s.sel) rows into dst[k*stride]: a lane
// through the scratch vector and Vector.BoxInto, cells one by one.
func (d *blockReader) column(s *blockScratch, dst []any, stride int) {
	n, kind := len(s.sel), d.take(1)
	switch {
	case kind == nil:
		return
	case kind[0] == laneCells:
		for k, used := 0, 0; k < n && d.err == nil; k, d.off = k+1, d.off+used {
			dst[k*stride], used, d.err = row.DecodeValue(d.b[d.off:])
		}
		return
	case kind[0]&^hasNulls == laneCells || int(kind[0]&^hasNulls) >= len(laneTypes):
		d.fail("bad kind")
		return
	}
	t, v := laneTypes[kind[0]&^hasNulls], &s.vec
	*v = Vector{Kind: KindOf(t), Type: t, nulls: v.nulls[:0], I64: GrowLane(v.I64, n), F64: v.F64, Str: v.Str}
	v.growLane(n)
	if kind[0]&hasNulls != 0 {
		v.nulls = GrowLane(v.nulls, (n+63)/64)
		clear(v.nulls)
		for i, c := range d.take((n + 7) / 8) {
			v.nulls[i/8] |= uint64(c) << (8 * (i % 8))
		}
	}
	switch v.Kind {
	case KindInt64:
		for i := range v.I64[:n] {
			v.I64[i] = d.varint()
		}
	case KindFloat64:
		for i, words := 0, d.take(8*n); i < len(words); i += 8 {
			v.F64[i/8] = math.Float64frombits(binary.LittleEndian.Uint64(words[i:]))
		}
	default: // STRING: the lengths go through the BIGINT lane
		total := 0
		for i := range v.Str[:n] {
			l := d.varint()
			if d.err != nil || l < 0 || l > int64(len(d.b)-d.off-total) {
				d.fail("string past the bytes")
				return
			}
			v.I64[i], total = l, total+int(l)
		}
		all, off := string(d.take(total)), 0
		for i, l := range v.I64[:n] {
			v.Str[i], off = all[off:off+int(l)], off+int(l)
		}
	}
	if d.err == nil {
		v.BoxInto(dst, stride, s.sel)
	}
	clear(v.Str)
}
