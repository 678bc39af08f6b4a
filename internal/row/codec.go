package row

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/types"
)

// Row codec: a compact tagged binary encoding of rows, used by the durable
// table store's WAL records and checkpoints; its value encoding also carries
// the cells of internal/columnar's block codec that have no typed lane.
// Round-tripping is exact for every value the Row data model produces
// (see the package comment's value mapping), which is what keeps a
// recovered table byte-identical to the one that was written.

const (
	tagNil = iota
	tagFalse
	tagTrue
	tagInt32
	tagInt64
	tagFloat32
	tagFloat64
	tagString
	tagDecimal
	tagBytes
	tagRow
	tagList
)

// AppendValue appends the encoding of a single SQL value to b.
func AppendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case bool:
		if x {
			return append(b, tagTrue), nil
		}
		return append(b, tagFalse), nil
	case int32:
		return binary.AppendVarint(append(b, tagInt32), int64(x)), nil
	case int64:
		return binary.AppendVarint(append(b, tagInt64), x), nil
	case float32:
		return binary.LittleEndian.AppendUint32(append(b, tagFloat32), math.Float32bits(x)), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, tagFloat64), math.Float64bits(x)), nil
	case string:
		b = binary.AppendUvarint(append(b, tagString), uint64(len(x)))
		return append(b, x...), nil
	case types.Decimal:
		b = binary.AppendVarint(append(b, tagDecimal), x.Unscaled)
		return binary.AppendVarint(b, int64(x.Scale)), nil
	case []byte:
		b = binary.AppendUvarint(append(b, tagBytes), uint64(len(x)))
		return append(b, x...), nil
	case Row:
		return appendSeq(b, tagRow, x)
	case []any:
		return appendSeq(b, tagList, x)
	default:
		return nil, fmt.Errorf("row: cannot spill value of type %T", v)
	}
}

func appendSeq(b []byte, tag byte, vals []any) ([]byte, error) {
	b = binary.AppendUvarint(append(b, tag), uint64(len(vals)))
	var err error
	for _, e := range vals {
		if b, err = AppendValue(b, e); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// AppendRow appends the encoding of one row to b.
func AppendRow(b []byte, r Row) ([]byte, error) {
	return appendSeq(b, tagRow, r)
}

// EncodeRows encodes a slice of rows as one block.
func EncodeRows(rows []Row) ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(len(rows)))
	var err error
	for _, r := range rows {
		if b, err = AppendRow(b, r); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeRows decodes a block produced by EncodeRows.
func DecodeRows(b []byte) ([]Row, error) {
	d := &decoder{b: b}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if err := d.claim(n); err != nil {
		return nil, err
	}
	rows := make([]Row, n)
	for i := range rows {
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		r, ok := v.(Row)
		if !ok {
			return nil, fmt.Errorf("row: decode: block record is %T, not a row", v)
		}
		rows[i] = r
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("row: decode: %d trailing bytes", len(d.b)-d.off)
	}
	return rows, nil
}

// DecodeValue decodes the single value AppendValue wrote at the front of b,
// returning it and the number of bytes it took.
func DecodeValue(b []byte) (any, int, error) {
	d := &decoder{b: b}
	v, err := d.value()
	return v, d.off, err
}

type decoder struct {
	b   []byte
	off int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("row: decode: bad uvarint at %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("row: decode: bad varint at %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) take(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.b) || d.off+n < 0 {
		return nil, fmt.Errorf("row: decode: truncated at %d", d.off)
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s, nil
}

// claim validates a decoded element count or byte length against the
// remaining input before any allocation sized by it: every element costs
// at least one byte, so a claim beyond the remaining bytes is corrupt by
// construction. This is what keeps a bit-flipped length prefix from
// turning into a multi-gigabyte make().
func (d *decoder) claim(n uint64) error {
	if n > uint64(len(d.b)-d.off) {
		return fmt.Errorf("row: decode: %d claimed at %d, %d bytes remain", n, d.off, len(d.b)-d.off)
	}
	return nil
}

func (d *decoder) value() (any, error) {
	tag, err := d.take(1)
	if err != nil {
		return nil, err
	}
	switch tag[0] {
	case tagNil:
		return nil, nil
	case tagFalse:
		return false, nil
	case tagTrue:
		return true, nil
	case tagInt32:
		v, err := d.varint()
		return int32(v), err
	case tagInt64:
		return d.varint()
	case tagFloat32:
		s, err := d.take(4)
		if err != nil {
			return nil, err
		}
		return math.Float32frombits(binary.LittleEndian.Uint32(s)), nil
	case tagFloat64:
		s, err := d.take(8)
		if err != nil {
			return nil, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(s)), nil
	case tagString:
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if err := d.claim(n); err != nil {
			return nil, err
		}
		s, err := d.take(int(n))
		return string(s), err
	case tagDecimal:
		u, err := d.varint()
		if err != nil {
			return nil, err
		}
		sc, err := d.varint()
		if err != nil {
			return nil, err
		}
		return types.Decimal{Unscaled: u, Scale: int(sc)}, nil
	case tagBytes:
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if err := d.claim(n); err != nil {
			return nil, err
		}
		s, err := d.take(int(n))
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), s...), nil
	case tagRow:
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if err := d.claim(n); err != nil {
			return nil, err
		}
		r := make(Row, n)
		for i := range r {
			if r[i], err = d.value(); err != nil {
				return nil, err
			}
		}
		return r, nil
	case tagList:
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if err := d.claim(n); err != nil {
			return nil, err
		}
		l := make([]any, n)
		for i := range l {
			if l[i], err = d.value(); err != nil {
				return nil, err
			}
		}
		return l, nil
	default:
		return nil, fmt.Errorf("row: decode: unknown tag %d at %d", tag[0], d.off-1)
	}
}
