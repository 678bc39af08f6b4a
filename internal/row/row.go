// Package row implements the Row value representation flowing through the
// engine: a positional tuple of Go values whose dynamic types correspond to
// the Spark SQL data model (paper §3.1 footnote 2 — Rows are a view; the
// storage format underneath may be columnar).
//
// Value mapping: BOOLEAN→bool, INT→int32, BIGINT→int64, FLOAT→float32,
// DOUBLE→float64, STRING→string, DECIMAL→types.Decimal, DATE→int32 (days
// since epoch), TIMESTAMP→int64 (µs since epoch), BINARY→[]byte,
// ARRAY→[]any, MAP→map[any]any, STRUCT→Row. SQL NULL is Go nil.
package row

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"repro/internal/types"
)

// Row is a positional tuple. The zero value is an empty row.
type Row []any

// New builds a row from values.
func New(values ...any) Row { return Row(values) }

// Copy returns a fresh row sharing no backing array with r.
func (r Row) Copy() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// IsNullAt reports whether field i is SQL NULL.
func (r Row) IsNullAt(i int) bool { return r[i] == nil }

// Bool returns field i as a bool; it panics if the field is NULL or not a
// BOOLEAN, like Spark's typed Row accessors.
func (r Row) Bool(i int) bool { return r[i].(bool) }

// Int returns field i as an int32.
func (r Row) Int(i int) int32 { return r[i].(int32) }

// Long returns field i as an int64.
func (r Row) Long(i int) int64 { return r[i].(int64) }

// Double returns field i as a float64.
func (r Row) Double(i int) float64 { return r[i].(float64) }

// Str returns field i as a string.
func (r Row) Str(i int) string { return r[i].(string) }

// Decimal returns field i as a types.Decimal.
func (r Row) Decimal(i int) types.Decimal { return r[i].(types.Decimal) }

// Struct returns field i as a nested Row.
func (r Row) Struct(i int) Row { return r[i].(Row) }

// Array returns field i as a []any.
func (r Row) Array(i int) []any { return r[i].([]any) }

func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = FormatValue(v)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// FormatValue renders a single SQL value for display.
func FormatValue(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case string:
		return x
	case Row:
		return x.String()
	case []any:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = FormatValue(e)
		}
		return "[" + strings.Join(parts, ",") + "]"
	default:
		return fmt.Sprint(v)
	}
}

// Equal reports deep equality of two SQL values (NULL equals NULL here;
// expression-level three-valued logic is handled in the expression layer).
func Equal(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case Row:
		y, ok := b.(Row)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	case types.Decimal:
		y, ok := b.(types.Decimal)
		return ok && x.Cmp(y) == 0
	case []byte:
		y, ok := b.([]byte)
		return ok && bytes.Equal(x, y)
	case float64:
		// Spark SQL semantics: NaN equals NaN.
		y, ok := b.(float64)
		return ok && (x == y || (math.IsNaN(x) && math.IsNaN(y)))
	case float32:
		y, ok := b.(float32)
		return ok && (x == y || (math.IsNaN(float64(x)) && math.IsNaN(float64(y))))
	default:
		return a == b
	}
}

// Compare orders two non-NULL SQL values of the same type: -1, 0 or 1.
// NULLs sort first (SQL default NULLS FIRST for ascending order).
func Compare(a, b any) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	switch x := a.(type) {
	case bool:
		y := b.(bool)
		switch {
		case x == y:
			return 0
		case !x:
			return -1
		default:
			return 1
		}
	case int32:
		return cmpOrdered(x, b.(int32))
	case int64:
		return cmpOrdered(x, b.(int64))
	case float32:
		return CompareFloat(float64(x), float64(b.(float32)))
	case float64:
		return CompareFloat(x, b.(float64))
	case string:
		return strings.Compare(x, b.(string))
	case types.Decimal:
		return x.Cmp(b.(types.Decimal))
	case Row:
		y := b.(Row)
		for i := 0; i < len(x) && i < len(y); i++ {
			if c := Compare(x[i], y[i]); c != 0 {
				return c
			}
		}
		return cmpOrdered(len(x), len(y))
	default:
		panic(fmt.Sprintf("row: unorderable value of type %T", a))
	}
}

// CompareFloat orders doubles with Spark SQL's convention: NaN is greater
// than every other value and equal to itself.
func CompareFloat(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpOrdered[T int | int32 | int64 | float32 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Hasher is the running state of the engine's one value hash: a
// deterministic 64-bit mix over value classes (no per-process seed), so a hash
// exchange, the spill fan-out and the NDV sketches bucket a key identically
// in every process — the property a multi-process exchange depends on. It is
// consistent with Equal: INT and BIGINT of equal value hash alike, as do
// FLOAT and DOUBLE, whether the value arrives boxed (Value) or straight off a
// typed vector lane (Int64 / Float64 / String).
type Hasher uint64

// NewHasher returns the initial state.
func NewHasher() Hasher { return 0x9E3779B97F4A7C15 }

// word folds one tagged 64-bit word into the state (two multiply-xorshift
// rounds: every input bit reaches both the low bits `% partitions` reads and
// the high bits the sketches read).
func (h Hasher) word(tag byte, u uint64) Hasher {
	x := (uint64(h) ^ uint64(tag)) * 0x9E3779B97F4A7C15
	x ^= u
	x ^= x >> 32
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	return Hasher(x)
}

// Null folds SQL NULL.
func (h Hasher) Null() Hasher { return h.word(0, 0) }

// Int64 folds an int64-class value (INT, BIGINT, DATE, TIMESTAMP).
func (h Hasher) Int64(x int64) Hasher { return h.word(3, uint64(x)) }

// Float64 folds a float-class value (FLOAT widened, DOUBLE).
func (h Hasher) Float64(f float64) Hasher { return h.word(4, math.Float64bits(f)) }

// String folds a string: its length, then eight bytes per round.
func (h Hasher) String(s string) Hasher {
	h = h.word(5, uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h = h.word(5, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var u uint64
		for i := 0; i < len(s); i++ {
			u |= uint64(s[i]) << (8 * i)
		}
		h = h.word(5, u)
	}
	return h
}

// Value folds a boxed SQL value.
func (h Hasher) Value(v any) Hasher {
	switch x := v.(type) {
	case nil:
		return h.Null()
	case bool:
		if x {
			return h.word(1, 1)
		}
		return h.word(1, 0)
	case int32:
		return h.Int64(int64(x))
	case int64:
		return h.Int64(x)
	case float32:
		return h.Float64(float64(x))
	case float64:
		return h.Float64(x)
	case string:
		return h.String(x)
	case types.Decimal:
		return h.word(6, uint64(x.Unscaled)).word(6, uint64(int64(x.Scale)))
	case []byte:
		return h.word(7, 0).String(string(x))
	case Row:
		h = h.word(8, uint64(len(x)))
		for _, e := range x {
			h = h.Value(e)
		}
		return h
	case []any:
		h = h.word(9, uint64(len(x)))
		for _, e := range x {
			h = h.Value(e)
		}
		return h
	case map[any]any:
		// A map's entries have no order: their hashes fold commutatively.
		var sum uint64
		for k, e := range x {
			sum += NewHasher().Value(k).Value(e).Sum()
		}
		return h.word(10, uint64(len(x))).word(10, sum)
	default:
		panic(fmt.Sprintf("row: unhashable value of type %T", v))
	}
}

// Sum returns the hash.
func (h Hasher) Sum() uint64 { return uint64(h) }

// Hash computes a hash of a projection of the row (the fields at ordinals),
// consistent with Equal: used by hash aggregation, hash joins and the
// shuffle partitioner.
func Hash(r Row, ordinals []int) uint64 {
	h := NewHasher()
	for _, i := range ordinals {
		h = h.Value(r[i])
	}
	return h.Sum()
}

// HashValue hashes a single SQL value.
func HashValue(v any) uint64 { return NewHasher().Value(v).Sum() }

// GroupKey renders the projected fields as a comparable key string for use
// in Go maps (composite grouping keys). It is injective for the supported
// atomic types.
func GroupKey(r Row, ordinals []int) string {
	var sb strings.Builder
	for _, i := range ordinals {
		appendKeyValue(&sb, r[i])
	}
	return sb.String()
}

// KeyEqual reports whether two values (nil = NULL) are the same grouping key,
// that is whether GroupKey encodes them alike, without building either string
// for the atomic types: INT equals BIGINT of the same value and FLOAT its
// DOUBLE widening, doubles compare by bit pattern (NaN equals itself, -0.0
// differs from 0.0), decimals by unscaled value and scale. Equal keys hash
// alike under Hasher.Value.
func KeyEqual(a, b any) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case int32:
		return keyInt(b, int64(x))
	case int64:
		return keyInt(b, x)
	case float32:
		return keyFloat(b, float64(x))
	case float64:
		return keyFloat(b, x)
	case string:
		y, ok := b.(string)
		return ok && x == y
	case types.Decimal:
		y, ok := b.(types.Decimal)
		return ok && x == y
	}
	return GroupKey(Row{a, b}, []int{0}) == GroupKey(Row{a, b}, []int{1})
}

func keyInt(b any, x int64) bool {
	switch y := b.(type) {
	case int32:
		return x == int64(y)
	case int64:
		return x == y
	}
	return false
}

func keyFloat(b any, x float64) bool {
	switch y := b.(type) {
	case float32:
		return math.Float64bits(x) == math.Float64bits(float64(y))
	case float64:
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return false
}

func appendKeyValue(sb *strings.Builder, v any) {
	switch x := v.(type) {
	case nil:
		sb.WriteByte(0)
	case bool:
		if x {
			sb.WriteString("\x01t")
		} else {
			sb.WriteString("\x01f")
		}
	case int32:
		appendU64(sb, 2, uint64(int64(x)))
	case int64:
		appendU64(sb, 2, uint64(x))
	case float32:
		appendU64(sb, 3, math.Float64bits(float64(x)))
	case float64:
		appendU64(sb, 3, math.Float64bits(x))
	case string:
		sb.WriteByte(4)
		appendU64(sb, 4, uint64(len(x)))
		sb.WriteString(x)
	case types.Decimal:
		appendU64(sb, 5, uint64(x.Unscaled))
		appendU64(sb, 5, uint64(int64(x.Scale)))
	case Row:
		sb.WriteByte(6)
		for _, e := range x {
			appendKeyValue(sb, e)
		}
		sb.WriteByte(7)
	case []any:
		sb.WriteByte(8)
		for _, e := range x {
			appendKeyValue(sb, e)
		}
		sb.WriteByte(9)
	default:
		panic(fmt.Sprintf("row: ungroupable value of type %T", v))
	}
}

func appendU64(sb *strings.Builder, tag byte, u uint64) {
	sb.WriteByte(tag)
	for i := 0; i < 8; i++ {
		sb.WriteByte(byte(u >> (8 * i)))
	}
}
