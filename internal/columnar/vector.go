package columnar

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/row"
	"repro/internal/types"
)

// This file adds the batch-at-a-time side of the cache: a Vector is one
// column of a batch decoded ONCE into a typed Go slice (plus a null
// bitmap), so downstream kernels can run tight unboxed loops instead of
// calling Get(i) any per value. Decoding happens per batch, per referenced
// column; untouched columns are never decoded, preserving the columnar
// pruning win.

// VecKind is the physical representation of a Vector.
type VecKind uint8

const (
	// KindInt64 holds INT, BIGINT, DATE and TIMESTAMP values widened to
	// int64 (the same widening the scalar compiler uses for comparisons).
	KindInt64 VecKind = iota
	// KindFloat64 holds DOUBLE (and FLOAT, which the cache already stores
	// as float64).
	KindFloat64
	// KindString holds STRING values.
	KindString
	// KindBool holds BOOLEAN values.
	KindBool
	// KindAny is the boxed fallback for decimals, nested and user types.
	KindAny
)

// KindOf maps a SQL type to its vector representation.
func KindOf(t types.DataType) VecKind {
	switch {
	case t.Equals(types.Int), t.Equals(types.Long), t.Equals(types.Date), t.Equals(types.Timestamp):
		return KindInt64
	case t.Equals(types.Double), t.Equals(types.Float):
		return KindFloat64
	case t.Equals(types.String):
		return KindString
	case t.Equals(types.Boolean):
		return KindBool
	default:
		return KindAny
	}
}

// Vector is a typed, decoded column of one batch. Exactly one of the data
// slices (selected by Kind) is populated. Indexing is absolute within the
// batch: selection vectors skip rows without repacking the data.
type Vector struct {
	Kind VecKind
	// Type is the logical SQL type, needed to re-box values faithfully at
	// the pipeline boundary (INT and DATE box as int32, BIGINT as int64).
	Type types.DataType

	I64  []int64
	F64  []float64
	Str  []string
	Bool []bool
	Any  []any

	// nulls has a bit SET for NULL positions; nil means no nulls.
	nulls []uint64
	n     int
	// constant vectors hold one value at index 0 valid for every row.
	isConst bool
}

// NewVector allocates a mutable vector of n rows for the given type.
func NewVector(t types.DataType, n int) *Vector {
	v := &Vector{Kind: KindOf(t), Type: t, n: n}
	switch v.Kind {
	case KindInt64:
		v.I64 = make([]int64, n)
	case KindFloat64:
		v.F64 = make([]float64, n)
	case KindString:
		v.Str = make([]string, n)
	case KindBool:
		v.Bool = make([]bool, n)
	default:
		v.Any = make([]any, n)
	}
	return v
}

// NewAnyVector allocates a boxed vector of n rows regardless of the type's
// natural representation — the scalar-fallback path uses it to store the
// interpreter's values verbatim.
func NewAnyVector(t types.DataType, n int) *Vector {
	return &Vector{Kind: KindAny, Type: t, n: n, Any: make([]any, n)}
}

// NewConstVector builds a constant vector: one value (nil = NULL) repeated
// over n rows. Kernels read index i&Mask() so constants need no expansion.
func NewConstVector(t types.DataType, value any, n int) *Vector {
	v := &Vector{Kind: KindOf(t), Type: t, n: n, isConst: true}
	switch v.Kind {
	case KindInt64:
		v.I64 = make([]int64, 1)
	case KindFloat64:
		v.F64 = make([]float64, 1)
	case KindString:
		v.Str = make([]string, 1)
	case KindBool:
		v.Bool = make([]bool, 1)
	default:
		v.Any = make([]any, 1)
	}
	v.Set(0, value)
	if value == nil {
		// All rows are NULL: SetNull(0) marked position 0, and IsNull masks
		// every lookup to position 0 via the const flag.
		v.nulls = []uint64{1}
	}
	return v
}

// WrapVector builds a vector over caller-owned typed data without copying:
// data is a []int64, []float64, []string, []bool or []any lane (selecting
// the kind), and valid, when non-nil, marks the non-NULL positions (it is no
// longer than data). Aggregation state lanes become result columns this way.
func WrapVector(t types.DataType, data any, valid []bool) *Vector {
	v := WrapLanes(t, data, nil)
	for i, ok := range valid {
		if !ok {
			v.SetNull(i)
		}
	}
	return v
}

// WrapLanes is WrapVector for a caller that already holds the NULLs as a
// bitmap: bit i of nulls set means position i is NULL, nil means no NULLs,
// and bits past the lane's length are ignored. Neither slice is copied. A
// columnar file scan hands its decoded chunks to the engine this way.
func WrapLanes(t types.DataType, data any, nulls []uint64) *Vector {
	v := &Vector{Type: t, nulls: nulls}
	switch d := data.(type) {
	case []int64:
		v.Kind, v.I64, v.n = KindInt64, d, len(d)
	case []float64:
		v.Kind, v.F64, v.n = KindFloat64, d, len(d)
	case []string:
		v.Kind, v.Str, v.n = KindString, d, len(d)
	case []bool:
		v.Kind, v.Bool, v.n = KindBool, d, len(d)
	case []any:
		v.Kind, v.Any, v.n = KindAny, d, len(d)
	default:
		panic(fmt.Sprintf("columnar: cannot wrap %T as a vector", data))
	}
	return v
}

// Append grows a (non-constant) vector by one row holding src's value at
// position i, NULL included. Matching kinds copy lane to lane; anything else
// converts through the boxed value, so a boxed fallback vector can feed a
// typed one. Group tables build their key columns with it.
func (v *Vector) Append(src *Vector, i int) {
	at := v.n
	v.growLane(at + 1)
	if v.nulls != nil && at/64 >= len(v.nulls) {
		v.nulls = append(v.nulls, 0)
	}
	if src.IsNull(i) {
		v.SetNull(at)
		return
	}
	if src.Kind != v.Kind {
		v.Set(at, src.Get(i))
		return
	}
	i &= src.Mask()
	switch v.Kind {
	case KindInt64:
		v.I64[at] = src.I64[i]
	case KindFloat64:
		v.F64[at] = src.F64[i]
	case KindString:
		v.Str[at] = src.Str[i]
	case KindBool:
		v.Bool[at] = src.Bool[i]
	default:
		v.Any[at] = src.Any[i]
	}
}

// Reset makes a (non-constant) vector hold n rows, none of them NULL, keeping
// its lanes' backing arrays: a caller that fills one chunk after another with
// Set reuses one vector instead of allocating per chunk. Positions not Set
// afterwards hold stale values.
func (v *Vector) Reset(n int) {
	v.growLane(n)
	if len(v.nulls) < (n+63)/64 {
		v.nulls = nil
	} else {
		clear(v.nulls)
	}
}

// growLane sets the row count to n, extending the vector's lane to hold it.
func (v *Vector) growLane(n int) {
	v.n = n
	switch v.Kind {
	case KindInt64:
		v.I64 = GrowLane(v.I64, n)
	case KindFloat64:
		v.F64 = GrowLane(v.F64, n)
	case KindString:
		v.Str = GrowLane(v.Str, n)
	case KindBool:
		v.Bool = GrowLane(v.Bool, n)
	default:
		v.Any = GrowLane(v.Any, n)
	}
}

// GrowLane extends a typed lane to n zero values, at least doubling the
// backing array when it must move: append alone grows large slices by 1.25x,
// which re-copies a key column or an aggregation state lane five times over
// on its way to 10^5 groups.
func GrowLane[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n > cap(s) {
		s = slices.Grow(s, max(n, 2*cap(s))-len(s))
	}
	return s[:n]
}

// HashAt folds the value at position i into a running row hash, reading the
// typed lane directly: the result equals hashing the boxed value, so a key
// hashes the same whichever representation carried it.
func (v *Vector) HashAt(h row.Hasher, i int) row.Hasher {
	if v.IsNull(i) {
		return h.Null()
	}
	i &= v.Mask()
	switch v.Kind {
	case KindInt64:
		return h.Int64(v.I64[i])
	case KindFloat64:
		return h.Float64(v.F64[i])
	case KindString:
		return h.String(v.Str[i])
	case KindBool:
		return h.Value(v.Bool[i])
	default:
		return h.Value(v.Any[i])
	}
}

// HashInto is HashAt a column at a time: it folds the value at every live
// position i into the running row hash dst[i] (absolute indexing, like a
// kernel's output). A group table hashes a batch's keys with one call per key
// column, into scratch its caller owns.
func (v *Vector) HashInto(dst []uint64, live []int32) {
	mask := v.Mask()
	switch {
	case v.nulls == nil && v.Kind == KindInt64:
		for _, i := range live {
			dst[i] = row.Hasher(dst[i]).Int64(v.I64[int(i)&mask]).Sum()
		}
	case v.nulls == nil && v.Kind == KindFloat64:
		for _, i := range live {
			dst[i] = row.Hasher(dst[i]).Float64(v.F64[int(i)&mask]).Sum()
		}
	case v.nulls == nil && v.Kind == KindString:
		for _, i := range live {
			dst[i] = row.Hasher(dst[i]).String(v.Str[int(i)&mask]).Sum()
		}
	default:
		for _, i := range live {
			dst[i] = v.HashAt(row.Hasher(dst[i]), int(i)).Sum()
		}
	}
}

// EqualAt reports whether position i holds the same grouping key as position
// j of o: NULL equals NULL, and values are equal exactly when row.GroupKey
// encodes them alike (doubles by bit pattern, INT and BIGINT by value), so
// equal positions hash alike under HashAt. Matching kinds compare lane to
// lane; a boxed vector against a typed one compares the boxed values.
func (v *Vector) EqualAt(i int, o *Vector, j int) bool {
	if vn, on := v.IsNull(i), o.IsNull(j); vn || on {
		return vn == on
	}
	if v.Kind != o.Kind || v.Kind == KindAny {
		return row.KeyEqual(v.Get(i), o.Get(j))
	}
	i, j = i&v.Mask(), j&o.Mask()
	switch v.Kind {
	case KindInt64:
		return v.I64[i] == o.I64[j]
	case KindFloat64:
		return math.Float64bits(v.F64[i]) == math.Float64bits(o.F64[j])
	case KindString:
		return v.Str[i] == o.Str[j]
	default:
		return v.Bool[i] == o.Bool[j]
	}
}

// Len returns the row count.
func (v *Vector) Len() int { return v.n }

// IsConst reports whether the vector is a broadcast constant.
func (v *Vector) IsConst() bool { return v.isConst }

// Mask returns -1 for ordinary vectors and 0 for constants, so kernels can
// index data[i&Mask()] branch-free.
func (v *Vector) Mask() int {
	if v.isConst {
		return 0
	}
	return -1
}

// HasNulls reports whether any position is NULL.
func (v *Vector) HasNulls() bool { return v.nulls != nil }

// IsNull reports whether position i is NULL.
func (v *Vector) IsNull(i int) bool {
	if v.nulls == nil {
		return false
	}
	if v.isConst {
		i = 0
	}
	return v.nulls[i/64]&(1<<(uint(i)%64)) != 0
}

// SetNull marks position i NULL.
func (v *Vector) SetNull(i int) {
	if v.nulls == nil {
		size := v.n
		if v.isConst {
			size = 1
		}
		v.nulls = make([]uint64, (size+63)/64)
	}
	v.nulls[i/64] |= 1 << (uint(i) % 64)
}

// Set stores a boxed value (nil = NULL) at position i, converting to the
// vector's physical representation.
func (v *Vector) Set(i int, value any) {
	if value == nil {
		v.SetNull(i)
		return
	}
	switch v.Kind {
	case KindInt64:
		v.I64[i] = asInt64(value)
	case KindFloat64:
		v.F64[i] = asFloat64(value)
	case KindString:
		v.Str[i] = value.(string)
	case KindBool:
		v.Bool[i] = value.(bool)
	default:
		v.Any[i] = value
	}
}

// Get re-boxes the value at position i (nil for NULL), producing exactly
// the representation the row-at-a-time cache scan produces.
func (v *Vector) Get(i int) any {
	if v.IsNull(i) {
		return nil
	}
	if v.isConst {
		i = 0
	}
	switch v.Kind {
	case KindInt64:
		if narrowInt(v.Type) {
			return int32(v.I64[i])
		}
		return v.I64[i]
	case KindFloat64:
		return v.F64[i]
	case KindString:
		return v.Str[i]
	case KindBool:
		return v.Bool[i]
	default:
		return v.Any[i]
	}
}

// BoxInto is Get a column at a time: the k-th position of sel is boxed into
// dst[k*stride], so a caller laying rows out back to back in one []any (stride
// cells each) fills one column of all of them per call, in a loop over the
// typed lane. dst holds nil at those cells beforehand. A constant is boxed
// once and shared. A string column's cells, NULLs aside, are boxed from one
// slab allocated per call (boxStrings); every other cell is boxed on its own,
// which costs nothing for the small integers the runtime keeps preboxed.
func (v *Vector) BoxInto(dst []any, stride int, sel []int32) {
	switch {
	case v.isConst:
		val := v.Get(0)
		for k := range sel {
			dst[k*stride] = val
		}
	case v.Kind == KindString:
		boxStrings(dst, stride, v.Str, sel, v.nulls)
	case v.nulls != nil || v.Kind == KindAny:
		for k, i := range sel {
			dst[k*stride] = v.Get(int(i))
		}
	case v.Kind == KindInt64 && narrowInt(v.Type):
		for k, i := range sel {
			dst[k*stride] = int32(v.I64[i])
		}
	case v.Kind == KindInt64:
		for k, i := range sel {
			dst[k*stride] = v.I64[i]
		}
	case v.Kind == KindFloat64:
		for k, i := range sel {
			dst[k*stride] = v.F64[i]
		}
	default:
		for k, i := range sel {
			dst[k*stride] = v.Bool[i]
		}
	}
}

// Gather returns a new (non-constant) vector holding v's positions sel, in
// order — a copy of all of v when sel is nil. It shares no lane and no NULL
// bitmap with v: a scan that decodes into scratch it reuses hands over the
// surviving positions this way.
func (v *Vector) Gather(sel []int32) *Vector {
	out := &Vector{Kind: v.Kind, Type: v.Type, n: len(sel)}
	if sel == nil {
		out.n, out.nulls = v.n, slices.Clone(v.nulls)
	}
	switch v.Kind {
	case KindInt64:
		out.I64 = gatherLane(v.I64[:v.n], sel)
	case KindFloat64:
		out.F64 = gatherLane(v.F64[:v.n], sel)
	case KindString:
		out.Str = gatherLane(v.Str[:v.n], sel)
	case KindBool:
		out.Bool = gatherLane(v.Bool[:v.n], sel)
	default:
		out.Any = gatherLane(v.Any[:v.n], sel)
	}
	if v.nulls != nil {
		for o, i := range sel {
			if v.IsNull(int(i)) {
				out.SetNull(o)
			}
		}
	}
	return out
}

func gatherLane[T any](src []T, sel []int32) []T {
	if sel == nil {
		return slices.Clone(src)
	}
	out := make([]T, len(sel))
	for o, i := range sel {
		out[o] = src[i]
	}
	return out
}

// narrowInt reports whether the type boxes as int32.
func narrowInt(t types.DataType) bool {
	return t.Equals(types.Int) || t.Equals(types.Date)
}

func asInt64(v any) int64 {
	switch x := v.(type) {
	case int32:
		return int64(x)
	case int64:
		return x
	}
	panic(fmt.Sprintf("columnar: value %T is not an integer", v))
}

func asFloat64(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case float32:
		return float64(x)
	}
	panic(fmt.Sprintf("columnar: value %T is not a float", v))
}

// ---------------------------------------------------------------------------
// Typed batch accessors: decode a Column once into a Vector.

// DecodeColumn decodes an encoded column into a typed vector, with a fast
// path per encoding (plain slices are shared, dictionaries decode the
// dictionary once, runs expand linearly) and a generic Get(i) loop for
// anything else.
func DecodeColumn(c Column, t types.DataType) *Vector {
	kind := KindOf(t)
	switch col := c.(type) {
	case *longColumn:
		if kind == KindInt64 {
			v := &Vector{Kind: KindInt64, Type: t, I64: col.data, n: len(col.data)}
			v.nulls = invertValidity(col.valid)
			return v
		}
	case *doubleColumn:
		if kind == KindFloat64 {
			v := &Vector{Kind: KindFloat64, Type: t, F64: col.data, n: len(col.data)}
			v.nulls = invertValidity(col.valid)
			return v
		}
	case *stringColumn:
		if kind == KindString {
			n := col.Len()
			v := &Vector{Kind: KindString, Type: t, Str: make([]string, n), n: n}
			v.nulls = invertValidity(col.valid)
			for i := 0; i < n; i++ {
				if !v.IsNull(i) {
					v.Str[i] = string(col.bytes[col.offsets[i]:col.offsets[i+1]])
				}
			}
			return v
		}
	case *boolColumn:
		if kind == KindBool {
			v := &Vector{Kind: KindBool, Type: t, Bool: make([]bool, col.n), n: col.n}
			v.nulls = invertValidity(col.valid)
			for i := 0; i < col.n; i++ {
				v.Bool[i] = col.bits[i/64]&(1<<(uint(i)%64)) != 0
			}
			return v
		}
	case *dictColumn:
		return decodeDict(col, t, kind)
	case *rleColumn:
		return decodeRLE(col, t)
	}
	return decodeGeneric(c, t)
}

// decodeDict decodes the (small) dictionary once, then fills by code.
func decodeDict(c *dictColumn, t types.DataType, kind VecKind) *Vector {
	n := len(c.codes)
	v := NewVector(t, n)
	switch kind {
	case KindInt64:
		dict := make([]int64, len(c.dict))
		for i, d := range c.dict {
			dict[i] = asInt64(d)
		}
		for i, code := range c.codes {
			if code < 0 {
				v.SetNull(i)
				continue
			}
			v.I64[i] = dict[code]
		}
	case KindFloat64:
		dict := make([]float64, len(c.dict))
		for i, d := range c.dict {
			dict[i] = asFloat64(d)
		}
		for i, code := range c.codes {
			if code < 0 {
				v.SetNull(i)
				continue
			}
			v.F64[i] = dict[code]
		}
	case KindString:
		dict := make([]string, len(c.dict))
		for i, d := range c.dict {
			dict[i] = d.(string)
		}
		for i, code := range c.codes {
			if code < 0 {
				v.SetNull(i)
				continue
			}
			v.Str[i] = dict[code]
		}
	default:
		for i, code := range c.codes {
			if code < 0 {
				v.SetNull(i)
				continue
			}
			v.Set(i, c.dict[code])
		}
	}
	return v
}

// decodeRLE expands runs linearly — no per-row binary search.
func decodeRLE(c *rleColumn, t types.DataType) *Vector {
	v := NewVector(t, c.Len())
	start := 0
	for ri, end := range c.ends {
		val := c.values[ri]
		for i := start; i < int(end); i++ {
			v.Set(i, val)
		}
		start = int(end)
	}
	return v
}

// decodeGeneric is the catch-all: one Get per value (boxed columns, or any
// future Column implementation).
func decodeGeneric(c Column, t types.DataType) *Vector {
	n := c.Len()
	v := NewVector(t, n)
	for i := 0; i < n; i++ {
		v.Set(i, c.Get(i))
	}
	return v
}

// invertValidity converts a validity bitmap (bit set = valid, nil = no
// nulls) into a null bitmap (bit set = NULL, nil = no nulls). Trailing bits
// beyond the row count are garbage; accessors never index past Len.
func invertValidity(valid validity) []uint64 {
	if valid == nil {
		return nil
	}
	nulls := make([]uint64, len(valid))
	for i, w := range valid {
		nulls[i] = ^w
	}
	return nulls
}

// DecodeBatch decodes the given batch columns (by ordinal) into vectors.
// Ordinals with a negative value are skipped (nil vector) — callers pass
// -1 for columns no kernel references so they are never decoded.
func (b *Batch) DecodeBatch(schema []types.DataType, ordinals []int) []*Vector {
	out := make([]*Vector, len(ordinals))
	for j, ord := range ordinals {
		if ord < 0 {
			continue
		}
		out[j] = DecodeColumn(b.Cols[ord], schema[j])
	}
	return out
}
