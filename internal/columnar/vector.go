package columnar

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

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

	// nulls has a bit SET for NULL positions; empty means no nulls (a vector
	// lent again keeps its words' backing array at length 0).
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
// bitmap: bit i of nulls set means position i is NULL, empty means no NULLs,
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
	if v.HasNulls() && at/64 >= len(v.nulls) {
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
	v.nulls = v.nulls[:0]
}

// Renew is Reset for a vector lent again for the next batch, which may be of
// another type of the same kind: it makes v hold n rows of type t, none of
// them NULL, keeping its kind and its lanes' backing arrays. A constant stays
// a constant of its one-value lane, whose value is the caller's to Set.
func (v *Vector) Renew(t types.DataType, n int) {
	v.Type = t
	if v.isConst {
		v.n, v.nulls = n, v.nulls[:0]
		return
	}
	v.Reset(n)
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

// ReserveLane makes room in a typed lane for n values without lengthening
// it: a state lane whose group count is known up front grows in place.
func ReserveLane[T any](s []T, n int) []T {
	return slices.Grow(s, max(0, n-len(s)))
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
	case !v.HasNulls() && v.Kind == KindInt64:
		for _, i := range live {
			dst[i] = row.Hasher(dst[i]).Int64(v.I64[int(i)&mask]).Sum()
		}
	case !v.HasNulls() && v.Kind == KindFloat64:
		for _, i := range live {
			dst[i] = row.Hasher(dst[i]).Float64(v.F64[int(i)&mask]).Sum()
		}
	case !v.HasNulls() && v.Kind == KindString:
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

// CompareAt is EqualAt's ordering twin: it orders position i against position
// j of o as row.Compare orders the boxed values, -1, 0 or 1 — NULL first, NaN
// greatest and -0.0 equal to 0.0 (row.CompareFloat), strings byte-wise.
// Matching typed kinds compare lane to lane; a boxed vector (DECIMAL, the
// types with no lane) or two vectors of different kinds compare the boxed
// values through row.Compare.
func (v *Vector) CompareAt(i int, o *Vector, j int) int {
	if vn, on := v.IsNull(i), o.IsNull(j); vn || on {
		switch {
		case vn && on:
			return 0
		case vn:
			return -1
		}
		return 1
	}
	if v.Kind != o.Kind || v.Kind == KindAny {
		return row.Compare(v.Get(i), o.Get(j))
	}
	i, j = i&v.Mask(), j&o.Mask()
	switch v.Kind {
	case KindInt64:
		return cmp.Compare(v.I64[i], o.I64[j])
	case KindFloat64:
		return row.CompareFloat(v.F64[i], o.F64[j])
	case KindString:
		return strings.Compare(v.Str[i], o.Str[j])
	}
	switch a, b := v.Bool[i], o.Bool[j]; {
	case a == b:
		return 0
	case b:
		return -1
	}
	return 1
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
func (v *Vector) HasNulls() bool { return len(v.nulls) > 0 }

// IsNull reports whether position i is NULL.
func (v *Vector) IsNull(i int) bool {
	if len(v.nulls) == 0 {
		return false
	}
	if v.isConst {
		i = 0
	}
	return v.nulls[i/64]&(1<<(uint(i)%64)) != 0
}

// SetNull marks position i NULL.
func (v *Vector) SetNull(i int) {
	if len(v.nulls) == 0 {
		size := v.n
		if v.isConst {
			size = 1
		}
		v.nulls = GrowLane(v.nulls, (size+63)/64)
		clear(v.nulls)
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
// once and shared. A string, DOUBLE or integer column's cells, NULLs and the
// small integers the runtime keeps preboxed aside, are boxed from one slab
// allocated per call (boxSlab, boxInts); every other cell is boxed on its own.
func (v *Vector) BoxInto(dst []any, stride int, sel []int32) {
	switch {
	case v.isConst:
		val := v.Get(0)
		for k := range sel {
			dst[k*stride] = val
		}
	case v.Kind == KindString:
		boxSlab(dst, stride, v.Str, sel, v.nulls, stringType)
	case v.Kind == KindFloat64:
		boxSlab(dst, stride, v.F64, sel, v.nulls, float64Type)
	case v.Kind == KindInt64 && narrowInt(v.Type):
		boxInts[int32](dst, stride, v.I64, sel, v.nulls, int32Type)
	case v.Kind == KindInt64:
		boxInts[int64](dst, stride, v.I64, sel, v.nulls, int64Type)
	case v.HasNulls() || v.Kind == KindAny:
		for k, i := range sel {
			dst[k*stride] = v.Get(int(i))
		}
	default:
		for k, i := range sel {
			dst[k*stride] = v.Bool[i]
		}
	}
}

// GatherInto makes dst a non-constant vector holding v's positions sel, in
// order, a negative position NULL, and returns it. dst keeps its lanes (a nil
// dst, or one of another kind, is replaced by a new vector, of exactly
// len(sel) rows), so a task that gathers batch after batch into one vector
// allocates only while it grows; it shares no lane and no NULL bitmap with v,
// so a scan that decodes into scratch it reuses hands over survivors this way.
func (v *Vector) GatherInto(dst *Vector, sel []int32) *Vector {
	if dst == nil || dst.Kind != v.Kind || dst.isConst {
		dst = &Vector{Kind: v.Kind}
	}
	dst.Renew(v.Type, len(sel))
	switch v.Kind {
	case KindInt64:
		gatherLane(dst, dst.I64, v, v.I64, sel)
	case KindFloat64:
		gatherLane(dst, dst.F64, v, v.F64, sel)
	case KindString:
		gatherLane(dst, dst.Str, v, v.Str, sel)
	case KindBool:
		gatherLane(dst, dst.Bool, v, v.Bool, sel)
	default:
		gatherLane(dst, dst.Any, v, v.Any, sel)
	}
	return dst
}

// gatherLane writes src's lane value at sel[k] to dst's lane at k, or marks
// dst's position k NULL (its lane value zero) where sel[k] is negative or
// src's position NULL.
func gatherLane[T any](dst *Vector, to []T, src *Vector, from []T, sel []int32) {
	var zero T
	m, nulls, to := src.Mask(), src.HasNulls(), to[:len(sel)]
	for k, i := range sel {
		if i >= 0 && !(nulls && src.IsNull(int(i))) {
			to[k] = from[int(i)&m]
			continue
		}
		to[k] = zero
		dst.SetNull(k)
	}
}

// Concat returns parts' rows back to back as one vector of type t, its lane
// allocated once at their total length. The parts are non-constant vectors
// of one kind; with none, the vector is t's, of no rows.
func Concat(t types.DataType, parts []*Vector) *Vector {
	out, n := &Vector{Kind: KindOf(t), Type: t}, 0
	for _, p := range parts {
		out.Kind, n = p.Kind, n+p.n
	}
	out.growLane(n)
	at := 0
	for _, p := range parts {
		switch out.Kind {
		case KindInt64:
			copy(out.I64[at:], p.I64[:p.n])
		case KindFloat64:
			copy(out.F64[at:], p.F64[:p.n])
		case KindString:
			copy(out.Str[at:], p.Str[:p.n])
		case KindBool:
			copy(out.Bool[at:], p.Bool[:p.n])
		default:
			copy(out.Any[at:], p.Any[:p.n])
		}
		for i := 0; p.HasNulls() && i < p.n; i++ {
			if p.IsNull(i) {
				out.SetNull(at + i)
			}
		}
		at += p.n
	}
	return out
}

// SizeBytes is the vector's approximate in-memory size: 8 bytes a row, a
// string's or a boxed value's own bytes besides, and its NULL bitmap.
func (v *Vector) SizeBytes() int64 {
	s := 8 * int64(v.n+len(v.nulls))
	for _, x := range v.Str {
		s += 8 + int64(len(x))
	}
	for _, x := range v.Any {
		s += 8 + row.ObjectSize(x)
	}
	return s
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
// Typed batch accessors: decode a cached batch's columns into Vectors.

// Decoder is where one task decodes its cache batches, one after another,
// re-pointing a header per output position for each batch instead of
// allocating one, so that once its lanes have grown decoding allocates
// nothing. A plain INT, BIGINT or DOUBLE column is a view of the cache's own
// lane, a string column's cells are substrings of the cached column's one
// string, and a boolean, dictionary or run-length column (or any other)
// expands into a lane the decoder owns. A decoded batch is valid until the
// next Decode, which re-points its headers and overwrites its lanes: no
// consumer may keep one of its vectors past the batch. A value read out of
// one, a string included, is the reader's to keep.
type Decoder struct {
	cols  []*Vector
	slots []decodeSlot
}

// decodeSlot is one output position's decode target: view is the header a
// plain column re-points at the cache's lane, own holds the lanes the other
// encodings expand into, and dict a dictionary's values, unboxed once.
type decodeSlot struct{ view, own, dict Vector }

// Decode decodes the batch columns at ordinals into vectors of the matching
// schema types. An ordinal of -1 yields a nil vector: callers pass it for
// columns no kernel references, so they are never decoded.
func (d *Decoder) Decode(b *Batch, schema []types.DataType, ordinals []int) []*Vector {
	if len(d.slots) < len(ordinals) {
		d.slots = make([]decodeSlot, len(ordinals))
	}
	d.cols = GrowLane(d.cols[:0], len(ordinals))
	for j, ord := range ordinals {
		d.cols[j] = nil
		if ord >= 0 {
			d.cols[j] = d.slots[j].decode(b.Cols[ord], schema[j])
		}
	}
	return d.cols
}

// decode decodes one column, with a fast path per encoding (plain lanes are
// shared, dictionaries unbox the dictionary once, runs expand linearly) and
// a generic Get(i) loop for anything else.
func (s *decodeSlot) decode(c Column, t types.DataType) *Vector {
	kind := KindOf(t)
	switch col := c.(type) {
	case *longColumn:
		if kind == KindInt64 {
			s.view = Vector{Kind: KindInt64, Type: t, I64: col.data, n: len(col.data), nulls: invertValidity(s.view.nulls, col.valid)}
			return &s.view
		}
	case *doubleColumn:
		if kind == KindFloat64 {
			s.view = Vector{Kind: KindFloat64, Type: t, F64: col.data, n: len(col.data), nulls: invertValidity(s.view.nulls, col.valid)}
			return &s.view
		}
	case *stringColumn:
		if kind == KindString {
			v := ready(&s.own, t, col.Len())
			v.nulls = invertValidity(v.nulls, col.valid)
			for i := range v.n {
				if v.IsNull(i) {
					v.Str[i] = ""
				} else {
					v.Str[i] = col.data[col.offsets[i]:col.offsets[i+1]]
				}
			}
			return v
		}
	case *boolColumn:
		if kind == KindBool {
			v := ready(&s.own, t, col.n)
			v.nulls = invertValidity(v.nulls, col.valid)
			for i := range v.n {
				v.Bool[i] = col.bits[i/64]&(1<<(uint(i)%64)) != 0
			}
			return v
		}
	case *dictColumn:
		return s.decodeDict(col, t, kind)
	case *rleColumn:
		// Runs expand linearly: no per-row binary search.
		v := ready(&s.own, t, col.Len())
		v.zero()
		start := 0
		for ri, end := range col.ends {
			for i := start; i < int(end); i++ {
				v.Set(i, col.values[ri])
			}
			start = int(end)
		}
		return v
	}
	// The catch-all: one Get per value (boxed columns, or any future Column
	// implementation).
	v := ready(&s.own, t, c.Len())
	v.zero()
	for i := range v.n {
		v.Set(i, c.Get(i))
	}
	return v
}

// decodeDict unboxes the (small) dictionary once, then fills by code.
func (s *decodeSlot) decodeDict(c *dictColumn, t types.DataType, kind VecKind) *Vector {
	v, dict := ready(&s.own, t, len(c.codes)), ready(&s.dict, t, len(c.dict))
	switch kind {
	case KindInt64:
		for i, d := range c.dict {
			dict.I64[i] = asInt64(d)
		}
		fillByCode(v, v.I64, dict.I64, c.codes)
	case KindFloat64:
		for i, d := range c.dict {
			dict.F64[i] = asFloat64(d)
		}
		fillByCode(v, v.F64, dict.F64, c.codes)
	case KindString:
		for i, d := range c.dict {
			dict.Str[i] = d.(string)
		}
		fillByCode(v, v.Str, dict.Str, c.codes)
	default:
		v.zero()
		for i, code := range c.codes {
			if code < 0 {
				v.SetNull(i)
			} else {
				v.Set(i, c.dict[code])
			}
		}
	}
	return v
}

// fillByCode writes lane[i] = dict[codes[i]], a negative code marking v's
// position i NULL (its lane value zero).
func fillByCode[T any](v *Vector, lane, dict []T, codes []int32) {
	var zero T
	for i, code := range codes {
		if code < 0 {
			lane[i] = zero
			v.SetNull(i)
			continue
		}
		lane[i] = dict[code]
	}
}

// ready makes v, a vector the decoder owns, hold n rows of type t, none of
// them NULL, in lanes it keeps from batch to batch.
func ready(v *Vector, t types.DataType, n int) *Vector {
	if kind := KindOf(t); v.Kind != kind {
		*v = Vector{Kind: kind}
	}
	v.Renew(t, n)
	return v
}

// zero clears the vector's lane, so positions nothing writes hold zero values
// as in a fresh vector.
func (v *Vector) zero() {
	clear(v.I64)
	clear(v.F64)
	clear(v.Str)
	clear(v.Bool)
	clear(v.Any)
}

// invertValidity writes a validity bitmap (bit set = valid, nil = no nulls)
// as a null bitmap (bit set = NULL, empty = no nulls) into dst's backing
// array. Trailing bits beyond the row count are garbage; accessors never index
// past Len.
func invertValidity(dst []uint64, valid validity) []uint64 {
	dst = dst[:0]
	for _, w := range valid {
		dst = append(dst, ^w)
	}
	return dst
}
