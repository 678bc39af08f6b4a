package expr

import (
	"math"

	"repro/internal/columnar"
	"repro/internal/row"
	"repro/internal/types"
)

// This file holds the aggregation state lanes behind both phases of grouped
// aggregation (physical.HashAggregateExec and its presplit exchange): one
// VecAggregator per aggregate function keeps dense per-group state in typed
// slices — COUNT an []int64, SUM a value lane plus a seen lane, AVG sum and
// count lanes, MIN/MAX a typed value lane plus a seen lane, and a boxed
// buffer lane for FIRST, COUNT(DISTINCT) and unknown aggregates. Phase 1
// fills the lanes from column vectors — a pipeline's, or a row input's
// transposed into lanes; the lanes themselves are what crosses the exchange; the
// reducer merges lanes into lanes and turns them into result columns. Boxed
// scalar buffers exist only behind Buffer and SetBuffer: the per-group view a
// reducer encodes into a spilled group record, and its way back into a lane.

// VecAggregator accumulates one aggregate into dense per-group state lanes.
type VecAggregator interface {
	// Update folds a batch into the group state: sel lists the selected
	// batch positions, gidx[k] is the dense group index of sel[k], and n is
	// the current total group count (state grows to n).
	Update(b *VecBatch, sel []int32, gidx []int32, n int)
	// Merge folds src's groups sel[k] into this accumulator's groups
	// gidx[k], growing to n groups. src must come from the same constructor
	// over the same aggregate; it is only read.
	Merge(src VecAggregator, sel []int32, gidx []int32, n int)
	// Result returns the aggregate's value column over groups [0, n),
	// growing to n first (so an empty accumulator yields the empty-input
	// value). The column may alias the lanes; the accumulator is spent.
	Result(n int) *columnar.Vector
	// Buffer returns group g's state as a standard aggregation buffer —
	// exactly what fn.Merge, fn.Result and fn.EncodeBuffer accept.
	Buffer(g int) any
	// SetBuffer is Buffer's inverse: it grows to g+1 groups and makes group
	// g's state the buffer's, so a decoded block of spilled group records is a
	// lane Merge accepts as src.
	SetBuffer(g int, buf any)
	// Reserve makes room for n groups without growing to them: a reducer that
	// knows its group count up front grows its lanes in place, and Result(m)
	// is still exactly m long.
	Reserve(n int)
}

// NewVecAggregator builds a batch-native updater for a bound aggregate.
// The boolean reports whether the child expression compiled to a native
// vector kernel; even when false the updater is correct (it reads boxed
// values back out of the fallback vector), and unknown aggregate types get
// a per-row scalar escape hatch.
func NewVecAggregator(fn AggregateFunc) (VecAggregator, bool) {
	nativeClass := func(child Expression) (VecEval, int, bool) {
		ev, native := CompileVec(child)
		if !native {
			return ev, classNone, false
		}
		return ev, vecClass(child.DataType()), true
	}
	switch x := fn.(type) {
	case *Count:
		child, native := CompileVec(x.Child)
		return &vecCount{child: child}, native
	case *Sum:
		child, cls, native := nativeClass(x.Child)
		return &vecSum{fn: x, kind: x.kind(), child: child, cls: cls}, native
	case *Avg:
		child, cls, native := nativeClass(x.Child)
		return &vecAvg{child: child, cls: cls}, native
	case *MinMax:
		child, cls, native := nativeClass(x.Child)
		return &vecMinMax{fn: x, child: child, cls: cls}, native
	case *First:
		child, native := CompileVec(x.Child)
		return &vecFirst{BoxedAggregator{fn: fn}, child}, native
	case *CountDistinct:
		child, native := CompileVec(x.Child)
		return &vecDistinct{BoxedAggregator{fn: fn}, child}, native
	}
	return NewBoxedAggregator(fn), false
}

// boxedResult builds a result column through the scalar buffers — the route
// for state with no typed result lane (decimal sums, boxed extrema, boxed
// buffer lanes).
func boxedResult(fn AggregateFunc, a VecAggregator, n int) *columnar.Vector {
	out := NewClassVector(fn.DataType(), n)
	for g := 0; g < n; g++ {
		out.Set(g, fn.Result(a.Buffer(g)))
	}
	return out
}

// vecCount counts non-NULL child values per group (COUNT(*)'s child is a
// non-null literal, so it takes the same loop).
type vecCount struct {
	child  VecEval
	counts []int64
}

func (a *vecCount) Update(b *VecBatch, sel []int32, gidx []int32, n int) {
	a.counts = columnar.GrowLane(a.counts, n)
	v := a.child(b, sel)
	if !v.HasNulls() {
		for k := range sel {
			a.counts[gidx[k]]++
		}
		return
	}
	for k, i := range sel {
		if !v.IsNull(int(i)) {
			a.counts[gidx[k]]++
		}
	}
}
func (a *vecCount) Merge(src VecAggregator, sel []int32, gidx []int32, n int) {
	s := src.(*vecCount)
	a.counts = columnar.GrowLane(a.counts, n)
	for k, i := range sel {
		a.counts[gidx[k]] += s.counts[i]
	}
}
func (a *vecCount) Result(n int) *columnar.Vector {
	a.counts = columnar.GrowLane(a.counts, n)
	return columnar.WrapVector(types.Long, a.counts[:n], nil)
}
func (a *vecCount) Reserve(n int)    { a.counts = columnar.ReserveLane(a.counts, n) }
func (a *vecCount) Buffer(g int) any { return a.counts[g] }
func (a *vecCount) SetBuffer(g int, buf any) {
	a.counts = columnar.GrowLane(a.counts, g+1)
	a.counts[g] = buf.(int64)
}

// vecSum accumulates integral sums in int64, float sums in float64, and
// decimal sums through boxed Decimal addition.
type vecSum struct {
	fn    *Sum
	kind  int // Sum.kind(): 0 integral, 1 float, 2 decimal
	child VecEval
	cls   int
	seen  []bool
	i     []int64
	f     []float64
	d     []any // types.Decimal partial sums (nil = zero)
}

// grow extends the seen lane and the kind's value lane to n groups.
func (a *vecSum) grow(n int) {
	a.seen = columnar.GrowLane(a.seen, n)
	switch a.kind {
	case 0:
		a.i = columnar.GrowLane(a.i, n)
	case 1:
		a.f = columnar.GrowLane(a.f, n)
	default:
		a.d = columnar.GrowLane(a.d, n)
	}
}

func (a *vecSum) Reserve(n int) {
	a.seen = columnar.ReserveLane(a.seen, n)
	switch a.kind {
	case 0:
		a.i = columnar.ReserveLane(a.i, n)
	case 1:
		a.f = columnar.ReserveLane(a.f, n)
	default:
		a.d = columnar.ReserveLane(a.d, n)
	}
}

func (a *vecSum) Update(b *VecBatch, sel []int32, gidx []int32, n int) {
	a.fold(a.child(b, sel), a.cls, sel, gidx, n)
}

// Merge: the sum of partial sums is the sum, so src's partials fold in as
// one more input column (whose class is the sum lane's own).
func (a *vecSum) Merge(src VecAggregator, sel []int32, gidx []int32, n int) {
	a.fold(src.(*vecSum).partials(), [...]int{classI64, classF64, classNone}[a.kind], sel, gidx, n)
}

// fold adds column v (of value class cls) into the groups.
func (a *vecSum) fold(v *columnar.Vector, cls int, sel []int32, gidx []int32, n int) {
	a.grow(n)
	m := v.Mask()
	switch {
	case a.kind == 0 && cls == classI64:
		for k, i := range sel {
			ii := int(i)
			if v.IsNull(ii) {
				continue
			}
			g := gidx[k]
			a.seen[g] = true
			a.i[g] += v.I64[ii&m]
		}
	case a.kind == 1 && cls == classF64:
		for k, i := range sel {
			ii := int(i)
			if v.IsNull(ii) {
				continue
			}
			g := gidx[k]
			a.seen[g] = true
			a.f[g] += v.F64[ii&m]
		}
	default: // boxed input: fallback kernels, FLOAT / SMALLINT children, decimals
		for k, i := range sel {
			val := v.Get(int(i))
			if val == nil {
				continue
			}
			g := gidx[k]
			a.seen[g] = true
			switch a.kind {
			case 0:
				a.i[g] += asInt64(val)
			case 1:
				f, _ := toFloat(val)
				a.f[g] += f
			default:
				cur, _ := a.d[g].(types.Decimal)
				a.d[g] = cur.Add(val.(types.Decimal))
			}
		}
	}
}

// partials views the sum lanes as a column, NULL where nothing was summed.
// It only reads the lanes (reducers merge one map output concurrently).
func (a *vecSum) partials() *columnar.Vector {
	switch a.kind {
	case 0:
		return columnar.WrapVector(types.Long, a.i, a.seen)
	case 1:
		return columnar.WrapVector(types.Double, a.f, a.seen)
	}
	return columnar.WrapVector(a.fn.DataType(), a.d, a.seen)
}

func (a *vecSum) Result(n int) *columnar.Vector {
	a.grow(n)
	if a.kind == 2 {
		return boxedResult(a.fn, a, n) // rescales
	}
	return a.partials()
}

func (a *vecSum) Buffer(g int) any {
	buf := &sumBuffer{seen: a.seen[g]}
	switch a.kind {
	case 0:
		buf.i = a.i[g]
	case 1:
		buf.f = a.f[g]
	default:
		buf.d, _ = a.d[g].(types.Decimal)
	}
	return buf
}

func (a *vecSum) SetBuffer(g int, buf any) {
	b := buf.(*sumBuffer)
	a.grow(g + 1)
	a.seen[g] = b.seen
	switch a.kind {
	case 0:
		a.i[g] = b.i
	case 1:
		a.f[g] = b.f
	default:
		a.d[g] = b.d
	}
}

// vecAvg keeps (sum, count) pairs, reading the numeric lanes directly when
// the child vectorized.
type vecAvg struct {
	child  VecEval
	cls    int
	sums   []float64
	counts []int64
}

func (a *vecAvg) Reserve(n int) {
	a.sums, a.counts = columnar.ReserveLane(a.sums, n), columnar.ReserveLane(a.counts, n)
}

func (a *vecAvg) Update(b *VecBatch, sel []int32, gidx []int32, n int) {
	a.sums = columnar.GrowLane(a.sums, n)
	a.counts = columnar.GrowLane(a.counts, n)
	v := a.child(b, sel)
	m := v.Mask()
	switch a.cls {
	case classF64:
		for k, i := range sel {
			ii := int(i)
			if v.IsNull(ii) {
				continue
			}
			g := gidx[k]
			a.sums[g] += v.F64[ii&m]
			a.counts[g]++
		}
	case classI64:
		for k, i := range sel {
			ii := int(i)
			if v.IsNull(ii) {
				continue
			}
			g := gidx[k]
			a.sums[g] += float64(v.I64[ii&m])
			a.counts[g]++
		}
	default:
		for k, i := range sel {
			val := v.Get(int(i))
			if val == nil {
				continue
			}
			g := gidx[k]
			f, _ := toFloat(val)
			a.sums[g] += f
			a.counts[g]++
		}
	}
}

func (a *vecAvg) Merge(src VecAggregator, sel []int32, gidx []int32, n int) {
	s := src.(*vecAvg)
	a.sums = columnar.GrowLane(a.sums, n)
	a.counts = columnar.GrowLane(a.counts, n)
	for k, i := range sel {
		a.sums[gidx[k]] += s.sums[i]
		a.counts[gidx[k]] += s.counts[i]
	}
}

func (a *vecAvg) Result(n int) *columnar.Vector {
	a.sums = columnar.GrowLane(a.sums, n)
	a.counts = columnar.GrowLane(a.counts, n)
	valid := make([]bool, n)
	for g, c := range a.counts[:n] {
		if c > 0 {
			a.sums[g] /= float64(c)
			valid[g] = true
		}
	}
	return columnar.WrapVector(types.Double, a.sums[:n], valid)
}

func (a *vecAvg) Buffer(g int) any {
	return &avgBuffer{sum: a.sums[g], count: a.counts[g]}
}

func (a *vecAvg) SetBuffer(g int, buf any) {
	b := buf.(*avgBuffer)
	a.sums, a.counts = columnar.GrowLane(a.sums, g+1), columnar.GrowLane(a.counts, g+1)
	a.sums[g], a.counts[g] = b.sum, b.count
}

// f64Less orders float64 the way row.Compare does: NaN sorts greatest.
func f64Less(a, b float64) bool {
	switch {
	case math.IsNaN(a):
		return false
	case math.IsNaN(b):
		return true
	default:
		return a < b
	}
}

// vecMinMax keeps typed extrema for the int64/float64/string classes and
// boxes only behind Buffer; other child types fold boxed values with the
// interpreter's own comparison.
type vecMinMax struct {
	fn    *MinMax
	child VecEval
	cls   int
	has   []bool
	vi    []int64
	vf    []float64
	vs    []string
	va    []any // classNone fallback state
}

// grow extends the seen lane and the class's value lane to n groups.
func (a *vecMinMax) grow(n int) {
	a.has = columnar.GrowLane(a.has, n)
	switch a.cls {
	case classI64:
		a.vi = columnar.GrowLane(a.vi, n)
	case classF64:
		a.vf = columnar.GrowLane(a.vf, n)
	case classStr:
		a.vs = columnar.GrowLane(a.vs, n)
	default:
		a.va = columnar.GrowLane(a.va, n)
	}
}

func (a *vecMinMax) Reserve(n int) {
	a.has = columnar.ReserveLane(a.has, n)
	switch a.cls {
	case classI64:
		a.vi = columnar.ReserveLane(a.vi, n)
	case classF64:
		a.vf = columnar.ReserveLane(a.vf, n)
	case classStr:
		a.vs = columnar.ReserveLane(a.vs, n)
	default:
		a.va = columnar.ReserveLane(a.va, n)
	}
}

func (a *vecMinMax) Update(b *VecBatch, sel []int32, gidx []int32, n int) {
	a.fold(a.child(b, sel), sel, gidx, n)
}

// Merge: the extremum of partial extrema is the extremum, so src's partials
// fold in as one more input column.
func (a *vecMinMax) Merge(src VecAggregator, sel []int32, gidx []int32, n int) {
	a.fold(src.(*vecMinMax).partials(), sel, gidx, n)
}

// foldOrdered folds a typed lane under Update's rule: a strictly better value
// replaces, a tie keeps the first.
func foldOrdered[T int64 | string](lane []T, has []bool, data []T, v *columnar.Vector, sel, gidx []int32, isMax bool) {
	m := v.Mask()
	for k, i := range sel {
		ii := int(i)
		if v.IsNull(ii) {
			continue
		}
		g, x := gidx[k], data[ii&m]
		if !has[g] || (isMax && x > lane[g]) || (!isMax && x < lane[g]) {
			lane[g] = x
		}
		has[g] = true
	}
}

func (a *vecMinMax) fold(v *columnar.Vector, sel []int32, gidx []int32, n int) {
	a.grow(n)
	isMax := a.fn.IsMax
	switch a.cls {
	case classI64:
		foldOrdered(a.vi, a.has, v.I64, v, sel, gidx, isMax)
	case classStr:
		foldOrdered(a.vs, a.has, v.Str, v, sel, gidx, isMax)
	case classF64:
		m := v.Mask()
		for k, i := range sel {
			ii := int(i)
			if v.IsNull(ii) {
				continue
			}
			g, x := gidx[k], v.F64[ii&m]
			if !a.has[g] || (isMax && f64Less(a.vf[g], x)) || (!isMax && f64Less(x, a.vf[g])) {
				a.vf[g] = x
			}
			a.has[g] = true
		}
	default:
		for k, i := range sel {
			val := v.Get(int(i))
			if val == nil {
				continue
			}
			g := gidx[k]
			a.va[g] = a.fn.pick(a.va[g], val)
			a.has[g] = true
		}
	}
}

// partials views the extrema lane as a column, NULL where nothing was seen.
// It only reads the lanes (reducers merge one map output concurrently).
func (a *vecMinMax) partials() *columnar.Vector {
	t := a.fn.Child.DataType()
	switch a.cls {
	case classI64:
		return columnar.WrapVector(t, a.vi, a.has)
	case classF64:
		return columnar.WrapVector(t, a.vf, a.has)
	case classStr:
		return columnar.WrapVector(t, a.vs, a.has)
	}
	return columnar.WrapVector(t, a.va, a.has)
}

func (a *vecMinMax) Result(n int) *columnar.Vector {
	a.grow(n)
	if a.cls == classNone {
		return boxedResult(a.fn, a, n) // lands class-typed values in a typed lane
	}
	return a.partials()
}

func (a *vecMinMax) Buffer(g int) any {
	if !a.has[g] {
		return &minmaxBuffer{}
	}
	switch a.cls {
	case classI64:
		if t := a.fn.Child.DataType(); t.Equals(types.Int) || t.Equals(types.Date) {
			return &minmaxBuffer{v: int32(a.vi[g])}
		}
		return &minmaxBuffer{v: a.vi[g]}
	case classF64:
		return &minmaxBuffer{v: a.vf[g]}
	case classStr:
		return &minmaxBuffer{v: a.vs[g]}
	default:
		return &minmaxBuffer{v: a.va[g]}
	}
}

// SetBuffer clears group g and folds the buffer's value in as a one-row
// column, so it lands in the typed lane under fold's own conversions.
func (a *vecMinMax) SetBuffer(g int, buf any) {
	a.grow(g + 1)
	a.has[g] = false
	v := NewClassVector(a.fn.Child.DataType(), 1)
	v.Set(0, buf.(*minmaxBuffer).v)
	a.fold(v, []int32{0}, []int32{int32(g)}, g+1)
}

// BoxedAggregator is the boxed buffer lane: one scalar aggregation buffer
// per group, folded through the aggregate's own Update / Merge / Result. It
// is every accumulator of the interpreted engine, the accumulator of
// aggregate types this file does not know, and the state behind FIRST and
// COUNT(DISTINCT), whose buffers have no typed form.
type BoxedAggregator struct {
	fn      AggregateFunc
	bufs    []any
	scratch row.Row
}

// NewBoxedAggregator builds the boxed lane for any aggregate.
func NewBoxedAggregator(fn AggregateFunc) *BoxedAggregator { return &BoxedAggregator{fn: fn} }

func (a *BoxedAggregator) grow(n int) {
	for len(a.bufs) < n {
		a.bufs = append(a.bufs, a.fn.NewBuffer())
	}
}

func (a *BoxedAggregator) Reserve(n int) { a.bufs = columnar.ReserveLane(a.bufs, n) }

// Update boxes each selected row into a reused scratch and runs the scalar
// Update — correct for any AggregateFunc, never fast.
func (a *BoxedAggregator) Update(b *VecBatch, sel []int32, gidx []int32, n int) {
	a.grow(n)
	if len(a.scratch) != len(b.Cols) {
		a.scratch = make(row.Row, len(b.Cols))
	}
	for k, i := range sel {
		g := gidx[k]
		a.bufs[g] = a.fn.Update(a.bufs[g], b.RowInto(int(i), a.scratch))
	}
}

// Merge always folds into this lane's own buffers (never adopts src's), so a
// retried or speculative reduce task re-reads an unmodified map output.
func (a *BoxedAggregator) Merge(src VecAggregator, sel []int32, gidx []int32, n int) {
	a.grow(n)
	for k, i := range sel {
		g := gidx[k]
		a.bufs[g] = a.fn.Merge(a.bufs[g], src.Buffer(int(i)))
	}
}

func (a *BoxedAggregator) Result(n int) *columnar.Vector {
	a.grow(n)
	return boxedResult(a.fn, a, n)
}
func (a *BoxedAggregator) Buffer(g int) any { return a.bufs[g] }
func (a *BoxedAggregator) SetBuffer(g int, buf any) {
	if a.grow(g); g == len(a.bufs) {
		a.bufs = append(a.bufs, buf)
	} else {
		a.bufs[g] = buf
	}
}

// vecFirst fills the boxed lane from the child vector: the first non-NULL
// child value in batch order, matching the scalar First exactly.
type vecFirst struct {
	BoxedAggregator
	child VecEval
}

func (a *vecFirst) Update(b *VecBatch, sel []int32, gidx []int32, n int) {
	a.grow(n)
	v := a.child(b, sel)
	for k, i := range sel {
		buf := a.bufs[gidx[k]].(*firstBuffer)
		if ii := int(i); buf.v == nil && !v.IsNull(ii) {
			buf.v = v.Get(ii)
		}
	}
}

// vecDistinct mirrors CountDistinct's per-group key sets (values box to
// compute the injective GroupKey encoding, exactly as the scalar path does).
type vecDistinct struct {
	BoxedAggregator
	child VecEval
}

var ord0 = []int{0}

func (a *vecDistinct) Update(b *VecBatch, sel []int32, gidx []int32, n int) {
	a.grow(n)
	v := a.child(b, sel)
	for k, i := range sel {
		ii := int(i)
		if v.IsNull(ii) {
			continue
		}
		a.bufs[gidx[k]].(*distinctBuffer).seen[row.GroupKey(row.New(v.Get(ii)), ord0)] = struct{}{}
	}
}
