package expr

import (
	"fmt"
	"sort"

	"repro/internal/row"
	"repro/internal/types"
)

// AggregateFunc is an aggregate expression (count/sum/avg/min/max/first).
// Aggregates evaluate in two phases matching the physical plan's
// partial+final hash aggregation: Update folds input rows into a buffer on
// each partition, Merge combines partition buffers after the shuffle, and
// Result extracts the final value. Eval on an aggregate panics — aggregates
// only ever run through buffers.
type AggregateFunc interface {
	Expression
	// NewBuffer allocates an empty aggregation buffer.
	NewBuffer() any
	// Update folds one input row into the buffer and returns it.
	Update(buf any, r row.Row) any
	// Merge combines two buffers (partial aggregation across partitions).
	Merge(a, b any) any
	// Result extracts the aggregate value from a buffer.
	Result(buf any) any
	// EncodeBuffer flattens a buffer into a Row of spill-codec values — the
	// buffer's form in a spilled group record — and DecodeBuffer rebuilds an
	// equivalent buffer from it.
	EncodeBuffer(buf any) row.Row
	DecodeBuffer(r row.Row) any
}

// ContainsAggregate reports whether e has an AggregateFunc anywhere in its
// tree (used by the analyzer to turn projections into Aggregate plans).
func ContainsAggregate(e Expression) bool {
	if _, ok := e.(AggregateFunc); ok {
		return true
	}
	for _, c := range e.Children() {
		if ContainsAggregate(c) {
			return true
		}
	}
	return false
}

func aggEvalPanic(e Expression) any {
	panic(fmt.Sprintf("expr: aggregate %s evaluated as a row expression; use buffers", e))
}

// ---------------------------------------------------------------------------
// COUNT

// Count is COUNT(child), counting non-NULL values; IsStar marks COUNT(*)
// (child is the literal 1, which is never NULL).
type Count struct {
	Child  Expression
	IsStar bool
}

// NewCountStar builds COUNT(*).
func NewCountStar() *Count { return &Count{Child: Lit(int64(1)), IsStar: true} }

func (c *Count) Children() []Expression { return []Expression{c.Child} }
func (c *Count) WithNewChildren(children []Expression) Expression {
	return &Count{Child: children[0], IsStar: c.IsStar}
}
func (c *Count) DataType() types.DataType { return types.Long }
func (c *Count) Nullable() bool           { return false }
func (c *Count) Resolved() bool           { return ChildrenResolved(c) }
func (c *Count) String() string {
	if c.IsStar {
		return "count(*)"
	}
	return fmt.Sprintf("count(%s)", c.Child)
}
func (c *Count) Eval(r row.Row) any { return aggEvalPanic(c) }
func (c *Count) NewBuffer() any     { return int64(0) }
func (c *Count) Update(buf any, r row.Row) any {
	if c.Child.Eval(r) != nil {
		return buf.(int64) + 1
	}
	return buf
}
func (c *Count) Merge(a, b any) any { return a.(int64) + b.(int64) }
func (c *Count) Result(buf any) any { return buf.(int64) }

func (c *Count) EncodeBuffer(buf any) row.Row { return row.New(buf.(int64)) }
func (c *Count) DecodeBuffer(r row.Row) any   { return r[0].(int64) }

// ---------------------------------------------------------------------------
// SUM

// Sum is SUM(child). Integer inputs widen to BIGINT, floats to DOUBLE, and
// DECIMAL(p,s) to DECIMAL(p+10,s) — the widening the DecimalAggregates
// optimization (paper §4.3.2) rewrites into unscaled LONG arithmetic.
type Sum struct {
	Child Expression
}

func (s *Sum) Children() []Expression { return []Expression{s.Child} }
func (s *Sum) WithNewChildren(children []Expression) Expression {
	return &Sum{Child: children[0]}
}
func (s *Sum) DataType() types.DataType {
	switch t := s.Child.DataType().(type) {
	case types.DecimalType:
		return types.DecimalType{Precision: t.Precision + 10, Scale: t.Scale}
	default:
		if types.IsIntegral(t) {
			return types.Long
		}
		return types.Double
	}
}
func (s *Sum) Nullable() bool { return true } // empty group sums to NULL
func (s *Sum) Resolved() bool {
	return ChildrenResolved(s) && types.IsNumeric(s.Child.DataType())
}
func (s *Sum) String() string     { return fmt.Sprintf("sum(%s)", s.Child) }
func (s *Sum) Eval(r row.Row) any { return aggEvalPanic(s) }

type sumBuffer struct {
	seen bool
	i    int64
	f    float64
	d    types.Decimal
}

func (s *Sum) kind() int {
	switch s.Child.DataType().(type) {
	case types.DecimalType:
		return 2
	}
	if types.IsIntegral(s.Child.DataType()) {
		return 0
	}
	return 1
}

func (s *Sum) NewBuffer() any { return &sumBuffer{} }
func (s *Sum) Update(buf any, r row.Row) any {
	v := s.Child.Eval(r)
	if v == nil {
		return buf
	}
	b := buf.(*sumBuffer)
	b.seen = true
	switch s.kind() {
	case 0:
		b.i += asInt64(v)
	case 1:
		f, _ := toFloat(v)
		b.f += f
	case 2:
		b.d = b.d.Add(v.(types.Decimal))
	}
	return b
}
func (s *Sum) Merge(a, b any) any {
	x, y := a.(*sumBuffer), b.(*sumBuffer)
	if !y.seen {
		return x
	}
	x.seen = true
	x.i += y.i
	x.f += y.f
	x.d = x.d.Add(y.d)
	return x
}
func (s *Sum) Result(buf any) any {
	b := buf.(*sumBuffer)
	if !b.seen {
		return nil
	}
	switch s.kind() {
	case 0:
		return b.i
	case 1:
		return b.f
	default:
		scale := s.Child.DataType().(types.DecimalType).Scale
		return b.d.Rescale(scale)
	}
}

func (s *Sum) EncodeBuffer(buf any) row.Row {
	b := buf.(*sumBuffer)
	return row.New(b.seen, b.i, b.f, b.d)
}
func (s *Sum) DecodeBuffer(r row.Row) any {
	return &sumBuffer{seen: r[0].(bool), i: r[1].(int64), f: r[2].(float64), d: r[3].(types.Decimal)}
}

// ---------------------------------------------------------------------------
// AVG

// Avg is AVG(child); the result is DOUBLE for every numeric input (decimal
// inputs are converted), keeping the buffer a simple (sum, count) pair.
type Avg struct {
	Child Expression
}

func (a *Avg) Children() []Expression { return []Expression{a.Child} }
func (a *Avg) WithNewChildren(children []Expression) Expression {
	return &Avg{Child: children[0]}
}
func (a *Avg) DataType() types.DataType { return types.Double }
func (a *Avg) Nullable() bool           { return true }
func (a *Avg) Resolved() bool {
	return ChildrenResolved(a) && types.IsNumeric(a.Child.DataType())
}
func (a *Avg) String() string     { return fmt.Sprintf("avg(%s)", a.Child) }
func (a *Avg) Eval(r row.Row) any { return aggEvalPanic(a) }

type avgBuffer struct {
	sum   float64
	count int64
}

func (a *Avg) NewBuffer() any { return &avgBuffer{} }
func (a *Avg) Update(buf any, r row.Row) any {
	v := a.Child.Eval(r)
	if v == nil {
		return buf
	}
	b := buf.(*avgBuffer)
	f, _ := toFloat(v)
	b.sum += f
	b.count++
	return b
}
func (a *Avg) Merge(x, y any) any {
	bx, by := x.(*avgBuffer), y.(*avgBuffer)
	bx.sum += by.sum
	bx.count += by.count
	return bx
}
func (a *Avg) Result(buf any) any {
	b := buf.(*avgBuffer)
	if b.count == 0 {
		return nil
	}
	return b.sum / float64(b.count)
}

func (a *Avg) EncodeBuffer(buf any) row.Row {
	b := buf.(*avgBuffer)
	return row.New(b.sum, b.count)
}
func (a *Avg) DecodeBuffer(r row.Row) any {
	return &avgBuffer{sum: r[0].(float64), count: r[1].(int64)}
}

// ---------------------------------------------------------------------------
// MIN / MAX

// MinMax is MIN or MAX over any ordered type.
type MinMax struct {
	Child Expression
	IsMax bool
}

// NewMin builds MIN(child).
func NewMin(child Expression) *MinMax { return &MinMax{Child: child} }

// NewMax builds MAX(child).
func NewMax(child Expression) *MinMax { return &MinMax{Child: child, IsMax: true} }

func (m *MinMax) Children() []Expression { return []Expression{m.Child} }
func (m *MinMax) WithNewChildren(children []Expression) Expression {
	return &MinMax{Child: children[0], IsMax: m.IsMax}
}
func (m *MinMax) DataType() types.DataType { return m.Child.DataType() }
func (m *MinMax) Nullable() bool           { return true }
func (m *MinMax) Resolved() bool {
	return ChildrenResolved(m) && types.IsOrdered(m.Child.DataType())
}
func (m *MinMax) String() string {
	if m.IsMax {
		return fmt.Sprintf("max(%s)", m.Child)
	}
	return fmt.Sprintf("min(%s)", m.Child)
}
func (m *MinMax) Eval(r row.Row) any { return aggEvalPanic(m) }

type minmaxBuffer struct{ v any }

func (m *MinMax) NewBuffer() any { return &minmaxBuffer{} }
func (m *MinMax) Update(buf any, r row.Row) any {
	v := m.Child.Eval(r)
	if v == nil {
		return buf
	}
	b := buf.(*minmaxBuffer)
	b.v = m.pick(b.v, v)
	return b
}
func (m *MinMax) Merge(a, b any) any {
	x, y := a.(*minmaxBuffer), b.(*minmaxBuffer)
	if y.v != nil {
		x.v = m.pick(x.v, y.v)
	}
	return x
}
func (m *MinMax) Result(buf any) any { return buf.(*minmaxBuffer).v }

func (m *MinMax) EncodeBuffer(buf any) row.Row { return row.New(buf.(*minmaxBuffer).v) }
func (m *MinMax) DecodeBuffer(r row.Row) any   { return &minmaxBuffer{v: r[0]} }
func (m *MinMax) pick(cur, v any) any {
	if cur == nil {
		return v
	}
	c := row.Compare(v, cur)
	if (m.IsMax && c > 0) || (!m.IsMax && c < 0) {
		return v
	}
	return cur
}

// ---------------------------------------------------------------------------
// FIRST

// First returns the first non-NULL value seen (order-dependent; useful for
// carrying grouped-by-function columns through an aggregate).
type First struct {
	Child Expression
}

func (f *First) Children() []Expression { return []Expression{f.Child} }
func (f *First) WithNewChildren(children []Expression) Expression {
	return &First{Child: children[0]}
}
func (f *First) DataType() types.DataType { return f.Child.DataType() }
func (f *First) Nullable() bool           { return true }
func (f *First) Resolved() bool           { return ChildrenResolved(f) }
func (f *First) String() string           { return fmt.Sprintf("first(%s)", f.Child) }
func (f *First) Eval(r row.Row) any       { return aggEvalPanic(f) }

type firstBuffer struct{ v any }

func (f *First) NewBuffer() any { return &firstBuffer{} }
func (f *First) Update(buf any, r row.Row) any {
	b := buf.(*firstBuffer)
	if b.v == nil {
		b.v = f.Child.Eval(r)
	}
	return b
}
func (f *First) Merge(a, b any) any {
	x, y := a.(*firstBuffer), b.(*firstBuffer)
	if x.v == nil {
		x.v = y.v
	}
	return x
}
func (f *First) Result(buf any) any { return buf.(*firstBuffer).v }

func (f *First) EncodeBuffer(buf any) row.Row { return row.New(buf.(*firstBuffer).v) }
func (f *First) DecodeBuffer(r row.Row) any   { return &firstBuffer{v: r[0]} }

// ---------------------------------------------------------------------------
// COUNT(DISTINCT)

// CountDistinct counts distinct non-NULL values of its child.
type CountDistinct struct {
	Child Expression
}

func (c *CountDistinct) Children() []Expression { return []Expression{c.Child} }
func (c *CountDistinct) WithNewChildren(children []Expression) Expression {
	return &CountDistinct{Child: children[0]}
}
func (c *CountDistinct) DataType() types.DataType { return types.Long }
func (c *CountDistinct) Nullable() bool           { return false }
func (c *CountDistinct) Resolved() bool           { return ChildrenResolved(c) }
func (c *CountDistinct) String() string           { return fmt.Sprintf("count(DISTINCT %s)", c.Child) }
func (c *CountDistinct) Eval(r row.Row) any       { return aggEvalPanic(c) }

type distinctBuffer struct{ seen map[string]struct{} }

func (c *CountDistinct) NewBuffer() any { return &distinctBuffer{seen: map[string]struct{}{}} }
func (c *CountDistinct) Update(buf any, r row.Row) any {
	v := c.Child.Eval(r)
	if v == nil {
		return buf
	}
	b := buf.(*distinctBuffer)
	b.seen[row.GroupKey(row.New(v), []int{0})] = struct{}{}
	return b
}
func (c *CountDistinct) Merge(a, b any) any {
	x, y := a.(*distinctBuffer), b.(*distinctBuffer)
	for k := range y.seen {
		x.seen[k] = struct{}{}
	}
	return x
}
func (c *CountDistinct) Result(buf any) any {
	return int64(len(buf.(*distinctBuffer).seen))
}

func (c *CountDistinct) EncodeBuffer(buf any) row.Row {
	b := buf.(*distinctBuffer)
	keys := make([]string, 0, len(b.seen))
	for k := range b.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic spill bytes
	vals := make([]any, len(keys))
	for i, k := range keys {
		vals[i] = k
	}
	return row.New(any(vals))
}
func (c *CountDistinct) DecodeBuffer(r row.Row) any {
	vals := r[0].([]any)
	seen := make(map[string]struct{}, len(vals))
	for _, v := range vals {
		seen[v.(string)] = struct{}{}
	}
	return &distinctBuffer{seen: seen}
}
