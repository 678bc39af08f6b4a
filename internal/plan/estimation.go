package plan

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/stats"
	"repro/internal/types"
)

// This file is the estimation side of cost-based planning (paper §4.3.3:
// "costs can be estimated recursively for a whole tree using a rule").
// Leaves report collected statistics (internal/stats) when available;
// operators propagate them: predicate selectivity from min/max ranges and
// 1/NDV equality, join cardinality |L|·|R|/max(ndv), aggregate cardinality
// from group-key NDVs. Unknowns degrade to conservative defaults so that
// relations without statistics are never mistaken for broadcastable.

// ColumnStat is a per-column estimate, keyed by attribute ID in Statistics
// so it survives projection, aliasing and join-side deduplication.
type ColumnStat struct {
	// Min and Max bound the non-NULL values (nil = unknown).
	Min, Max any
	// NullCount counts NULLs (meaningful only alongside RowCount).
	NullCount int64
	// NDV estimates distinct non-NULL values (0 = unknown).
	NDV int64
	// AvgWidth is the average value width in bytes (0 = unknown).
	AvgWidth float64
}

// Statistics carries the estimates driving cost-based decisions
// (broadcast join selection, join ordering, shuffle sizing).
type Statistics struct {
	// SizeInBytes estimates the operator's output volume.
	SizeInBytes int64
	// RowCount estimates output cardinality; 0 means unknown.
	RowCount int64
	// Columns holds per-column statistics for output attributes that have
	// them (may be nil).
	Columns map[expr.ID]*ColumnStat
}

// EstString renders the estimate as it appears in EXPLAIN annotations.
func (s Statistics) EstString() string {
	var buf [64]byte // the string is the one allocation
	b := append(buf[:0], "est: "...)
	if s.RowCount > 0 {
		b = strconv.AppendInt(b, s.RowCount, 10)
	} else {
		b = append(b, '?')
	}
	b = append(b, " rows, "...)
	return string(append(strconv.AppendInt(b, s.SizeInBytes, 10), " B"...))
}

// UnknownSizeInBytes is the "unknown, assume large" estimate — large enough
// that unknown relations are never broadcast (mirrors Spark's default).
// Exported so the physical planner can recognize unknown sizes when
// deriving shuffle partition counts.
const UnknownSizeInBytes = int64(1) << 40

const defaultSizeInBytes = UnknownSizeInBytes

// Default selectivities for predicates the estimator cannot resolve from
// column statistics.
const (
	defaultFilterSel = 0.5       // unrecognized predicate shape
	defaultEqSel     = 0.1       // equality without NDV
	defaultRangeSel  = 1.0 / 3.0 // range predicate without min/max
	defaultNullSel   = 0.1       // IS NULL without null counts
)

// Stats estimates statistics for a plan bottom-up.
func Stats(p LogicalPlan) Statistics {
	switch n := p.(type) {
	case *LocalRelation:
		if n.TableStats != nil {
			return leafStats(n.TableStats, n.Attrs)
		}
		return Statistics{SizeInBytes: n.flatSize(), RowCount: int64(len(n.Rows))}
	case *DataSourceRelation:
		if n.TableStats != nil {
			return leafStats(n.TableStats, n.Attrs)
		}
		if n.SizeHint > 0 {
			return Statistics{SizeInBytes: n.SizeHint}
		}
		return Statistics{SizeInBytes: defaultSizeInBytes}
	case *InMemoryRelation:
		if n.TableStats != nil {
			s := leafStats(n.TableStats, n.Attrs)
			// Size reflects the encoded cache, not flat widths.
			s.SizeInBytes = n.SizeInBytes
			s.RowCount = n.RowCount
			return s
		}
		return Statistics{SizeInBytes: n.SizeInBytes, RowCount: n.RowCount}
	case *LogicalRDD:
		if n.TableStats != nil {
			return leafStats(n.TableStats, n.Attrs)
		}
		if n.SizeHint > 0 {
			return Statistics{SizeInBytes: n.SizeHint}
		}
		return Statistics{SizeInBytes: defaultSizeInBytes}
	case *Range:
		cnt := n.Count()
		s := Statistics{SizeInBytes: 8 * cnt, RowCount: cnt}
		if cnt > 0 {
			last := n.Start + (cnt-1)*n.Step
			lo, hi := n.Start, last
			if lo > hi {
				lo, hi = hi, lo
			}
			s.Columns = map[expr.ID]*ColumnStat{
				n.Attr.ID_: {Min: lo, Max: hi, NDV: cnt, AvgWidth: 8},
			}
		}
		return s
	case *OneRowRelation:
		return Statistics{SizeInBytes: 8, RowCount: 1}
	case *Filter:
		s := ensureRowCount(Stats(n.Child), n.Child.Output())
		sel := Selectivity(n.Cond, s)
		return filterStats(s, sel, n.Cond)
	case *Project:
		s := ensureRowCount(Stats(n.Child), n.Child.Output())
		return projectStats(s, n.List, n.Output(), len(n.Child.Output()))
	case *Limit:
		s := ensureRowCount(Stats(n.Child), n.Child.Output())
		lim := int64(n.N)
		if s.RowCount > 0 && s.RowCount <= lim {
			return s
		}
		var per int64
		if s.RowCount > 0 {
			per = s.SizeInBytes / max64(s.RowCount, 1)
		} else {
			per = rowWidth(n.Output(), s.Columns)
		}
		return Statistics{
			SizeInBytes: clampSize(float64(max64(per, 1)) * float64(lim)),
			RowCount:    lim,
			Columns:     capNDV(s.Columns, lim),
		}
	case *Join:
		l := ensureRowCount(Stats(n.Left), n.Left.Output())
		r := ensureRowCount(Stats(n.Right), n.Right.Output())
		return joinStats(n, l, r)
	case *Aggregate:
		return aggregateStats(n, ensureRowCount(Stats(n.Child), n.Child.Output()))
	case *Distinct:
		s := ensureRowCount(Stats(n.Child), n.Child.Output())
		if s.RowCount == 0 {
			return s
		}
		rows := groupCount(s, AttrExprs(n.Output()))
		return Statistics{
			SizeInBytes: scaledSize(s, rows),
			RowCount:    rows,
			Columns:     capNDV(s.Columns, rows),
		}
	case *Sample:
		s := ensureRowCount(Stats(n.Child), n.Child.Output())
		out := Statistics{
			SizeInBytes: clampSize(float64(s.SizeInBytes) * n.Fraction),
			Columns:     s.Columns,
		}
		if s.RowCount > 0 {
			out.RowCount = max64(1, int64(math.Ceil(float64(s.RowCount)*n.Fraction)))
			out.Columns = capNDV(out.Columns, out.RowCount)
		}
		return out
	case *Sort:
		return Stats(n.Child)
	case *SubqueryAlias:
		return Stats(n.Child) // qualified attrs keep their IDs
	default:
		var total Statistics
		for _, c := range p.Children() {
			s := Stats(c)
			total.SizeInBytes += s.SizeInBytes
			total.RowCount += s.RowCount
		}
		if total.SizeInBytes == 0 {
			total.SizeInBytes = defaultSizeInBytes
		}
		return total
	}
}

// leafStats maps name-keyed collected statistics onto a leaf's attributes.
func leafStats(t *stats.Table, attrs []*expr.AttributeReference) Statistics {
	s := Statistics{
		SizeInBytes: t.SizeInBytes,
		RowCount:    t.RowCount,
		Columns:     make(map[expr.ID]*ColumnStat, len(attrs)),
	}
	if s.SizeInBytes <= 0 {
		s.SizeInBytes = defaultSizeInBytes
	}
	for _, a := range attrs {
		if c, ok := t.Columns[strings.ToLower(a.Name)]; ok {
			s.Columns[a.ID_] = &ColumnStat{
				Min: c.Min, Max: c.Max,
				NullCount: c.NullCount, NDV: c.NDV, AvgWidth: c.AvgWidth,
			}
		}
	}
	return s
}

// ensureRowCount derives a row count from a known size and estimated row
// width so that operators above a sized-but-uncounted relation still get
// cardinalities. The unknown-size default stays unknown.
func ensureRowCount(s Statistics, attrs []*expr.AttributeReference) Statistics {
	if s.RowCount > 0 || s.SizeInBytes <= 0 || s.SizeInBytes >= defaultSizeInBytes {
		return s
	}
	s.RowCount = max64(1, s.SizeInBytes/rowWidth(attrs, s.Columns))
	return s
}

// rowWidth estimates the flat width of one output row in bytes.
func rowWidth(attrs []*expr.AttributeReference, cols map[expr.ID]*ColumnStat) int64 {
	var w float64
	for _, a := range attrs {
		if c := cols[a.ID_]; c != nil && c.AvgWidth > 0 {
			w += c.AvgWidth
			continue
		}
		w += defaultWidth(a.Type)
	}
	if w < 1 {
		w = 1
	}
	return int64(math.Ceil(w))
}

func defaultWidth(t types.DataType) float64 {
	switch {
	case t.Equals(types.Boolean):
		return 1
	case t.Equals(types.Int), t.Equals(types.Float), t.Equals(types.Date):
		return 4
	case t.Equals(types.String), t.Equals(types.Binary):
		return 24
	default:
		return 8
	}
}

func clampSize(f float64) int64 {
	if f < 0 {
		return 0
	}
	if f >= float64(defaultSizeInBytes) {
		return defaultSizeInBytes
	}
	return int64(math.Ceil(f))
}

func scaledSize(s Statistics, rows int64) int64 {
	if s.RowCount <= 0 {
		return s.SizeInBytes
	}
	return clampSize(float64(s.SizeInBytes) * float64(rows) / float64(s.RowCount))
}

// capNDV clamps per-column NDVs at the (reduced) row count.
func capNDV(cols map[expr.ID]*ColumnStat, rows int64) map[expr.ID]*ColumnStat {
	if cols == nil || rows <= 0 {
		return cols
	}
	out := make(map[expr.ID]*ColumnStat, len(cols))
	for id, c := range cols {
		if c.NDV > rows {
			cc := *c
			cc.NDV = rows
			out[id] = &cc
		} else {
			out[id] = c
		}
	}
	return out
}

// AttrExprs views attributes as expressions: DISTINCT is a grouping on them.
func AttrExprs(attrs []*expr.AttributeReference) []expr.Expression {
	out := make([]expr.Expression, len(attrs))
	for i, a := range attrs {
		out[i] = a
	}
	return out
}

// ---------------------------------------------------------------------------
// Predicate selectivity

// Selectivity estimates the fraction of input rows a predicate keeps,
// always within [0, 1]. Column statistics in s refine the estimate;
// without them, conservative defaults apply.
func Selectivity(cond expr.Expression, s Statistics) float64 {
	return clamp01(selectivity(cond, s))
}

func clamp01(f float64) float64 {
	if math.IsNaN(f) || f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

func selectivity(cond expr.Expression, s Statistics) float64 {
	switch e := cond.(type) {
	case *expr.Literal:
		switch e.Value {
		case true:
			return 1
		case false, nil:
			return 0
		}
		return defaultFilterSel
	case *expr.And:
		return clamp01(selectivity(e.Left, s)) * clamp01(selectivity(e.Right, s))
	case *expr.Or:
		l, r := clamp01(selectivity(e.Left, s)), clamp01(selectivity(e.Right, s))
		return l + r - l*r
	case *expr.Not:
		return 1 - clamp01(selectivity(e.Child, s))
	case *expr.IsNull:
		return nullFraction(e.Child, s)
	case *expr.IsNotNull:
		return 1 - nullFraction(e.Child, s)
	case *expr.In:
		if a, ok := e.Value.(*expr.AttributeReference); ok {
			return clamp01(float64(len(e.List)) * eqSelectivity(s.Columns[a.ID_]))
		}
		return clamp01(float64(len(e.List)) * defaultEqSel)
	case *expr.Comparison:
		return comparisonSelectivity(e, s)
	default:
		return defaultFilterSel
	}
}

func nullFraction(child expr.Expression, s Statistics) float64 {
	if a, ok := child.(*expr.AttributeReference); ok {
		if c := s.Columns[a.ID_]; c != nil && s.RowCount > 0 {
			return clamp01(float64(c.NullCount) / float64(s.RowCount))
		}
		if !a.Null {
			return 0
		}
	}
	return defaultNullSel
}

func eqSelectivity(c *ColumnStat) float64 {
	if c != nil && c.NDV > 0 {
		return 1 / float64(c.NDV)
	}
	return defaultEqSel
}

// attrLit normalizes a comparison to (attribute OP literal), flipping the
// operator when the literal is on the left. ok is false for other shapes.
func attrLit(e *expr.Comparison) (a *expr.AttributeReference, lit any, op expr.CmpOp, ok bool) {
	if l, isAttr := e.Left.(*expr.AttributeReference); isAttr {
		if r, isLit := e.Right.(*expr.Literal); isLit {
			return l, r.Value, e.Op, true
		}
	}
	if r, isAttr := e.Right.(*expr.AttributeReference); isAttr {
		if l, isLit := e.Left.(*expr.Literal); isLit {
			return r, l.Value, flipOp(e.Op), true
		}
	}
	return nil, nil, e.Op, false
}

func flipOp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.OpLT:
		return expr.OpGT
	case expr.OpLE:
		return expr.OpGE
	case expr.OpGT:
		return expr.OpLT
	case expr.OpGE:
		return expr.OpLE
	}
	return op
}

func comparisonSelectivity(e *expr.Comparison, s Statistics) float64 {
	a, lit, op, ok := attrLit(e)
	if !ok || lit == nil {
		switch e.Op {
		case expr.OpEQ:
			return defaultEqSel
		case expr.OpNEQ:
			return 1 - defaultEqSel
		default:
			return defaultRangeSel
		}
	}
	c := s.Columns[a.ID_]
	switch op {
	case expr.OpEQ:
		if c != nil && outsideRange(c, lit) {
			return 0
		}
		return eqSelectivity(c)
	case expr.OpNEQ:
		if c != nil && outsideRange(c, lit) {
			return 1
		}
		return 1 - eqSelectivity(c)
	default:
		return rangeSelectivity(c, op, lit)
	}
}

func outsideRange(c *ColumnStat, lit any) bool {
	lo, okLo := toFloat(c.Min)
	hi, okHi := toFloat(c.Max)
	v, okV := toFloat(lit)
	return okLo && okHi && okV && (v < lo || v > hi)
}

// rangeSelectivity interpolates a range predicate's selectivity from the
// column's [min, max] span — monotone in the literal by construction.
func rangeSelectivity(c *ColumnStat, op expr.CmpOp, lit any) float64 {
	if c == nil {
		return defaultRangeSel
	}
	lo, okLo := toFloat(c.Min)
	hi, okHi := toFloat(c.Max)
	v, okV := toFloat(lit)
	if !okLo || !okHi || !okV {
		return defaultRangeSel
	}
	var below float64 // fraction with value < lit (≈ ≤ for continuous ranges)
	switch {
	case v <= lo:
		below = 0
	case v >= hi:
		below = 1
	case hi == lo:
		below = 1
	default:
		below = (v - lo) / (hi - lo)
	}
	switch op {
	case expr.OpLT, expr.OpLE:
		return clamp01(below)
	default: // OpGT, OpGE
		return clamp01(1 - below)
	}
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	case float32:
		return float64(x), true
	case float64:
		return float64(x), true
	default:
		return 0, false
	}
}

// filterStats scales child statistics by a selectivity and tightens the
// filtered columns' stats for conjuncts of the form attr OP literal.
func filterStats(s Statistics, sel float64, cond expr.Expression) Statistics {
	out := Statistics{
		SizeInBytes: clampSize(float64(s.SizeInBytes) * sel),
		Columns:     s.Columns,
	}
	if s.RowCount > 0 {
		out.RowCount = max64(1, int64(math.Ceil(float64(s.RowCount)*sel)))
		out.Columns = capNDV(out.Columns, out.RowCount)
	}
	if out.SizeInBytes == 0 && s.SizeInBytes > 0 {
		out.SizeInBytes = 1
	}
	out.Columns = tightenColumns(out.Columns, cond)
	return out
}

// tightenColumns narrows min/max bounds for top-level AND'd range
// conjuncts, so stacked filters compose instead of double-counting.
func tightenColumns(cols map[expr.ID]*ColumnStat, cond expr.Expression) map[expr.ID]*ColumnStat {
	if cols == nil {
		return nil
	}
	conjuncts := expr.SplitConjuncts(cond)
	changed := false
	for _, cj := range conjuncts {
		cmp, ok := cj.(*expr.Comparison)
		if !ok {
			continue
		}
		a, lit, op, ok := attrLit(cmp)
		if !ok || lit == nil {
			continue
		}
		c := cols[a.ID_]
		if c == nil {
			continue
		}
		if !changed {
			cols = copyCols(cols)
			changed = true
		}
		cc := *cols[a.ID_]
		switch op {
		case expr.OpEQ:
			cc.Min, cc.Max, cc.NDV = lit, lit, 1
		case expr.OpLT, expr.OpLE:
			if cc.Max == nil || compareValues(lit, cc.Max) < 0 {
				cc.Max = lit
			}
		case expr.OpGT, expr.OpGE:
			if cc.Min == nil || compareValues(lit, cc.Min) > 0 {
				cc.Min = lit
			}
		}
		cc.NullCount = 0 // comparisons never keep NULLs
		cols[a.ID_] = &cc
	}
	return cols
}

func copyCols(cols map[expr.ID]*ColumnStat) map[expr.ID]*ColumnStat {
	out := make(map[expr.ID]*ColumnStat, len(cols))
	for id, c := range cols {
		out[id] = c
	}
	return out
}

// compareValues orders two values when same-typed, else reports 0.
func compareValues(a, b any) int {
	fa, okA := toFloat(a)
	fb, okB := toFloat(b)
	if okA && okB {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	sa, okA := a.(string)
	sb, okB := b.(string)
	if okA && okB {
		return strings.Compare(sa, sb)
	}
	return 0
}

// ---------------------------------------------------------------------------
// Operator propagation

func projectStats(s Statistics, list []expr.Expression, out []*expr.AttributeReference, inCols int) Statistics {
	cols := make(map[expr.ID]*ColumnStat)
	for _, e := range list {
		switch x := e.(type) {
		case *expr.AttributeReference:
			if c := s.Columns[x.ID_]; c != nil {
				cols[x.ID_] = c
			}
		case *expr.Alias:
			if ar, ok := x.Child.(*expr.AttributeReference); ok {
				if c := s.Columns[ar.ID_]; c != nil {
					cols[x.ID_] = c
				}
			}
		}
	}
	res := Statistics{RowCount: s.RowCount, Columns: cols}
	if s.RowCount > 0 {
		res.SizeInBytes = clampSize(float64(s.RowCount) * float64(rowWidth(out, cols)))
		return res
	}
	// Row count unknown: fall back to scaling size by column-count ratio.
	res.SizeInBytes = s.SizeInBytes
	if inCols > 0 && len(list) < inCols {
		res.SizeInBytes = clampSize(float64(s.SizeInBytes) * float64(len(list)) / float64(inCols))
	}
	return res
}

// equiKeys extracts equi-join attribute pairs (left attr, right attr) from
// a join condition, plus whether any non-equi conjunct remains.
func equiKeys(j *Join) (pairs [][2]*expr.AttributeReference, residual bool) {
	if j.Cond == nil {
		return nil, false
	}
	leftOut := OutputSet(j.Left)
	rightOut := OutputSet(j.Right)
	for _, cj := range expr.SplitConjuncts(j.Cond) {
		cmp, ok := cj.(*expr.Comparison)
		if ok && cmp.Op == expr.OpEQ {
			la, lOK := cmp.Left.(*expr.AttributeReference)
			ra, rOK := cmp.Right.(*expr.AttributeReference)
			if lOK && rOK {
				switch {
				case leftOut.Contains(la.ID_) && rightOut.Contains(ra.ID_):
					pairs = append(pairs, [2]*expr.AttributeReference{la, ra})
					continue
				case leftOut.Contains(ra.ID_) && rightOut.Contains(la.ID_):
					pairs = append(pairs, [2]*expr.AttributeReference{ra, la})
					continue
				}
			}
		}
		residual = true
	}
	return pairs, residual
}

func mergeColumns(l, r map[expr.ID]*ColumnStat) map[expr.ID]*ColumnStat {
	if l == nil && r == nil {
		return nil
	}
	out := make(map[expr.ID]*ColumnStat, len(l)+len(r))
	for id, c := range l {
		out[id] = c
	}
	for id, c := range r {
		out[id] = c
	}
	return out
}

func joinStats(j *Join, l, r Statistics) Statistics {
	cols := mergeColumns(l.Columns, r.Columns)
	if j.Type == LeftSemiJoin {
		cols = l.Columns
	}
	if l.RowCount == 0 || r.RowCount == 0 {
		// Cardinalities unknown: keep the additive pre-CBO estimate, which
		// is safely pessimistic for broadcast selection.
		return Statistics{SizeInBytes: satAdd(l.SizeInBytes, r.SizeInBytes), Columns: cols}
	}
	inner := float64(l.RowCount) * float64(r.RowCount)
	pairs, residual := equiKeys(j)
	for _, p := range pairs {
		d := float64(keyNDV(l, r, p))
		if d > 1 {
			inner /= d
		}
	}
	if len(pairs) == 0 && residual {
		inner *= defaultRangeSel
	} else if residual {
		inner *= defaultFilterSel
	}
	if inner < 1 {
		inner = 1
	}
	var rows float64
	switch j.Type {
	case LeftOuterJoin:
		rows = math.Max(inner, float64(l.RowCount))
	case RightOuterJoin:
		rows = math.Max(inner, float64(r.RowCount))
	case FullOuterJoin:
		rows = math.Max(inner, float64(l.RowCount)+float64(r.RowCount))
	case LeftSemiJoin:
		rows = math.Min(inner, float64(l.RowCount))
	default: // Inner, Cross
		rows = inner
	}
	rowCount := int64(math.Ceil(rows))
	if rowCount < 1 {
		rowCount = 1
	}
	out := Statistics{
		RowCount:    rowCount,
		SizeInBytes: clampSize(rows * float64(rowWidth(j.Output(), cols))),
		Columns:     capNDV(cols, rowCount),
	}
	if out.SizeInBytes == 0 {
		out.SizeInBytes = 1
	}
	return out
}

// keyNDV picks the divisor for one equi-key pair: max of the two sides'
// NDVs, falling back to the larger row count (a foreign-key join against a
// distinct key produces about max(|L|,|R|)·smaller/larger rows).
func keyNDV(l, r Statistics, p [2]*expr.AttributeReference) int64 {
	var ln, rn int64
	if c := l.Columns[p[0].ID_]; c != nil {
		ln = c.NDV
	}
	if c := r.Columns[p[1].ID_]; c != nil {
		rn = c.NDV
	}
	if ln == 0 && rn == 0 {
		return max64(l.RowCount, r.RowCount)
	}
	return max64(ln, rn)
}

func satAdd(a, b int64) int64 {
	if a > defaultSizeInBytes-b {
		return defaultSizeInBytes
	}
	return a + b
}

// groupCount estimates the number of distinct groups for a key list as the
// product of per-key NDVs (exprNDV), clamped to the child row count. Keys
// without an estimate assume ~16 rows per group.
func groupCount(s Statistics, keys []expr.Expression) int64 {
	if len(keys) == 0 {
		return 1
	}
	prod := 1.0
	for _, k := range keys {
		ndv := exprNDV(s, k)
		if ndv <= 0 {
			ndv = max64(1, s.RowCount/16)
		}
		prod *= float64(ndv)
		if prod > float64(s.RowCount) {
			return max64(1, s.RowCount)
		}
	}
	return max64(1, min64(int64(math.Ceil(prod)), s.RowCount))
}

// exprNDV estimates the distinct values of one grouping expression, 0 when it
// cannot: a literal has one; a column its statistics' NDV; SUBSTR(col, …) at
// most NDV(col), since equal strings have equal substrings; and col % c, for
// an integer column and a non-zero integer literal c, at most 2|c|−1 values
// (|c| when the column's min is ≥ 0), and at most NDV(col) when that is known.
// Any other expression, nested ones included, has no estimate.
func exprNDV(s Statistics, k expr.Expression) int64 {
	col := func(e expr.Expression) *ColumnStat {
		if a, ok := e.(*expr.AttributeReference); ok {
			return s.Columns[a.ID_]
		}
		return nil
	}
	switch e := k.(type) {
	case *expr.Literal:
		return 1
	case *expr.AttributeReference:
		if c := col(e); c != nil {
			return c.NDV
		}
	case *expr.Substring:
		if c := col(e.Str); c != nil {
			return c.NDV
		}
	case *expr.BinaryArith:
		a, isAttr := e.Left.(*expr.AttributeReference)
		m, isInt := intLiteral(e.Right)
		if e.Op != expr.OpMod || !isAttr || !types.IsIntegral(a.DataType()) || !isInt || m == 0 {
			return 0
		}
		m = max(m, -m)
		bound := 2*m - 1 // wraps negative, so no estimate, for |c| ≥ 2^62
		if c := col(a); c != nil {
			if lo, ok := toFloat(c.Min); ok && lo >= 0 {
				bound = m
			}
			if c.NDV > 0 {
				bound = min(bound, c.NDV)
			}
		}
		return bound
	}
	return 0
}

// intLiteral is the value of an integer literal.
func intLiteral(e expr.Expression) (int64, bool) {
	l, ok := e.(*expr.Literal)
	if !ok {
		return 0, false
	}
	switch v := l.Value.(type) {
	case int32:
		return int64(v), true
	case int64:
		return v, true
	}
	return 0, false
}

func aggregateStats(n *Aggregate, s Statistics) Statistics {
	if s.RowCount == 0 {
		// Unknown cardinality: keep the legacy size shrink but don't
		// invent rows.
		return Statistics{SizeInBytes: max64(1, s.SizeInBytes/4)}
	}
	rows := groupCount(s, n.Grouping)
	cols := make(map[expr.ID]*ColumnStat)
	for _, e := range n.Aggs {
		switch x := e.(type) {
		case *expr.AttributeReference:
			if c := s.Columns[x.ID_]; c != nil {
				cols[x.ID_] = c
			}
		case *expr.Alias:
			if ar, ok := x.Child.(*expr.AttributeReference); ok {
				if c := s.Columns[ar.ID_]; c != nil {
					cols[x.ID_] = c
				}
			}
		}
	}
	return Statistics{
		SizeInBytes: clampSize(float64(rows) * float64(rowWidth(n.Output(), cols))),
		RowCount:    rows,
		Columns:     capNDV(cols, rows),
	}
}

// ---------------------------------------------------------------------------
// Annotated formatting

// FormatEstimated renders a plan subtree with per-node cost annotations —
// the EXPLAIN surface of the statistics subsystem. Unresolved nodes (whose
// Output would panic) render plain.
func FormatEstimated(p LogicalPlan) string {
	var sb strings.Builder
	writeTreeEstimated(&sb, p, 0)
	return sb.String()
}

func writeTreeEstimated(sb *strings.Builder, p LogicalPlan, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	sb.WriteString(p.SimpleString())
	if p.Resolved() {
		sb.WriteString("  (")
		sb.WriteString(Stats(p).EstString())
		sb.WriteString(")")
	}
	sb.WriteByte('\n')
	for _, c := range p.Children() {
		writeTreeEstimated(sb, c, depth+1)
	}
}

// AttachStats installs collected statistics on the leaf relation beneath p
// (unwrapping aliases), reporting whether a stats-capable leaf was found.
// Leaves are shared by reference from the catalog, so attachment is
// visible to every query planned afterwards.
func AttachStats(p LogicalPlan, t *stats.Table) bool {
	switch n := p.(type) {
	case *SubqueryAlias:
		return AttachStats(n.Child, t)
	case *LocalRelation:
		n.TableStats = t
	case *DataSourceRelation:
		n.TableStats = t
	case *LogicalRDD:
		n.TableStats = t
	case *InMemoryRelation:
		n.TableStats = t
	default:
		return false
	}
	return true
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
