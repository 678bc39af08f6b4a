package datasource

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/row"
	"repro/internal/types"
)

// Filter is the simple predicate algebra shipped to data sources (paper
// footnote 7: "Filters include equality, comparisons against a constant,
// and IN clauses, each on one attribute"; IsNotNull supports the §5.1
// example's `tags IS NOT NULL`). Sources evaluate filters best-effort.
type Filter interface {
	// Attribute is the single column the filter constrains.
	Attribute() string
	// Matches evaluates the filter against a value of that column
	// (value may be nil for SQL NULL).
	Matches(value any) bool
	fmt.Stringer
}

// EqualTo is col = constant.
type EqualTo struct {
	Col   string
	Value any
}

func (f EqualTo) Attribute() string { return f.Col }
func (f EqualTo) Matches(v any) bool {
	return v != nil && row.Equal(v, f.Value)
}
func (f EqualTo) String() string { return fmt.Sprintf("%s = %v", f.Col, f.Value) }

// GreaterThan is col > constant.
type GreaterThan struct {
	Col   string
	Value any
}

func (f GreaterThan) Attribute() string  { return f.Col }
func (f GreaterThan) Matches(v any) bool { return v != nil && row.Compare(v, f.Value) > 0 }
func (f GreaterThan) String() string     { return fmt.Sprintf("%s > %v", f.Col, f.Value) }

// GreaterOrEqual is col >= constant.
type GreaterOrEqual struct {
	Col   string
	Value any
}

func (f GreaterOrEqual) Attribute() string  { return f.Col }
func (f GreaterOrEqual) Matches(v any) bool { return v != nil && row.Compare(v, f.Value) >= 0 }
func (f GreaterOrEqual) String() string     { return fmt.Sprintf("%s >= %v", f.Col, f.Value) }

// LessThan is col < constant.
type LessThan struct {
	Col   string
	Value any
}

func (f LessThan) Attribute() string  { return f.Col }
func (f LessThan) Matches(v any) bool { return v != nil && row.Compare(v, f.Value) < 0 }
func (f LessThan) String() string     { return fmt.Sprintf("%s < %v", f.Col, f.Value) }

// LessOrEqual is col <= constant.
type LessOrEqual struct {
	Col   string
	Value any
}

func (f LessOrEqual) Attribute() string  { return f.Col }
func (f LessOrEqual) Matches(v any) bool { return v != nil && row.Compare(v, f.Value) <= 0 }
func (f LessOrEqual) String() string     { return fmt.Sprintf("%s <= %v", f.Col, f.Value) }

// In is col IN (constants...).
type In struct {
	Col    string
	Values []any
}

func (f In) Attribute() string { return f.Col }
func (f In) Matches(v any) bool {
	if v == nil {
		return false
	}
	for _, c := range f.Values {
		if row.Equal(v, c) {
			return true
		}
	}
	return false
}
func (f In) String() string {
	parts := make([]string, len(f.Values))
	for i, v := range f.Values {
		parts[i] = fmt.Sprint(v)
	}
	return fmt.Sprintf("%s IN (%s)", f.Col, strings.Join(parts, ", "))
}

// IsNotNull is col IS NOT NULL.
type IsNotNull struct {
	Col string
}

func (f IsNotNull) Attribute() string  { return f.Col }
func (f IsNotNull) Matches(v any) bool { return v != nil }
func (f IsNotNull) String() string     { return fmt.Sprintf("%s IS NOT NULL", f.Col) }

// StringStartsWith is col LIKE 'prefix%' — pushed by the LIKE
// simplification when a source advertises support.
type StringStartsWith struct {
	Col    string
	Prefix string
}

func (f StringStartsWith) Attribute() string { return f.Col }
func (f StringStartsWith) Matches(v any) bool {
	s, ok := v.(string)
	return ok && strings.HasPrefix(s, f.Prefix)
}
func (f StringStartsWith) String() string { return fmt.Sprintf("%s LIKE '%s%%'", f.Col, f.Prefix) }

// MayMatch is the min/max test behind every statistics-based skip (cached
// batches, colfile row groups): whether a run of values whose non-NULL members
// span [min, max] can hold one that f matches. A nil bound means the run is
// all NULL, which only IsNotNull rules out; a filter with no range reading
// never rules anything out.
func MayMatch(f Filter, min, max any) bool {
	if min == nil || max == nil {
		_, isNotNull := f.(IsNotNull)
		return !isNotNull
	}
	within := func(v any) bool { return row.Compare(v, min) >= 0 && row.Compare(v, max) <= 0 }
	switch x := f.(type) {
	case EqualTo:
		return within(x.Value)
	case GreaterThan:
		return row.Compare(max, x.Value) > 0
	case GreaterOrEqual:
		return row.Compare(max, x.Value) >= 0
	case LessThan:
		return row.Compare(min, x.Value) < 0
	case LessOrEqual:
		return row.Compare(min, x.Value) <= 0
	case In:
		return slices.ContainsFunc(x.Values, within)
	}
	return true
}

// BindFilter rewrites f as a Catalyst predicate over input position ord of
// type t, so a columnar source can evaluate it on typed lanes through
// expr.CompileVecPredicate. The predicate selects exactly the rows Matches
// accepts.
func BindFilter(f Filter, ord int, t types.DataType) (expr.Expression, error) {
	ref := &expr.BoundReference{Ordinal: ord, Type: t, Null: true}
	lit := func(v any) expr.Expression { return &expr.Literal{Value: v, Type: t} }
	cmp := func(op expr.CmpOp, v any) expr.Expression {
		return &expr.Comparison{Op: op, Left: ref, Right: lit(v)}
	}
	switch x := f.(type) {
	case EqualTo:
		return cmp(expr.OpEQ, x.Value), nil
	case GreaterThan:
		return cmp(expr.OpGT, x.Value), nil
	case GreaterOrEqual:
		return cmp(expr.OpGE, x.Value), nil
	case LessThan:
		return cmp(expr.OpLT, x.Value), nil
	case LessOrEqual:
		return cmp(expr.OpLE, x.Value), nil
	case In:
		list := make([]expr.Expression, len(x.Values))
		for i, v := range x.Values {
			list[i] = lit(v)
		}
		return &expr.In{Value: ref, List: list}, nil
	case IsNotNull:
		return &expr.IsNotNull{Child: ref}, nil
	case StringStartsWith:
		return expr.StartsWith(ref, lit(x.Prefix)), nil
	}
	return nil, fmt.Errorf("datasource: no columnar form for filter %s (%T)", f, f)
}

// ApplyFilters evaluates all filters against a row under the given schema —
// the helper sources use to honor pushdown.
func ApplyFilters(filters []Filter, schema types.StructType, r row.Row) bool {
	for _, f := range filters {
		i := schema.FieldIndex(f.Attribute())
		if i < 0 {
			continue // unknown column: advisory filters may be skipped
		}
		if !f.Matches(r[i]) {
			return false
		}
	}
	return true
}
