package expr

import (
	"fmt"

	"repro/internal/row"
	"repro/internal/types"
)

// SortOrder pairs an expression with a sort direction. It participates in
// the expression tree so analysis and optimization rules see through it.
type SortOrder struct {
	Child      Expression
	Descending bool
}

// Asc builds an ascending order on child.
func Asc(child Expression) *SortOrder { return &SortOrder{Child: child} }

// Desc builds a descending order on child.
func Desc(child Expression) *SortOrder { return &SortOrder{Child: child, Descending: true} }

func (s *SortOrder) Children() []Expression { return []Expression{s.Child} }
func (s *SortOrder) WithNewChildren(children []Expression) Expression {
	return &SortOrder{Child: children[0], Descending: s.Descending}
}
func (s *SortOrder) DataType() types.DataType { return s.Child.DataType() }
func (s *SortOrder) Nullable() bool           { return s.Child.Nullable() }
func (s *SortOrder) Resolved() bool {
	return ChildrenResolved(s) && types.IsOrdered(s.Child.DataType())
}
func (s *SortOrder) String() string {
	if s.Descending {
		return fmt.Sprintf("%s DESC", s.Child)
	}
	return fmt.Sprintf("%s ASC", s.Child)
}
func (s *SortOrder) Eval(r row.Row) any { return s.Child.Eval(r) }

// Bind rewrites every AttributeReference in e into a BoundReference against
// the given input attribute order. Binding happens in the physical layer,
// immediately before interpretation or compilation.
func Bind(e Expression, input []*AttributeReference) (Expression, error) {
	var bindErr error
	out := TransformUp(e, func(x Expression) (Expression, bool) {
		a, ok := x.(*AttributeReference)
		if !ok {
			return nil, false
		}
		for i, in := range input {
			if in.ID_ == a.ID_ {
				return &BoundReference{Ordinal: i, Type: a.Type, Null: a.Null}, true
			}
		}
		if bindErr == nil {
			bindErr = fmt.Errorf("expr: attribute %s not found in input %v", a, input)
		}
		return nil, false
	})
	if bindErr != nil {
		return nil, bindErr
	}
	return out, nil
}

// MustBind is Bind for callers that have already validated references.
func MustBind(e Expression, input []*AttributeReference) Expression {
	out, err := Bind(e, input)
	if err != nil {
		panic(err)
	}
	return out
}

// BindAll binds a slice of expressions.
func BindAll(exprs []Expression, input []*AttributeReference) ([]Expression, error) {
	out := make([]Expression, len(exprs))
	for i, e := range exprs {
		b, err := Bind(e, input)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
