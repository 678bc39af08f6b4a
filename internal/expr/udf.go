package expr

import (
	"fmt"
	"strings"

	"repro/internal/row"
	"repro/internal/types"
)

// UnresolvedFunction is a by-name function call from the parser or DSL; the
// analyzer resolves it to a built-in (count/sum/...) or a registered UDF
// (paper §3.7).
type UnresolvedFunction struct {
	Name string
	Args []Expression
	// Star marks count(*) style calls.
	Star bool
	// Distinct marks count(DISTINCT x) style calls.
	Distinct bool
}

func (u *UnresolvedFunction) Children() []Expression { return u.Args }
func (u *UnresolvedFunction) WithNewChildren(children []Expression) Expression {
	return &UnresolvedFunction{Name: u.Name, Args: children, Star: u.Star, Distinct: u.Distinct}
}
func (u *UnresolvedFunction) DataType() types.DataType { panic(unresolvedPanic(u)) }
func (u *UnresolvedFunction) Nullable() bool           { panic(unresolvedPanic(u)) }
func (u *UnresolvedFunction) Resolved() bool           { return false }
func (u *UnresolvedFunction) Eval(r row.Row) any       { panic(unresolvedPanic(u)) }
func (u *UnresolvedFunction) String() string {
	if u.Star {
		return fmt.Sprintf("'%s(*)", u.Name)
	}
	args := make([]string, len(u.Args))
	for i, a := range u.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("'%s(%s)", u.Name, strings.Join(args, ", "))
}

// ScalarUDF is a registered user-defined scalar function (paper §3.7): an
// ordinary Go function invoked per row. Unlike traditional database UDFs,
// it is defined inline in the host language — the key usability point the
// paper makes — and is equally callable from SQL and the DataFrame DSL.
type ScalarUDF struct {
	Name string
	// Fn receives the evaluated arguments (NULL as nil) and returns the
	// result value.
	Fn func(args []any) any
	// In are the declared parameter types; the analyzer inserts casts to
	// them. Ret is the declared result type.
	In  []types.DataType
	Ret types.DataType
	// Args are the actual argument expressions.
	Args []Expression
}

func (u *ScalarUDF) Children() []Expression { return u.Args }
func (u *ScalarUDF) WithNewChildren(children []Expression) Expression {
	return &ScalarUDF{Name: u.Name, Fn: u.Fn, In: u.In, Ret: u.Ret, Args: children}
}
func (u *ScalarUDF) DataType() types.DataType { return u.Ret }
func (u *ScalarUDF) Nullable() bool           { return true }
func (u *ScalarUDF) Resolved() bool {
	if !ChildrenResolved(u) || len(u.Args) != len(u.In) {
		return false
	}
	for i, a := range u.Args {
		if !a.DataType().Equals(u.In[i]) {
			return false
		}
	}
	return true
}
func (u *ScalarUDF) String() string {
	args := make([]string, len(u.Args))
	for i, a := range u.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("udf:%s(%s)", u.Name, strings.Join(args, ", "))
}
func (u *ScalarUDF) Eval(r row.Row) any {
	args := make([]any, len(u.Args))
	for i, a := range u.Args {
		args[i] = a.Eval(r)
	}
	return u.Fn(args)
}

// ---------------------------------------------------------------------------
// Decimal helper expressions for the DecimalAggregates rule (paper §4.3.2).

// UnscaledValue extracts the unscaled LONG from a DECIMAL value.
type UnscaledValue struct {
	Child Expression
}

func (u *UnscaledValue) Children() []Expression { return []Expression{u.Child} }
func (u *UnscaledValue) WithNewChildren(children []Expression) Expression {
	return &UnscaledValue{Child: children[0]}
}
func (u *UnscaledValue) DataType() types.DataType { return types.Long }
func (u *UnscaledValue) Nullable() bool           { return u.Child.Nullable() }
func (u *UnscaledValue) Resolved() bool {
	if !ChildrenResolved(u) {
		return false
	}
	_, ok := u.Child.DataType().(types.DecimalType)
	return ok
}
func (u *UnscaledValue) String() string { return fmt.Sprintf("unscaled(%s)", u.Child) }
func (u *UnscaledValue) Eval(r row.Row) any {
	v := u.Child.Eval(r)
	if v == nil {
		return nil
	}
	return v.(types.Decimal).Unscaled
}

// MakeDecimal reinterprets a LONG as a DECIMAL(precision, scale) unscaled
// value — the inverse of UnscaledValue.
type MakeDecimal struct {
	Child     Expression
	Precision int
	Scale     int
}

func (m *MakeDecimal) Children() []Expression { return []Expression{m.Child} }
func (m *MakeDecimal) WithNewChildren(children []Expression) Expression {
	return &MakeDecimal{Child: children[0], Precision: m.Precision, Scale: m.Scale}
}
func (m *MakeDecimal) DataType() types.DataType {
	return types.DecimalType{Precision: m.Precision, Scale: m.Scale}
}
func (m *MakeDecimal) Nullable() bool { return m.Child.Nullable() }
func (m *MakeDecimal) Resolved() bool {
	return ChildrenResolved(m) && m.Child.DataType().Equals(types.Long)
}
func (m *MakeDecimal) String() string {
	return fmt.Sprintf("makedecimal(%s, %d, %d)", m.Child, m.Precision, m.Scale)
}
func (m *MakeDecimal) Eval(r row.Row) any {
	v := m.Child.Eval(r)
	if v == nil {
		return nil
	}
	return types.Decimal{Unscaled: v.(int64), Scale: m.Scale}
}

// ---------------------------------------------------------------------------
// UDT bridging (paper §4.4.2)

// SerializeUDT converts a user-object column to its SQL representation; the
// engine inserts it when a UDT-typed value crosses into relational
// processing (columnar cache, data source writes).
type SerializeUDT struct {
	Child Expression
	UDT   types.UserDefinedType
}

func (s *SerializeUDT) Children() []Expression { return []Expression{s.Child} }
func (s *SerializeUDT) WithNewChildren(children []Expression) Expression {
	return &SerializeUDT{Child: children[0], UDT: s.UDT}
}
func (s *SerializeUDT) DataType() types.DataType { return s.UDT.SQLType() }
func (s *SerializeUDT) Nullable() bool           { return s.Child.Nullable() }
func (s *SerializeUDT) Resolved() bool           { return ChildrenResolved(s) }
func (s *SerializeUDT) String() string {
	return fmt.Sprintf("serialize_%s(%s)", s.UDT.TypeName(), s.Child)
}
func (s *SerializeUDT) Eval(r row.Row) any {
	v := s.Child.Eval(r)
	if v == nil {
		return nil
	}
	out, err := s.UDT.Serialize(v)
	if err != nil {
		panic(fmt.Sprintf("expr: UDT %s serialize: %v", s.UDT.TypeName(), err))
	}
	return out
}

// DeserializeUDT converts a SQL representation back into the user object.
type DeserializeUDT struct {
	Child Expression
	UDT   types.UserDefinedType
}

func (d *DeserializeUDT) Children() []Expression { return []Expression{d.Child} }
func (d *DeserializeUDT) WithNewChildren(children []Expression) Expression {
	return &DeserializeUDT{Child: children[0], UDT: d.UDT}
}
func (d *DeserializeUDT) DataType() types.DataType { return types.UDTType{UDT: d.UDT} }
func (d *DeserializeUDT) Nullable() bool           { return d.Child.Nullable() }
func (d *DeserializeUDT) Resolved() bool           { return ChildrenResolved(d) }
func (d *DeserializeUDT) String() string {
	return fmt.Sprintf("deserialize_%s(%s)", d.UDT.TypeName(), d.Child)
}
func (d *DeserializeUDT) Eval(r row.Row) any {
	v := d.Child.Eval(r)
	if v == nil {
		return nil
	}
	out, err := d.UDT.Deserialize(v)
	if err != nil {
		panic(fmt.Sprintf("expr: UDT %s deserialize: %v", d.UDT.TypeName(), err))
	}
	return out
}
