package expr

import (
	"fmt"
	"strings"

	"repro/internal/row"
	"repro/internal/types"
)

// CmpOp identifies a comparison operator.
type CmpOp int

const (
	OpEQ CmpOp = iota
	OpNEQ
	OpLT
	OpLE
	OpGT
	OpGE
)

func (op CmpOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNEQ:
		return "!="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	}
	return "?"
}

// Comparison compares two same-typed operands with SQL three-valued logic:
// NULL operands produce NULL.
type Comparison struct {
	Op          CmpOp
	Left, Right Expression
}

// EQ builds left = right.
func EQ(l, r Expression) *Comparison { return &Comparison{Op: OpEQ, Left: l, Right: r} }

// NEQ builds left != right.
func NEQ(l, r Expression) *Comparison { return &Comparison{Op: OpNEQ, Left: l, Right: r} }

// LT builds left < right.
func LT(l, r Expression) *Comparison { return &Comparison{Op: OpLT, Left: l, Right: r} }

// LE builds left <= right.
func LE(l, r Expression) *Comparison { return &Comparison{Op: OpLE, Left: l, Right: r} }

// GT builds left > right.
func GT(l, r Expression) *Comparison { return &Comparison{Op: OpGT, Left: l, Right: r} }

// GE builds left >= right.
func GE(l, r Expression) *Comparison { return &Comparison{Op: OpGE, Left: l, Right: r} }

func (c *Comparison) Children() []Expression { return []Expression{c.Left, c.Right} }
func (c *Comparison) WithNewChildren(children []Expression) Expression {
	return &Comparison{Op: c.Op, Left: children[0], Right: children[1]}
}
func (c *Comparison) DataType() types.DataType { return types.Boolean }
func (c *Comparison) Nullable() bool           { return anyNullable(c.Left, c.Right) }
func (c *Comparison) Resolved() bool {
	return ChildrenResolved(c) && c.Left.DataType().Equals(c.Right.DataType())
}
func (c *Comparison) String() string { return infixString(c) }
func (c *Comparison) infix() (Expression, string, Expression) {
	return c.Left, c.Op.String(), c.Right
}
func (c *Comparison) Eval(r row.Row) any {
	l := c.Left.Eval(r)
	if l == nil {
		return nil
	}
	rv := c.Right.Eval(r)
	if rv == nil {
		return nil
	}
	return compare(c.Op, l, rv)
}

func compare(op CmpOp, l, r any) bool {
	switch op {
	case OpEQ:
		return row.Equal(l, r)
	case OpNEQ:
		return !row.Equal(l, r)
	case OpLT:
		return row.Compare(l, r) < 0
	case OpLE:
		return row.Compare(l, r) <= 0
	case OpGT:
		return row.Compare(l, r) > 0
	case OpGE:
		return row.Compare(l, r) >= 0
	}
	panic("expr: unknown comparison op")
}

// And is SQL conjunction with three-valued logic: false && NULL = false.
type And struct {
	Left, Right Expression
	memo        typeMemo
}

func (a *And) Children() []Expression { return []Expression{a.Left, a.Right} }
func (a *And) WithNewChildren(children []Expression) Expression {
	return &And{Left: children[0], Right: children[1]}
}
func (a *And) DataType() types.DataType                { return types.Boolean }
func (a *And) Nullable() bool                          { return anyNullable(a.Left, a.Right) }
func (a *And) Resolved() bool                          { return a.memo.boolean(a, a.Left, a.Right) }
func (a *And) String() string                          { return infixString(a) }
func (a *And) infix() (Expression, string, Expression) { return a.Left, "AND", a.Right }
func (a *And) Eval(r row.Row) any {
	l := a.Left.Eval(r)
	if l == false {
		return false
	}
	rv := a.Right.Eval(r)
	if rv == false {
		return false
	}
	if l == nil || rv == nil {
		return nil
	}
	return true
}

// Or is SQL disjunction with three-valued logic: true || NULL = true.
type Or struct {
	Left, Right Expression
	memo        typeMemo
}

func (o *Or) Children() []Expression { return []Expression{o.Left, o.Right} }
func (o *Or) WithNewChildren(children []Expression) Expression {
	return &Or{Left: children[0], Right: children[1]}
}
func (o *Or) DataType() types.DataType                { return types.Boolean }
func (o *Or) Nullable() bool                          { return anyNullable(o.Left, o.Right) }
func (o *Or) Resolved() bool                          { return o.memo.boolean(o, o.Left, o.Right) }
func (o *Or) String() string                          { return infixString(o) }
func (o *Or) infix() (Expression, string, Expression) { return o.Left, "OR", o.Right }
func (o *Or) Eval(r row.Row) any {
	l := o.Left.Eval(r)
	if l == true {
		return true
	}
	rv := o.Right.Eval(r)
	if rv == true {
		return true
	}
	if l == nil || rv == nil {
		return nil
	}
	return false
}

// Not is SQL negation; NOT NULL = NULL.
type Not struct {
	Child Expression
}

func (n *Not) Children() []Expression { return []Expression{n.Child} }
func (n *Not) WithNewChildren(children []Expression) Expression {
	return &Not{Child: children[0]}
}
func (n *Not) DataType() types.DataType { return types.Boolean }
func (n *Not) Nullable() bool           { return n.Child.Nullable() }
func (n *Not) Resolved() bool {
	return ChildrenResolved(n) && n.Child.DataType().Equals(types.Boolean)
}
func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.Child) }
func (n *Not) Eval(r row.Row) any {
	v := n.Child.Eval(r)
	if v == nil {
		return nil
	}
	return !v.(bool)
}

// IsNull tests for SQL NULL; never returns NULL itself.
type IsNull struct {
	Child Expression
}

func (i *IsNull) Children() []Expression { return []Expression{i.Child} }
func (i *IsNull) WithNewChildren(children []Expression) Expression {
	return &IsNull{Child: children[0]}
}
func (i *IsNull) DataType() types.DataType { return types.Boolean }
func (i *IsNull) Nullable() bool           { return false }
func (i *IsNull) Resolved() bool           { return ChildrenResolved(i) }
func (i *IsNull) String() string           { return fmt.Sprintf("(%s IS NULL)", i.Child) }
func (i *IsNull) Eval(r row.Row) any       { return i.Child.Eval(r) == nil }

// IsNotNull tests for non-NULL.
type IsNotNull struct {
	Child Expression
}

func (i *IsNotNull) Children() []Expression { return []Expression{i.Child} }
func (i *IsNotNull) WithNewChildren(children []Expression) Expression {
	return &IsNotNull{Child: children[0]}
}
func (i *IsNotNull) DataType() types.DataType { return types.Boolean }
func (i *IsNotNull) Nullable() bool           { return false }
func (i *IsNotNull) Resolved() bool           { return ChildrenResolved(i) }
func (i *IsNotNull) String() string           { return fmt.Sprintf("(%s IS NOT NULL)", i.Child) }
func (i *IsNotNull) Eval(r row.Row) any       { return i.Child.Eval(r) != nil }

// In tests membership of Value in List, with SQL NULL semantics: NULL value
// yields NULL; a non-matching list containing NULL yields NULL.
type In struct {
	Value Expression
	List  []Expression
}

func (in *In) Children() []Expression {
	cs := make([]Expression, 0, len(in.List)+1)
	cs = append(cs, in.Value)
	return append(cs, in.List...)
}
func (in *In) WithNewChildren(children []Expression) Expression {
	return &In{Value: children[0], List: children[1:]}
}
func (in *In) DataType() types.DataType { return types.Boolean }
func (in *In) Nullable() bool           { return true }
func (in *In) Resolved() bool {
	if !ChildrenResolved(in) {
		return false
	}
	for _, e := range in.List {
		if !e.DataType().Equals(in.Value.DataType()) {
			return false
		}
	}
	return true
}
func (in *In) String() string {
	items := make([]string, len(in.List))
	for i, e := range in.List {
		items[i] = e.String()
	}
	return fmt.Sprintf("(%s IN (%s))", in.Value, strings.Join(items, ", "))
}
func (in *In) Eval(r row.Row) any {
	v := in.Value.Eval(r)
	if v == nil {
		return nil
	}
	sawNull := false
	for _, e := range in.List {
		ev := e.Eval(r)
		if ev == nil {
			sawNull = true
			continue
		}
		if row.Equal(v, ev) {
			return true
		}
	}
	if sawNull {
		return nil
	}
	return false
}
