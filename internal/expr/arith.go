package expr

import (
	"fmt"

	"repro/internal/row"
	"repro/internal/types"
)

// ArithOp identifies a binary arithmetic operator.
type ArithOp int

const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	}
	return "?"
}

// BinaryArith is +, -, *, / or % over two numeric operands. The analyzer's
// type-coercion rules guarantee both operands share a type before
// evaluation. NULL propagates: if either side is NULL the result is NULL;
// division and modulo by zero also yield NULL (Spark SQL non-ANSI
// semantics).
type BinaryArith struct {
	Op          ArithOp
	Left, Right Expression
	memo        typeMemo
}

// Add builds left + right.
func Add(left, right Expression) *BinaryArith {
	return &BinaryArith{Op: OpAdd, Left: left, Right: right}
}

// Sub builds left - right.
func Sub(left, right Expression) *BinaryArith {
	return &BinaryArith{Op: OpSub, Left: left, Right: right}
}

// Mul builds left * right.
func Mul(left, right Expression) *BinaryArith {
	return &BinaryArith{Op: OpMul, Left: left, Right: right}
}

// Div builds left / right.
func Div(left, right Expression) *BinaryArith {
	return &BinaryArith{Op: OpDiv, Left: left, Right: right}
}

// Mod builds left % right.
func Mod(left, right Expression) *BinaryArith {
	return &BinaryArith{Op: OpMod, Left: left, Right: right}
}

func (b *BinaryArith) Children() []Expression { return []Expression{b.Left, b.Right} }
func (b *BinaryArith) WithNewChildren(children []Expression) Expression {
	return &BinaryArith{Op: b.Op, Left: children[0], Right: children[1]}
}
func (b *BinaryArith) DataType() types.DataType {
	if _, t := b.shape(); t != nil {
		return t
	}
	return b.Left.DataType()
}
func (b *BinaryArith) Nullable() bool {
	// Division/modulo can produce NULL on zero divisors.
	return anyNullable(b.Left, b.Right) || b.Op == OpDiv || b.Op == OpMod
}
func (b *BinaryArith) Resolved() bool { ok, _ := b.shape(); return ok }

// shape is both operands' type, resolved when they are one numeric type.
func (b *BinaryArith) shape() (bool, types.DataType) {
	return b.memo.get(func() (bool, types.DataType) {
		if !ChildrenResolved(b) {
			return false, nil
		}
		t := b.Left.DataType()
		return types.IsNumeric(t) && t.Equals(b.Right.DataType()), t
	})
}
func (b *BinaryArith) String() string { return infixString(b) }
func (b *BinaryArith) infix() (Expression, string, Expression) {
	return b.Left, b.Op.String(), b.Right
}

func (b *BinaryArith) Eval(r row.Row) any {
	l := b.Left.Eval(r)
	if l == nil {
		return nil
	}
	rt := b.Right.Eval(r)
	if rt == nil {
		return nil
	}
	return arith(b.Op, l, rt)
}

// arith applies op to two same-typed numeric values.
func arith(op ArithOp, l, r any) any {
	switch x := l.(type) {
	case int32:
		return intArith(op, int64(x), int64(r.(int32)), func(v int64) any { return int32(v) })
	case int64:
		return intArith(op, x, r.(int64), func(v int64) any { return v })
	case float32:
		return float32(floatArith(op, float64(x), float64(r.(float32))))
	case float64:
		return floatArith(op, x, r.(float64))
	case types.Decimal:
		return decArith(op, x, r.(types.Decimal))
	default:
		panic(fmt.Sprintf("expr: arithmetic on non-numeric value %T", l))
	}
}

func intArith(op ArithOp, a, b int64, wrap func(int64) any) any {
	switch op {
	case OpAdd:
		return wrap(a + b)
	case OpSub:
		return wrap(a - b)
	case OpMul:
		return wrap(a * b)
	case OpDiv:
		if b == 0 {
			return nil
		}
		return wrap(a / b)
	case OpMod:
		if b == 0 {
			return nil
		}
		return wrap(a % b)
	}
	panic("expr: unknown arithmetic op")
}

func floatArith(op ArithOp, a, b float64) float64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		return a / b
	case OpMod:
		return float64(int64(a) % int64(b))
	}
	panic("expr: unknown arithmetic op")
}

func decArith(op ArithOp, a, b types.Decimal) any {
	switch op {
	case OpAdd:
		return a.Add(b)
	case OpSub:
		return a.Sub(b)
	case OpMul:
		return a.Mul(b)
	case OpDiv:
		if b.IsZero() {
			return nil
		}
		return a.Div(b)
	case OpMod:
		panic("expr: modulo is not defined on DECIMAL")
	}
	panic("expr: unknown arithmetic op")
}

// Negate is unary minus.
type Negate struct {
	Child Expression
}

func (n *Negate) Children() []Expression { return []Expression{n.Child} }
func (n *Negate) WithNewChildren(children []Expression) Expression {
	return &Negate{Child: children[0]}
}
func (n *Negate) DataType() types.DataType { return n.Child.DataType() }
func (n *Negate) Nullable() bool           { return n.Child.Nullable() }
func (n *Negate) Resolved() bool {
	return ChildrenResolved(n) && types.IsNumeric(n.Child.DataType())
}
func (n *Negate) String() string { return fmt.Sprintf("(-%s)", n.Child) }
func (n *Negate) Eval(r row.Row) any {
	v := n.Child.Eval(r)
	if v == nil {
		return nil
	}
	switch x := v.(type) {
	case int32:
		return -x
	case int64:
		return -x
	case float32:
		return -x
	case float64:
		return -x
	case types.Decimal:
		return types.Decimal{Unscaled: -x.Unscaled, Scale: x.Scale}
	}
	panic(fmt.Sprintf("expr: negate on non-numeric value %T", v))
}

// Abs is the absolute-value function.
type Abs struct {
	Child Expression
}

func (a *Abs) Children() []Expression { return []Expression{a.Child} }
func (a *Abs) WithNewChildren(children []Expression) Expression {
	return &Abs{Child: children[0]}
}
func (a *Abs) DataType() types.DataType { return a.Child.DataType() }
func (a *Abs) Nullable() bool           { return a.Child.Nullable() }
func (a *Abs) Resolved() bool {
	return ChildrenResolved(a) && types.IsNumeric(a.Child.DataType())
}
func (a *Abs) String() string { return fmt.Sprintf("abs(%s)", a.Child) }
func (a *Abs) Eval(r row.Row) any {
	v := a.Child.Eval(r)
	if v == nil {
		return nil
	}
	switch x := v.(type) {
	case int32:
		if x < 0 {
			return -x
		}
		return x
	case int64:
		if x < 0 {
			return -x
		}
		return x
	case float32:
		if x < 0 {
			return -x
		}
		return x
	case float64:
		if x < 0 {
			return -x
		}
		return x
	case types.Decimal:
		if x.Unscaled < 0 {
			return types.Decimal{Unscaled: -x.Unscaled, Scale: x.Scale}
		}
		return x
	}
	panic(fmt.Sprintf("expr: abs on non-numeric value %T", v))
}
