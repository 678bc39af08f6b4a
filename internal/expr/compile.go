package expr

import (
	"math"

	"repro/internal/row"
	"repro/internal/types"
)

// This file is the reproduction's stand-in for Catalyst's quasiquote-based
// code generation (paper §4.3.4). Scala Catalyst transforms an expression
// tree into a Scala AST, compiles it to JVM bytecode and runs it, removing
// the per-row tree walk with its branches and virtual calls. Go has no
// runtime compiler, so Compile instead walks the tree ONCE and fuses it
// into nested closures: per row, evaluation is a chain of direct calls with
// no type dispatch on the tree. Exactly like the paper's design, compiled
// evaluation composes with interpretation — any node the compiler does not
// know falls back to a closure that calls the interpreter for that subtree
// ("the Scala code we compile can directly call into our expression
// interpreter").

// Evaluator is a compiled row evaluator.
type Evaluator func(r row.Row) any

// Predicate is a compiled boolean filter; SQL NULL counts as not matching.
type Predicate func(r row.Row) bool

// Compile fuses a bound expression tree into a single closure. The
// expression must contain no AttributeReferences (Bind first).
func Compile(e Expression) Evaluator {
	switch x := e.(type) {
	case *Literal:
		v := x.Value
		return func(row.Row) any { return v }

	case *BoundReference:
		i := x.Ordinal
		return func(r row.Row) any { return r[i] }

	case *Alias:
		return Compile(x.Child)

	case *SortOrder:
		return Compile(x.Child)

	case *BinaryArith:
		return compileArith(x)

	case *Negate:
		c := Compile(x.Child)
		return func(r row.Row) any {
			v := c(r)
			if v == nil {
				return nil
			}
			return arith(OpSub, zeroOf(v), v)
		}

	case *Comparison:
		return compileComparison(x)

	case *And:
		l, r := Compile(x.Left), Compile(x.Right)
		return func(in row.Row) any {
			lv := l(in)
			if lv == false {
				return false
			}
			rv := r(in)
			if rv == false {
				return false
			}
			if lv == nil || rv == nil {
				return nil
			}
			return true
		}

	case *Or:
		l, r := Compile(x.Left), Compile(x.Right)
		return func(in row.Row) any {
			lv := l(in)
			if lv == true {
				return true
			}
			rv := r(in)
			if rv == true {
				return true
			}
			if lv == nil || rv == nil {
				return nil
			}
			return false
		}

	case *Not:
		c := Compile(x.Child)
		return func(r row.Row) any {
			v := c(r)
			if v == nil {
				return nil
			}
			return !v.(bool)
		}

	case *IsNull:
		c := Compile(x.Child)
		return func(r row.Row) any { return c(r) == nil }

	case *IsNotNull:
		c := Compile(x.Child)
		return func(r row.Row) any { return c(r) != nil }

	case *StringMatch:
		return compileStringMatch(x)

	case *Like:
		l, p := Compile(x.Left), Compile(x.Pattern)
		return func(r row.Row) any {
			lv := l(r)
			if lv == nil {
				return nil
			}
			pv := p(r)
			if pv == nil {
				return nil
			}
			return LikeMatch(lv.(string), pv.(string))
		}

	case *Cast:
		c := Compile(x.Child)
		to := x.To
		return func(r row.Row) any {
			v := c(r)
			if v == nil {
				return nil
			}
			return CastValue(v, to)
		}

	case *Substring:
		return compileViaInterp(x) // three-child; interpreter path is fine

	case *In:
		return compileIn(x)

	case *ScalarUDF:
		args := make([]Evaluator, len(x.Args))
		for i, a := range x.Args {
			args[i] = Compile(a)
		}
		fn := x.Fn
		return func(r row.Row) any {
			vals := make([]any, len(args))
			for i, a := range args {
				vals[i] = a(r)
			}
			return fn(vals)
		}

	case *GetField:
		st, _ := x.Child.DataType().(types.StructType)
		idx := st.FieldIndex(x.FieldName)
		c := Compile(x.Child)
		return func(r row.Row) any {
			v := c(r)
			if v == nil {
				return nil
			}
			return v.(row.Row)[idx]
		}

	case *CaseWhen:
		branches := x.Branches()
		conds := make([]Evaluator, len(branches))
		vals := make([]Evaluator, len(branches))
		for i, b := range branches {
			conds[i] = Compile(b[0])
			vals[i] = Compile(b[1])
		}
		var elseEval Evaluator
		if e := x.ElseValue(); e != nil {
			elseEval = Compile(e)
		}
		return func(r row.Row) any {
			for i := range conds {
				if conds[i](r) == true {
					return vals[i](r)
				}
			}
			if elseEval != nil {
				return elseEval(r)
			}
			return nil
		}

	case *Coalesce:
		args := make([]Evaluator, len(x.Args))
		for i, a := range x.Args {
			args[i] = Compile(a)
		}
		return func(r row.Row) any {
			for _, a := range args {
				if v := a(r); v != nil {
					return v
				}
			}
			return nil
		}

	default:
		// Fall back to interpreted evaluation for this subtree, mirroring
		// the paper's combination of generated and interpreted code.
		return compileViaInterp(e)
	}
}

func compileViaInterp(e Expression) Evaluator {
	return func(r row.Row) any { return e.Eval(r) }
}

func zeroOf(v any) any {
	switch v.(type) {
	case int32:
		return int32(0)
	case int64:
		return int64(0)
	case float32:
		return float32(0)
	case float64:
		return float64(0)
	case types.Decimal:
		return types.Decimal{}
	}
	return nil
}

// compileArith specializes on the statically known operand type so the
// per-row path has no type switch — the analogue of generating typed
// bytecode for `a + b`.
func compileArith(x *BinaryArith) Evaluator {
	l, r := Compile(x.Left), Compile(x.Right)
	op := x.Op
	switch {
	case x.Left.DataType().Equals(types.Long):
		return func(in row.Row) any {
			lv := l(in)
			if lv == nil {
				return nil
			}
			rv := r(in)
			if rv == nil {
				return nil
			}
			return intArith(op, lv.(int64), rv.(int64), func(v int64) any { return v })
		}
	case x.Left.DataType().Equals(types.Int):
		return func(in row.Row) any {
			lv := l(in)
			if lv == nil {
				return nil
			}
			rv := r(in)
			if rv == nil {
				return nil
			}
			return intArith(op, int64(lv.(int32)), int64(rv.(int32)), func(v int64) any { return int32(v) })
		}
	case x.Left.DataType().Equals(types.Double):
		switch op {
		case OpAdd:
			return func(in row.Row) any {
				lv := l(in)
				if lv == nil {
					return nil
				}
				rv := r(in)
				if rv == nil {
					return nil
				}
				return lv.(float64) + rv.(float64)
			}
		case OpMul:
			return func(in row.Row) any {
				lv := l(in)
				if lv == nil {
					return nil
				}
				rv := r(in)
				if rv == nil {
					return nil
				}
				return lv.(float64) * rv.(float64)
			}
		default:
			return func(in row.Row) any {
				lv := l(in)
				if lv == nil {
					return nil
				}
				rv := r(in)
				if rv == nil {
					return nil
				}
				return floatArith(op, lv.(float64), rv.(float64))
			}
		}
	default:
		return func(in row.Row) any {
			lv := l(in)
			if lv == nil {
				return nil
			}
			rv := r(in)
			if rv == nil {
				return nil
			}
			return arith(op, lv, rv)
		}
	}
}

// compileComparison specializes equality/order tests on the operand type.
func compileComparison(x *Comparison) Evaluator {
	l, r := Compile(x.Left), Compile(x.Right)
	op := x.Op
	t := x.Left.DataType()
	switch {
	case t.Equals(types.Int):
		return func(in row.Row) any {
			lv := l(in)
			if lv == nil {
				return nil
			}
			rv := r(in)
			if rv == nil {
				return nil
			}
			return cmpResult(op, int64(lv.(int32)), int64(rv.(int32)))
		}
	case t.Equals(types.Long):
		return func(in row.Row) any {
			lv := l(in)
			if lv == nil {
				return nil
			}
			rv := r(in)
			if rv == nil {
				return nil
			}
			return cmpResult(op, lv.(int64), rv.(int64))
		}
	case t.Equals(types.Double):
		return func(in row.Row) any {
			lv := l(in)
			if lv == nil {
				return nil
			}
			rv := r(in)
			if rv == nil {
				return nil
			}
			return cmpFloat(op, lv.(float64), rv.(float64))
		}
	case t.Equals(types.String):
		return func(in row.Row) any {
			lv := l(in)
			if lv == nil {
				return nil
			}
			rv := r(in)
			if rv == nil {
				return nil
			}
			return cmpString(op, lv.(string), rv.(string))
		}
	default:
		return func(in row.Row) any {
			lv := l(in)
			if lv == nil {
				return nil
			}
			rv := r(in)
			if rv == nil {
				return nil
			}
			return compare(op, lv, rv)
		}
	}
}

func cmpResult(op CmpOp, a, b int64) bool {
	switch op {
	case OpEQ:
		return a == b
	case OpNEQ:
		return a != b
	case OpLT:
		return a < b
	case OpLE:
		return a <= b
	case OpGT:
		return a > b
	default:
		return a >= b
	}
}

// cmpFloat matches the interpreter's Spark-style NaN semantics: NaN equals
// NaN and sorts greater than every other value.
func cmpFloat(op CmpOp, a, b float64) bool {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	if an || bn {
		var c int
		switch {
		case an && bn:
			c = 0
		case an:
			c = 1
		default:
			c = -1
		}
		switch op {
		case OpEQ:
			return c == 0
		case OpNEQ:
			return c != 0
		case OpLT:
			return c < 0
		case OpLE:
			return c <= 0
		case OpGT:
			return c > 0
		default:
			return c >= 0
		}
	}
	switch op {
	case OpEQ:
		return a == b
	case OpNEQ:
		return a != b
	case OpLT:
		return a < b
	case OpLE:
		return a <= b
	case OpGT:
		return a > b
	default:
		return a >= b
	}
}

func cmpString(op CmpOp, a, b string) bool {
	switch op {
	case OpEQ:
		return a == b
	case OpNEQ:
		return a != b
	case OpLT:
		return a < b
	case OpLE:
		return a <= b
	case OpGT:
		return a > b
	default:
		return a >= b
	}
}

func compileStringMatch(x *StringMatch) Evaluator {
	l, r := Compile(x.Left), Compile(x.Right)
	kind := x.Kind
	return func(in row.Row) any {
		lv := l(in)
		if lv == nil {
			return nil
		}
		rv := r(in)
		if rv == nil {
			return nil
		}
		return kind.match(lv.(string), rv.(string))
	}
}

func compileIn(x *In) Evaluator {
	v := Compile(x.Value)
	// Constant IN lists compile to a hash-set membership test.
	allConst := true
	set := make(map[string]struct{}, len(x.List))
	for _, e := range x.List {
		lit, ok := e.(*Literal)
		if !ok || lit.Value == nil {
			allConst = false
			break
		}
		set[row.GroupKey(row.New(lit.Value), []int{0})] = struct{}{}
	}
	if allConst {
		return func(r row.Row) any {
			val := v(r)
			if val == nil {
				return nil
			}
			_, ok := set[row.GroupKey(row.New(val), []int{0})]
			return ok
		}
	}
	list := make([]Evaluator, len(x.List))
	for i, e := range x.List {
		list[i] = Compile(e)
	}
	return func(r row.Row) any {
		val := v(r)
		if val == nil {
			return nil
		}
		sawNull := false
		for _, e := range list {
			ev := e(r)
			if ev == nil {
				sawNull = true
				continue
			}
			if row.Equal(val, ev) {
				return true
			}
		}
		if sawNull {
			return nil
		}
		return false
	}
}

// CompilePredicate compiles a boolean expression into a filter where NULL
// is treated as false (WHERE semantics).
func CompilePredicate(e Expression) Predicate {
	ev := Compile(e)
	return func(r row.Row) bool { return ev(r) == true }
}
