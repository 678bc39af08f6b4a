package expr

import (
	"testing"

	"repro/internal/types"
)

// everyExpr builds one instance of every expression node (resolved where
// the node supports it).
func everyExpr() []Expression {
	i := &BoundReference{Ordinal: 0, Type: types.Int, Null: true}
	l := &BoundReference{Ordinal: 1, Type: types.Long, Null: true}
	s := &BoundReference{Ordinal: 2, Type: types.String, Null: true}
	d := &BoundReference{Ordinal: 3, Type: types.Double, Null: false}
	b := &BoundReference{Ordinal: 4, Type: types.Boolean, Null: true}
	dec := &BoundReference{Ordinal: 5, Type: types.DecimalType{Precision: 5, Scale: 2}, Null: true}
	st := &BoundReference{Ordinal: 6, Type: types.StructType{}.Add("f", types.Int, false), Null: true}
	arr := &BoundReference{Ordinal: 7, Type: types.ArrayType{Elem: types.Int}, Null: true}
	attr := NewAttribute("col", types.Int, true)

	return []Expression{
		Lit(int32(1)), Lit(nil), Lit("x"), Lit(true),
		attr, attr.WithQualifier("t"),
		UnresolvedAttr("a", "b"),
		&Star{}, &Star{Qualifier: "t"},
		NewAlias(i, "al"),
		Add(i, i), Sub(l, l), Mul(d, d), Div(i, i), Mod(l, l),
		&Negate{Child: i}, &Abs{Child: d},
		EQ(i, i), NEQ(s, s), LT(l, l), LE(d, d), GT(i, i), GE(i, i),
		&And{Left: b, Right: b}, &Or{Left: b, Right: b}, &Not{b},
		&IsNull{i}, &IsNotNull{s},
		&In{Value: i, List: []Expression{Lit(int32(1)), Lit(int32(2))}},
		&Like{Left: s, Pattern: Lit("%x%")},
		StartsWith(s, Lit("a")), EndsWith(s, Lit("b")), Contains(s, Lit("c")),
		Upper(s), Lower(s), Length(s), Trim(s),
		&Substring{Str: s, Pos: Lit(1), Len: Lit(2)},
		&Concat{Args: []Expression{s, Lit("!")}},
		NewCast(i, types.Long),
		NewCaseWhen([][2]Expression{{b, i}, {b, i}}, i),
		NewCaseWhen([][2]Expression{{b, i}}, nil),
		&Coalesce{Args: []Expression{i, Lit(int32(0))}},
		&GetField{Child: st, FieldName: "f"},
		&GetArrayItem{Child: arr, Index: Lit(0)},
		&ArraySize{Child: arr},
		&Count{Child: i}, NewCountStar(),
		&Sum{Child: i}, &Sum{Child: dec}, &Avg{Child: d},
		NewMin(i), NewMax(s), &First{Child: i},
		&UnscaledValue{Child: dec},
		&MakeDecimal{Child: l, Precision: 12, Scale: 2},
		&ScalarUDF{Name: "u", Fn: func([]any) any { return nil },
			In: []types.DataType{types.Int}, Ret: types.Int, Args: []Expression{i}},
		&UnresolvedFunction{Name: "f", Args: []Expression{i}},
		Asc(i), Desc(s),
	}
}

// The transform contract: WithNewChildren(Children()) reproduces an
// equivalent node.
func TestExprRebuildContract(t *testing.T) {
	for _, e := range everyExpr() {
		rebuilt := e.WithNewChildren(e.Children())
		if rebuilt.String() != e.String() {
			t.Errorf("%T: rebuild changed the tree: %s vs %s", e, e, rebuilt)
		}
		if len(rebuilt.Children()) != len(e.Children()) {
			t.Errorf("%T: child count changed", e)
		}
		if e.String() == "" {
			t.Errorf("%T: empty String()", e)
		}
	}
}

// Resolved expressions must report a data type and nullability without
// panicking; unresolved ones must say so.
func TestExprResolutionMetadata(t *testing.T) {
	for _, e := range everyExpr() {
		if !e.Resolved() {
			switch e.(type) {
			case *UnresolvedAttribute, *Star, *UnresolvedFunction:
				// expectedly unresolved
			default:
				t.Errorf("%T built resolved in this fixture but reports unresolved: %s", e, e)
			}
			continue
		}
		if e.DataType() == nil {
			t.Errorf("%T: nil DataType", e)
		}
		_ = e.Nullable()
	}
}

// Identity transform reuses nodes.
func TestExprTransformIdentity(t *testing.T) {
	for _, e := range everyExpr() {
		out := TransformUp(e, func(Expression) (Expression, bool) { return nil, false })
		if out != e {
			t.Errorf("%T: identity transform copied the node", e)
		}
	}
}

// Compile must handle (or interpret-fallback) every resolved non-aggregate
// expression without panicking on construction.
func TestCompileTotality(t *testing.T) {
	for _, e := range everyExpr() {
		if !e.Resolved() {
			continue
		}
		if _, isAgg := e.(AggregateFunc); isAgg {
			continue
		}
		if _, isSort := e.(*SortOrder); isSort {
			continue
		}
		if _, isAttr := e.(*AttributeReference); isAttr {
			continue // attributes must be bound before compilation
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Compile(%T) panicked: %v", e, r)
				}
			}()
			_ = Compile(e)
		}()
	}
}
