package expr

import (
	"testing"

	"repro/internal/row"
	"repro/internal/types"
)

func boundInt(ord int) *BoundReference {
	return &BoundReference{Ordinal: ord, Type: types.Int, Null: true}
}

func boundLong(ord int) *BoundReference {
	return &BoundReference{Ordinal: ord, Type: types.Long, Null: true}
}

func boundStr(ord int) *BoundReference {
	return &BoundReference{Ordinal: ord, Type: types.String, Null: true}
}

func TestLiteralInference(t *testing.T) {
	cases := []struct {
		v    any
		want types.DataType
	}{
		{nil, types.Null},
		{true, types.Boolean},
		{7, types.Int},
		{int32(7), types.Int},
		{int64(7), types.Long},
		{2.5, types.Double},
		{"x", types.String},
	}
	for _, c := range cases {
		l := Lit(c.v)
		if !l.DataType().Equals(c.want) {
			t.Errorf("Lit(%v) type = %s, want %s", c.v, l.DataType().Name(), c.want.Name())
		}
		if !l.Resolved() {
			t.Errorf("literals are always resolved")
		}
	}
}

func TestArithmeticEvalAllTypes(t *testing.T) {
	r := row.Row{int32(6), int32(3)}
	cases := []struct {
		e    Expression
		want any
	}{
		{Add(boundInt(0), boundInt(1)), int32(9)},
		{Sub(boundInt(0), boundInt(1)), int32(3)},
		{Mul(boundInt(0), boundInt(1)), int32(18)},
		{Div(boundInt(0), boundInt(1)), int32(2)},
		{Mod(boundInt(0), boundInt(1)), int32(0)},
	}
	for _, c := range cases {
		if got := c.e.Eval(r); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
	// Long / double / decimal paths.
	if got := Add(Lit(int64(1)), Lit(int64(2))).Eval(nil); got != int64(3) {
		t.Errorf("long add = %v", got)
	}
	if got := Mul(Lit(1.5), Lit(2.0)).Eval(nil); got != 3.0 {
		t.Errorf("double mul = %v", got)
	}
	d1 := Lit(types.NewDecimal(150, 2))
	d2 := Lit(types.NewDecimal(50, 2))
	if got := Add(d1, d2).Eval(nil).(types.Decimal); got.String() != "2.00" {
		t.Errorf("decimal add = %v", got)
	}
}

func TestArithmeticNullSemantics(t *testing.T) {
	r := row.Row{nil, int32(3)}
	if got := Add(boundInt(0), boundInt(1)).Eval(r); got != nil {
		t.Errorf("NULL + x = %v, want NULL", got)
	}
	// Division / modulo by zero yield NULL.
	zero := row.Row{int32(5), int32(0)}
	if got := Div(boundInt(0), boundInt(1)).Eval(zero); got != nil {
		t.Errorf("x/0 = %v, want NULL", got)
	}
	if got := Mod(boundInt(0), boundInt(1)).Eval(zero); got != nil {
		t.Errorf("x%%0 = %v, want NULL", got)
	}
}

func TestComparisons(t *testing.T) {
	r := row.Row{int32(1), int32(2)}
	cases := []struct {
		e    Expression
		want any
	}{
		{EQ(boundInt(0), boundInt(1)), false},
		{NEQ(boundInt(0), boundInt(1)), true},
		{LT(boundInt(0), boundInt(1)), true},
		{LE(boundInt(0), boundInt(0)), true},
		{GT(boundInt(0), boundInt(1)), false},
		{GE(boundInt(1), boundInt(0)), true},
	}
	for _, c := range cases {
		if got := c.e.Eval(r); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
	// NULL comparisons are NULL.
	if got := EQ(boundInt(0), boundInt(1)).Eval(row.Row{nil, int32(2)}); got != nil {
		t.Errorf("NULL = x should be NULL, got %v", got)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	tr, fa, nu := Lit(true), Lit(false), &Literal{Value: nil, Type: types.Boolean}
	cases := []struct {
		e    Expression
		want any
	}{
		{&And{Left: tr, Right: tr}, true},
		{&And{Left: tr, Right: fa}, false},
		{&And{Left: fa, Right: nu}, false}, // false AND NULL = false
		{&And{Left: nu, Right: fa}, false},
		{&And{Left: tr, Right: nu}, nil},
		{&Or{Left: fa, Right: fa}, false},
		{&Or{Left: tr, Right: nu}, true}, // true OR NULL = true
		{&Or{Left: nu, Right: tr}, true},
		{&Or{Left: fa, Right: nu}, nil},
		{&Not{tr}, false},
		{&Not{nu}, nil},
	}
	for _, c := range cases {
		got := c.e.Eval(nil)
		if !row.Equal(got, c.want) {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestIsNullAndIn(t *testing.T) {
	r := row.Row{nil, int32(5)}
	if got := (&IsNull{boundInt(0)}).Eval(r); got != true {
		t.Error("IS NULL on nil")
	}
	if got := (&IsNotNull{boundInt(1)}).Eval(r); got != true {
		t.Error("IS NOT NULL on value")
	}
	in := &In{Value: boundInt(1), List: []Expression{Lit(int32(1)), Lit(int32(5))}}
	if got := in.Eval(r); got != true {
		t.Error("IN should match")
	}
	// Non-matching with NULL in list => NULL.
	inNull := &In{Value: boundInt(1), List: []Expression{Lit(int32(1)), &Literal{Value: nil, Type: types.Int}}}
	if got := inNull.Eval(r); got != nil {
		t.Errorf("IN with NULL list = %v, want NULL", got)
	}
	// NULL value => NULL.
	if got := in.WithNewChildren(append([]Expression{boundInt(0)}, in.List...)).Eval(r); got != nil {
		t.Errorf("NULL IN (...) = %v, want NULL", got)
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{"aXbXc", "a%b%c", true},
		{"mississippi", "%izz%pi", false},
		{"mississippi", "%iss%ppi", true},
	}
	for _, c := range cases {
		if got := LikeMatch(c.s, c.p); got != c.want {
			t.Errorf("LikeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestStringFunctions(t *testing.T) {
	r := row.Row{"Hello World"}
	if got := Upper(boundStr(0)).Eval(r); got != "HELLO WORLD" {
		t.Errorf("upper = %v", got)
	}
	if got := Lower(boundStr(0)).Eval(r); got != "hello world" {
		t.Errorf("lower = %v", got)
	}
	if got := Length(boundStr(0)).Eval(r); got != int32(11) {
		t.Errorf("length = %v", got)
	}
	sub := &Substring{Str: boundStr(0), Pos: Lit(1), Len: Lit(5)}
	if got := sub.Eval(r); got != "Hello" {
		t.Errorf("substr = %v", got)
	}
	// Out-of-range substring clamps.
	sub2 := &Substring{Str: boundStr(0), Pos: Lit(10), Len: Lit(99)}
	if got := sub2.Eval(r); got != "ld" {
		t.Errorf("substr clamp = %q", got)
	}
	cat := &Concat{Args: []Expression{Lit("a"), Lit("b"), Lit("c")}}
	if got := cat.Eval(nil); got != "abc" {
		t.Errorf("concat = %v", got)
	}
	if got := StartsWith(boundStr(0), Lit("Hell")).Eval(r); got != true {
		t.Error("startswith")
	}
	if got := EndsWith(boundStr(0), Lit("rld")).Eval(r); got != true {
		t.Error("endswith")
	}
	if got := Contains(boundStr(0), Lit("o W")).Eval(r); got != true {
		t.Error("contains")
	}
}

func TestCaseWhenAndCoalesce(t *testing.T) {
	c := NewCaseWhen([][2]Expression{
		{LT(boundInt(0), Lit(int32(10))), Lit("small")},
		{LT(boundInt(0), Lit(int32(100))), Lit("medium")},
	}, Lit("large"))
	cases := []struct {
		in   int32
		want string
	}{{5, "small"}, {50, "medium"}, {500, "large"}}
	for _, tc := range cases {
		if got := c.Eval(row.Row{tc.in}); got != tc.want {
			t.Errorf("case(%d) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// Without ELSE, unmatched is NULL.
	noElse := NewCaseWhen([][2]Expression{{Lit(false), Lit("x")}}, nil)
	if got := noElse.Eval(nil); got != nil {
		t.Errorf("no-else case = %v", got)
	}
	co := &Coalesce{Args: []Expression{&Literal{Value: nil, Type: types.Int}, Lit(int32(7))}}
	if got := co.Eval(nil); got != int32(7) {
		t.Errorf("coalesce = %v", got)
	}
}

func TestCastMatrix(t *testing.T) {
	cases := []struct {
		v    any
		to   types.DataType
		want any
	}{
		{int32(5), types.Long, int64(5)},
		{int64(5), types.Int, int32(5)},
		{int32(5), types.Double, 5.0},
		{2.9, types.Int, int32(2)}, // truncation
		{"42", types.Int, int32(42)},
		{"2.5", types.Double, 2.5},
		{"abc", types.Int, nil}, // invalid -> NULL
		{int32(1), types.String, "1"},
		{2.5, types.String, "2.5"},
		{"true", types.Boolean, true},
		{"no", types.Boolean, false},
		{"maybe", types.Boolean, nil},
		{"2015-01-01", types.Date, int32(16436)},
		{"1970-01-01", types.Date, int32(0)},
		{"1969-12-31", types.Date, int32(-1)},
	}
	for _, c := range cases {
		got := CastValue(c.v, c.to)
		if !row.Equal(got, c.want) {
			t.Errorf("CAST(%v AS %s) = %v, want %v", c.v, c.to.Name(), got, c.want)
		}
	}
	// Decimal casts.
	if got := CastValue("12.345", types.DecimalType{Precision: 10, Scale: 2}); got.(types.Decimal).String() != "12.34" {
		t.Errorf("string->decimal = %v", got)
	}
	if got := CastValue(int32(3), types.DecimalType{Precision: 10, Scale: 2}); got.(types.Decimal).String() != "3.00" {
		t.Errorf("int->decimal = %v", got)
	}
}

func TestDateRoundTrip(t *testing.T) {
	for _, days := range []int32{0, 1, -1, 16436, 3653, -719162, 2932896} {
		y, m, d := DaysToCivil(days)
		s := FormatDate(days)
		back := CastValue(s, types.Date)
		if back != days {
			t.Errorf("date %d (%04d-%02d-%02d) round-trip = %v", days, y, m, d, back)
		}
	}
}

func TestAttributesAndAliases(t *testing.T) {
	a := NewAttribute("x", types.Int, false)
	b := NewAttribute("x", types.Int, false)
	if a.ID_ == b.ID_ {
		t.Error("fresh attributes must have distinct IDs")
	}
	if a.WithQualifier("t").ID_ != a.ID_ {
		t.Error("qualifying preserves identity")
	}
	if a.WithFreshID().ID_ == a.ID_ {
		t.Error("WithFreshID must change identity")
	}
	al := NewAlias(Add(a, Lit(int32(1))), "y")
	if al.OutName() != "y" || !al.DataType().Equals(types.Int) {
		t.Errorf("alias metadata wrong")
	}
	if al.ToAttribute().ID_ != al.ID_ {
		t.Error("alias attribute shares the alias ID")
	}
}

func TestReferencesAndConjuncts(t *testing.T) {
	a := NewAttribute("a", types.Int, false)
	b := NewAttribute("b", types.Int, false)
	e := &And{Left: GT(a, Lit(int32(1))), Right: LT(b, Lit(int32(5)))}
	refs := References(e)
	if !refs.Contains(a.ID_) || !refs.Contains(b.ID_) || len(refs) != 2 {
		t.Errorf("references = %v", refs)
	}
	conj := SplitConjuncts(e)
	if len(conj) != 2 {
		t.Errorf("conjuncts = %v", conj)
	}
	if JoinConjuncts(conj).String() != e.String() {
		t.Error("JoinConjuncts should rebuild the conjunction")
	}
	if JoinConjuncts(nil) != nil {
		t.Error("empty conjunct list is nil")
	}
}

func TestBind(t *testing.T) {
	a := NewAttribute("a", types.Int, false)
	b := NewAttribute("b", types.Int, true)
	e := Add(a, b)
	bound, err := Bind(e, []*AttributeReference{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got := bound.Eval(row.Row{int32(2), int32(3)}); got != int32(5) {
		t.Errorf("bound eval = %v", got)
	}
	// Missing attribute fails.
	c := NewAttribute("c", types.Int, false)
	if _, err := Bind(Add(a, c), []*AttributeReference{a, b}); err == nil {
		t.Error("binding unknown attribute should fail")
	}
}

func TestUDFEval(t *testing.T) {
	udf := &ScalarUDF{
		Name: "twice",
		Fn:   func(args []any) any { return args[0].(int32) * 2 },
		In:   []types.DataType{types.Int},
		Ret:  types.Int,
		Args: []Expression{boundInt(0)},
	}
	if got := udf.Eval(row.Row{int32(21)}); got != int32(42) {
		t.Errorf("udf = %v", got)
	}
	if !udf.Resolved() {
		t.Error("typed udf should be resolved")
	}
}

func TestDecimalHelpers(t *testing.T) {
	d := Lit(types.NewDecimal(12345, 2))
	u := &UnscaledValue{Child: d}
	if got := u.Eval(nil); got != int64(12345) {
		t.Errorf("unscaled = %v", got)
	}
	m := &MakeDecimal{Child: Lit(int64(999)), Precision: 10, Scale: 2}
	if got := m.Eval(nil).(types.Decimal); got.String() != "9.99" {
		t.Errorf("makedecimal = %v", got)
	}
	if !m.DataType().Equals(types.DecimalType{Precision: 10, Scale: 2}) {
		t.Error("makedecimal type")
	}
}

func TestGetFieldAndArray(t *testing.T) {
	st := types.StructType{}.Add("x", types.Double, false).Add("y", types.Double, false)
	structRef := &BoundReference{Ordinal: 0, Type: st, Null: true}
	gf := &GetField{Child: structRef, FieldName: "y"}
	r := row.Row{row.Row{1.5, 2.5}}
	if got := gf.Eval(r); got != 2.5 {
		t.Errorf("getfield = %v", got)
	}
	if gf.Eval(row.Row{nil}) != nil {
		t.Error("getfield on NULL struct is NULL")
	}

	arrRef := &BoundReference{Ordinal: 0, Type: types.ArrayType{Elem: types.Int}, Null: true}
	gi := &GetArrayItem{Child: arrRef, Index: Lit(1)}
	ar := row.Row{[]any{int32(10), int32(20)}}
	if got := gi.Eval(ar); got != int32(20) {
		t.Errorf("getitem = %v", got)
	}
	oob := &GetArrayItem{Child: arrRef, Index: Lit(9)}
	if oob.Eval(ar) != nil {
		t.Error("out-of-range index is NULL")
	}
	sz := &ArraySize{Child: arrRef}
	if got := sz.Eval(ar); got != int32(2) {
		t.Errorf("size = %v", got)
	}
}

func TestTreeStringIncludesIDs(t *testing.T) {
	a := NewAttribute("col", types.Int, false)
	s := GT(a, Lit(int32(3))).String()
	if s == "" || s == "(col > 3)" {
		t.Errorf("attribute IDs must render (got %q) so printed plans and Equivalent tell attributes apart", s)
	}
}
