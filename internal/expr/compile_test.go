package expr

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/row"
	"repro/internal/types"
)

// randomExpr builds a random boolean- or value-typed expression over the
// schema (a INT nullable, b BIGINT nullable, s STRING nullable, d DOUBLE).
// Used by the compile-vs-interpret equivalence property.
func randomExpr(rng *rand.Rand, depth int, want types.DataType) Expression {
	a := &BoundReference{Ordinal: 0, Type: types.Int, Null: true}
	b := &BoundReference{Ordinal: 1, Type: types.Long, Null: true}
	s := &BoundReference{Ordinal: 2, Type: types.String, Null: true}
	d := &BoundReference{Ordinal: 3, Type: types.Double, Null: false}

	leaf := func(t types.DataType) Expression {
		switch {
		case t.Equals(types.Int):
			if rng.Intn(2) == 0 {
				return a
			}
			return Lit(int32(rng.Intn(20) - 10))
		case t.Equals(types.Long):
			if rng.Intn(2) == 0 {
				return b
			}
			return Lit(int64(rng.Intn(20) - 10))
		case t.Equals(types.Double):
			if rng.Intn(2) == 0 {
				return d
			}
			return Lit(float64(rng.Intn(10)))
		case t.Equals(types.String):
			if rng.Intn(2) == 0 {
				return s
			}
			return Lit([]string{"foo", "bar", "spark", ""}[rng.Intn(4)])
		default: // boolean leaf
			return Lit(rng.Intn(2) == 0)
		}
	}
	if depth <= 0 {
		return leaf(want)
	}
	sub := func(t types.DataType) Expression { return randomExpr(rng, depth-1, t) }
	switch {
	case want.Equals(types.Boolean):
		switch rng.Intn(8) {
		case 0:
			return &And{Left: sub(types.Boolean), Right: sub(types.Boolean)}
		case 1:
			return &Or{Left: sub(types.Boolean), Right: sub(types.Boolean)}
		case 2:
			return &Not{sub(types.Boolean)}
		case 3:
			t := []types.DataType{types.Int, types.Long, types.Double, types.String}[rng.Intn(4)]
			op := []CmpOp{OpEQ, OpNEQ, OpLT, OpLE, OpGT, OpGE}[rng.Intn(6)]
			return &Comparison{Op: op, Left: sub(t), Right: sub(t)}
		case 4:
			return &IsNull{sub(types.Int)}
		case 5:
			return &IsNotNull{sub(types.String)}
		case 6:
			return &In{Value: sub(types.Int), List: []Expression{Lit(int32(1)), Lit(int32(2)), Lit(int32(3))}}
		default:
			return &StringMatch{Kind: strMatchKind(rng.Intn(3)), Left: sub(types.String), Right: Lit("a")}
		}
	case want.Equals(types.Int), want.Equals(types.Long), want.Equals(types.Double):
		switch rng.Intn(6) {
		case 0, 1:
			op := []ArithOp{OpAdd, OpSub, OpMul}[rng.Intn(3)]
			return &BinaryArith{Op: op, Left: sub(want), Right: sub(want)}
		case 2:
			return &BinaryArith{Op: OpDiv, Left: sub(want), Right: sub(want)}
		case 3:
			return NewCaseWhen([][2]Expression{{sub(types.Boolean), sub(want)}}, sub(want))
		case 4:
			return &Coalesce{Args: []Expression{sub(want), sub(want)}}
		default:
			return leaf(want)
		}
	case want.Equals(types.String):
		switch rng.Intn(4) {
		case 0:
			return &Concat{Args: []Expression{sub(types.String), sub(types.String)}}
		case 1:
			return Upper(sub(types.String))
		case 2:
			return &Substring{Str: sub(types.String), Pos: Lit(1), Len: Lit(2)}
		default:
			return leaf(want)
		}
	}
	return leaf(want)
}

func randomRow(rng *rand.Rand) row.Row {
	r := row.Row{int32(rng.Intn(10) - 5), int64(rng.Intn(10) - 5), "spark", float64(rng.Intn(5))}
	if rng.Intn(4) == 0 {
		r[0] = nil
	}
	if rng.Intn(4) == 0 {
		r[1] = nil
	}
	if rng.Intn(4) == 0 {
		r[2] = nil
	}
	return r
}

// Property: for any expression, compiled evaluation matches interpreted
// evaluation on any row — the correctness contract of §4.3.4's codegen.
func TestCompileMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		want := []types.DataType{types.Boolean, types.Int, types.Long, types.Double, types.String}[rng.Intn(5)]
		e := randomExpr(rng, 4, want)
		compiled := Compile(e)
		for i := 0; i < 5; i++ {
			r := randomRow(rng)
			interp := e.Eval(r)
			gen := compiled(r)
			if !row.Equal(interp, gen) {
				t.Fatalf("trial %d: %s\nrow %v\ninterpreted=%v compiled=%v",
					trial, e, r, interp, gen)
			}
		}
	}
}

// Property: CompilePredicate treats NULL as non-matching (WHERE semantics).
func TestCompilePredicateNullIsFalse(t *testing.T) {
	a := &BoundReference{Ordinal: 0, Type: types.Int, Null: true}
	pred := CompilePredicate(GT(a, Lit(int32(0))))
	if pred(row.Row{nil}) {
		t.Error("NULL predicate must not match")
	}
	if !pred(row.Row{int32(1)}) || pred(row.Row{int32(-1)}) {
		t.Error("predicate values wrong")
	}
}

// Property: LikeMatch agrees with regexp-based matching for random
// patterns built from literals, % and _.
func TestLikeMatchAgainstRegexp(t *testing.T) {
	f := func(sRaw, pRaw []byte) bool {
		alphabet := "ab%_"
		var sb, pb strings.Builder
		for _, c := range sRaw {
			sb.WriteByte("ab"[int(c)%2])
		}
		for _, c := range pRaw {
			pb.WriteByte(alphabet[int(c)%4])
		}
		s, p := sb.String(), pb.String()
		re := "^" + strings.ReplaceAll(strings.ReplaceAll(regexp.QuoteMeta(p), "%", ".*"), "_", ".") + "$"
		want := regexp.MustCompile(re).MatchString(s)
		return LikeMatch(s, p) == want
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: compiled IN over constant lists matches interpreted IN.
func TestCompileInConstantList(t *testing.T) {
	a := &BoundReference{Ordinal: 0, Type: types.Int, Null: true}
	in := &In{Value: a, List: []Expression{Lit(int32(1)), Lit(int32(3)), Lit(int32(5))}}
	compiled := Compile(in)
	for _, v := range []any{int32(1), int32(2), int32(5), nil} {
		r := row.Row{v}
		if !row.Equal(compiled(r), in.Eval(r)) {
			t.Errorf("IN mismatch at %v: compiled=%v interp=%v", v, compiled(r), in.Eval(r))
		}
	}
}

// Aggregate buffers: Update-then-Merge must equal aggregating everything in
// one buffer, for any split point (the partial/final contract).
func TestAggregateMergeConsistency(t *testing.T) {
	x := &BoundReference{Ordinal: 0, Type: types.Int, Null: true}
	aggs := []AggregateFunc{
		&Count{Child: x},
		NewCountStar(),
		&Sum{Child: x},
		&Avg{Child: x},
		NewMin(x),
		NewMax(x),
		&First{Child: x},
	}
	rows := []row.Row{{int32(3)}, {nil}, {int32(-1)}, {int32(7)}, {int32(7)}, {nil}, {int32(0)}}
	for _, agg := range aggs {
		whole := agg.NewBuffer()
		for _, r := range rows {
			whole = agg.Update(whole, r)
		}
		want := agg.Result(whole)
		for split := 0; split <= len(rows); split++ {
			b1, b2 := agg.NewBuffer(), agg.NewBuffer()
			for _, r := range rows[:split] {
				b1 = agg.Update(b1, r)
			}
			for _, r := range rows[split:] {
				b2 = agg.Update(b2, r)
			}
			got := agg.Result(agg.Merge(b1, b2))
			if !row.Equal(got, want) {
				t.Errorf("%s split %d: %v != %v", agg, split, got, want)
			}
		}
	}
}

func TestAggregateEmptyGroups(t *testing.T) {
	x := &BoundReference{Ordinal: 0, Type: types.Int, Null: true}
	if got := (&Count{Child: x}).Result((&Count{Child: x}).NewBuffer()); got != int64(0) {
		t.Errorf("empty count = %v", got)
	}
	s := &Sum{Child: x}
	if got := s.Result(s.NewBuffer()); got != nil {
		t.Errorf("empty sum = %v, want NULL", got)
	}
	av := &Avg{Child: x}
	if got := av.Result(av.NewBuffer()); got != nil {
		t.Errorf("empty avg = %v, want NULL", got)
	}
}

func TestSumTypeWidening(t *testing.T) {
	intSum := &Sum{Child: &BoundReference{Ordinal: 0, Type: types.Int, Null: true}}
	if !intSum.DataType().Equals(types.Long) {
		t.Error("SUM(INT) widens to BIGINT")
	}
	decSum := &Sum{Child: &BoundReference{Ordinal: 0, Type: types.DecimalType{Precision: 5, Scale: 2}, Null: true}}
	if !decSum.DataType().Equals(types.DecimalType{Precision: 15, Scale: 2}) {
		t.Error("SUM(DECIMAL(5,2)) widens to DECIMAL(15,2)")
	}
	dblSum := &Sum{Child: &BoundReference{Ordinal: 0, Type: types.Double, Null: true}}
	if !dblSum.DataType().Equals(types.Double) {
		t.Error("SUM(DOUBLE) stays DOUBLE")
	}
}

func TestDecimalSumBuffers(t *testing.T) {
	x := &BoundReference{Ordinal: 0, Type: types.DecimalType{Precision: 5, Scale: 2}, Null: true}
	s := &Sum{Child: x}
	buf := s.NewBuffer()
	for _, d := range []types.Decimal{types.NewDecimal(150, 2), types.NewDecimal(250, 2)} {
		buf = s.Update(buf, row.Row{d})
	}
	got := s.Result(buf).(types.Decimal)
	if got.String() != "4.00" {
		t.Errorf("decimal sum = %s", got)
	}
}
