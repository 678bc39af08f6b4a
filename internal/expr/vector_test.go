package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/columnar"
	"repro/internal/row"
	"repro/internal/types"
)

// vecSchema matches randomExpr's schema: a INT, b BIGINT, s STRING, d DOUBLE.
var vecSchema = []types.DataType{types.Int, types.Long, types.String, types.Double}

func rowsToBatch(rows []row.Row) *VecBatch {
	cols := make([]*columnar.Vector, len(vecSchema))
	for j, dt := range vecSchema {
		v := columnar.NewVector(dt, len(rows))
		for i, r := range rows {
			v.Set(i, r[j])
		}
		cols[j] = v
	}
	return &VecBatch{Cols: cols, N: len(rows)}
}

func randomVecRows(rng *rand.Rand, n int) []row.Row {
	words := []string{"foo", "bar", "spark", "", "a"}
	out := make([]row.Row, n)
	for i := range out {
		r := row.Row{int32(rng.Intn(10) - 5), int64(rng.Intn(10) - 5), words[rng.Intn(len(words))], float64(rng.Intn(5))}
		for j := 0; j < 3; j++ {
			if rng.Intn(4) == 0 {
				r[j] = nil
			}
		}
		out[i] = r
	}
	return out
}

func randomSel(rng *rand.Rand, n int) []int32 {
	sel := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(4) != 0 {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// Property: for any predicate the vector kernel (native or fallback) selects
// exactly the rows the scalar predicate keeps, without mutating the input
// selection — whether its selections are allocated or cut from a SelSlab.
func TestVecPredicateMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var slab SelSlab
	for trial := 0; trial < 800; trial++ {
		e := randomExpr(rng, 3, types.Boolean)
		rows := randomVecRows(rng, rng.Intn(120))
		batch := rowsToBatch(rows)
		sel := randomSel(rng, len(rows))
		selCopy := append([]int32(nil), sel...)

		// Every other trial cuts its selections from a slab, and runs the
		// kernel once more before looking: a second run must not land on the
		// first one's output.
		if trial%2 == 1 {
			batch.Sels = &slab
			slab.Reset()
		}
		pred, _ := CompileVecPredicate(e)
		got := pred(batch, sel)
		pred(batch, sel)

		var want []int32
		for _, i := range selCopy {
			if e.Eval(rows[i]) == true {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %s\nselected %d rows, want %d", trial, e, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("trial %d: %s\nposition %d: got row %d, want %d", trial, e, k, got[k], want[k])
			}
		}
		for k := range sel {
			if sel[k] != selCopy[k] {
				t.Fatalf("trial %d: %s mutated the input selection", trial, e)
			}
		}
	}
}

// Property: for any value expression the vector kernel produces, at every
// selected position, exactly the boxed value the interpreter produces.
func TestVecEvalMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	wants := []types.DataType{types.Int, types.Long, types.Double, types.String}
	for trial := 0; trial < 800; trial++ {
		e := randomExpr(rng, 3, wants[rng.Intn(len(wants))])
		rows := randomVecRows(rng, rng.Intn(120))
		batch := rowsToBatch(rows)
		sel := randomSel(rng, len(rows))

		ev, _ := CompileVec(e)
		v := ev(batch, sel)
		// BoxValues is RowInto over the selection, a column at a time: the
		// input columns, the kernel's output (typed, boxed or constant) and one
		// that was never decoded. Its arena, cut in two, reads as one.
		cols := append(batch.Cols[:len(batch.Cols):len(batch.Cols)], v, nil)
		w, half := len(cols), len(sel)/2
		cells := make([]any, len(sel)*w)
		BoxValues(cols, sel[:half], cells)
		BoxValues(cols, sel[half:], cells[half*w:])
		boxed := CutRows([]Arena{{Cells: cells[:half*w], N: half, W: w}, {Cells: cells[half*w:], N: len(sel) - half, W: w}})
		if len(boxed) != len(sel) || cap(boxed) != len(sel) {
			t.Fatalf("trial %d: CutRows made %d rows (capacity %d) of %d positions", trial, len(boxed), cap(boxed), len(sel))
		}
		for k, i := range sel {
			want := e.Eval(rows[i])
			got := v.Get(int(i))
			if !row.Equal(got, want) {
				t.Fatalf("trial %d: %s\nrow %d: vector=%v (%T), interpreter=%v (%T)",
					trial, e, i, got, got, want, want)
			}
			r := (&VecBatch{Cols: cols}).RowInto(int(i), make(row.Row, len(cols)))
			if fmt.Sprintf("%#v", boxed[k]) != fmt.Sprintf("%#v", r) {
				t.Fatalf("trial %d: %s\nrow %d boxed as %#v, RowInto gives %#v", trial, e, i, boxed[k], r)
			}
		}
		// Rows are capacity-clipped: an append to one never reaches the next.
		for k := 0; k+1 < len(boxed); k++ {
			next := fmt.Sprintf("%#v", boxed[k+1])
			_ = append(boxed[k], "x")
			if got := fmt.Sprintf("%#v", boxed[k+1]); got != next {
				t.Fatalf("trial %d: appending to row %d changed row %d from %s to %s", trial, k, k+1, next, got)
			}
		}
	}
}

// The kernels the issue names must compile natively; exotic nodes must
// report fallback (still correct, exercised by the properties above).
func TestVecNativeCoverage(t *testing.T) {
	a := &BoundReference{Ordinal: 0, Type: types.Int, Null: true}
	b := &BoundReference{Ordinal: 1, Type: types.Long, Null: true}
	s := &BoundReference{Ordinal: 2, Type: types.String, Null: true}
	d := &BoundReference{Ordinal: 3, Type: types.Double, Null: false}

	nativePreds := []Expression{
		GT(a, Lit(int32(3))),
		&Comparison{Op: OpLE, Left: d, Right: Lit(2.5)},
		&Comparison{Op: OpEQ, Left: s, Right: Lit("foo")},
		&And{GT(a, Lit(int32(0))), &Comparison{Op: OpLT, Left: b, Right: Lit(int64(9))}},
		&Or{GT(a, Lit(int32(7))), &IsNull{Child: s}},
		&IsNotNull{Child: a},
		&In{Value: b, List: []Expression{Lit(int64(1)), Lit(int64(2))}},
		&In{Value: s, List: []Expression{Lit("foo"), Lit("bar")}},
		&StringMatch{Kind: matchStartsWith, Left: s, Right: Lit("f")},
		&StringMatch{Kind: matchEndsWith, Left: s, Right: Lit("o")},
		&StringMatch{Kind: matchContains, Left: s, Right: Lit("o")},
		&Like{Left: s, Pattern: Lit("f%o_")},
	}
	for _, e := range nativePreds {
		if _, ok := CompileVecPredicate(e); !ok {
			t.Errorf("predicate %s should compile natively", e)
		}
	}
	fallbackPreds := []Expression{
		&Not{Child: GT(a, Lit(int32(3)))},
		&StringMatch{Kind: matchContains, Left: Upper(s), Right: Lit("o")},
	}
	for _, e := range fallbackPreds {
		if _, ok := CompileVecPredicate(e); ok {
			t.Errorf("predicate %s should report fallback", e)
		}
	}

	dcol := &BoundReference{Ordinal: 0, Type: types.Date, Null: true}
	nativeEvals := []Expression{
		a,
		Add(b, Lit(int64(2))),
		Mul(d, d),
		&Alias{Child: Sub(a, a), Name: "z"},
		Year(dcol),
		Month(dcol),
		Day(dcol),
	}
	for _, e := range nativeEvals {
		if _, ok := CompileVec(e); !ok {
			t.Errorf("eval %s should compile natively", e)
		}
	}
	if _, ok := CompileVec(Upper(s)); ok {
		t.Error("Upper should report fallback")
	}
}

// Integer division and modulo by zero are NULL; INT arithmetic wraps through
// int32 per node — both must match the scalar path exactly.
func TestVecArithEdgeCases(t *testing.T) {
	a := &BoundReference{Ordinal: 0, Type: types.Int, Null: true}
	b := &BoundReference{Ordinal: 1, Type: types.Long, Null: true}
	rows := []row.Row{
		{int32(10), int64(0), nil, 0.0},
		{int32(2147483647), int64(3), nil, 0.0},
		{int32(-5), int64(-2), nil, 0.0},
		{nil, int64(7), nil, 0.0},
	}
	batch := rowsToBatch(rows)
	sel := []int32{0, 1, 2, 3}
	exprs := []Expression{
		Div(a, Lit(int32(0))),                      // NULL
		&BinaryArith{Op: OpMod, Left: b, Right: b}, // 0%0 -> NULL at row 0
		Add(a, Lit(int32(1))),                      // int32 wraparound at row 1
		Mul(a, a),                                  // wraps through int32
		Div(b, Lit(int64(2))),
	}
	for _, e := range exprs {
		ev, ok := CompileVec(e)
		if !ok {
			t.Fatalf("%s should be native", e)
		}
		v := ev(batch, sel)
		for _, i := range sel {
			want := e.Eval(rows[i])
			got := v.Get(int(i))
			if !row.Equal(got, want) {
				t.Errorf("%s row %d: vector=%v, scalar=%v", e, i, got, want)
			}
		}
	}
}

// OR keeps rows in input order even when both branches match disjoint and
// overlapping subsets.
func TestVecOrUnionOrder(t *testing.T) {
	a := &BoundReference{Ordinal: 0, Type: types.Int, Null: true}
	rows := make([]row.Row, 50)
	for i := range rows {
		rows[i] = row.Row{int32(i), int64(0), "", 0.0}
	}
	batch := rowsToBatch(rows)
	sel := make([]int32, len(rows))
	for i := range sel {
		sel[i] = int32(i)
	}
	// i < 20 OR i%2-ish overlap via i > 10.
	e := &Or{&Comparison{Op: OpLT, Left: a, Right: Lit(int32(20))}, GT(a, Lit(int32(10)))}
	pred, ok := CompileVecPredicate(e)
	if !ok {
		t.Fatal("OR of native comparisons should be native")
	}
	got := pred(batch, sel)
	if len(got) != len(rows) {
		t.Fatalf("union selected %d rows, want all %d", len(got), len(rows))
	}
	for i := range got {
		if got[i] != int32(i) {
			t.Fatalf("union out of order at %d: %d", i, got[i])
		}
	}
}

// Constant vectors: literal-only predicates and nil literals.
func TestVecConstants(t *testing.T) {
	rows := randomVecRows(rand.New(rand.NewSource(3)), 40)
	batch := rowsToBatch(rows)
	sel := make([]int32, len(rows))
	for i := range sel {
		sel[i] = int32(i)
	}
	if pred, _ := CompileVecPredicate(Lit(true)); len(pred(batch, sel)) != len(sel) {
		t.Error("TRUE literal must keep everything")
	}
	if pred, _ := CompileVecPredicate(Lit(false)); len(pred(batch, sel)) != 0 {
		t.Error("FALSE literal must drop everything")
	}
	// x > NULL never matches.
	a := &BoundReference{Ordinal: 0, Type: types.Int, Null: true}
	nullLit := &Literal{Value: nil, Type: types.Int}
	if pred, _ := CompileVecPredicate(GT(a, nullLit)); len(pred(batch, sel)) != 0 {
		t.Error("comparison against NULL literal must select nothing")
	}
}

// Date kernels: year/month/day extraction over a DATE vector must match the
// interpreter row for row, including NULLs and pre-epoch dates.
func TestVecDatePartMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 300
	rows := make([]row.Row, n)
	v := columnar.NewVector(types.Date, n)
	for i := range rows {
		if rng.Intn(5) == 0 {
			rows[i] = row.Row{nil}
			v.Set(i, nil)
			continue
		}
		d := int32(rng.Intn(40000) - 10000) // ~1942..2079
		rows[i] = row.Row{d}
		v.Set(i, d)
	}
	batch := &VecBatch{Cols: []*columnar.Vector{v}, N: n}
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	dcol := &BoundReference{Ordinal: 0, Type: types.Date, Null: true}
	for part, e := range []Expression{Year(dcol), Month(dcol), Day(dcol)} {
		ev, ok := CompileVec(e)
		if !ok {
			t.Fatalf("%s should compile natively", e)
		}
		out := ev(batch, sel)
		for _, i := range sel {
			want := e.Eval(rows[i])
			if got := out.Get(int(i)); !row.Equal(got, want) {
				t.Fatalf("part %d row %d: vector=%v, interpreter=%v", part, i, got, want)
			}
		}
	}
}

// LIKE kernel vs interpreter across wildcard shapes, empty strings, and NULLs.
func TestVecLikeMatchesInterpreter(t *testing.T) {
	patterns := []string{"f%", "%o", "%ar%", "f_o", "", "%", "spark", "s%k"}
	rows := randomVecRows(rand.New(rand.NewSource(19)), 200)
	batch := rowsToBatch(rows)
	sel := make([]int32, len(rows))
	for i := range sel {
		sel[i] = int32(i)
	}
	s := &BoundReference{Ordinal: 2, Type: types.String, Null: true}
	for _, p := range patterns {
		e := &Like{Left: s, Pattern: Lit(p)}
		pred, ok := CompileVecPredicate(e)
		if !ok {
			t.Fatalf("LIKE %q should compile natively", p)
		}
		got := pred(batch, sel)
		var want []int32
		for _, i := range sel {
			if e.Eval(rows[i]) == true {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("LIKE %q: got %d rows, want %d", p, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("LIKE %q: position %d got row %d, want %d", p, k, got[k], want[k])
			}
		}
	}
}

// The scalar-fallback bridge boxes rows to call the interpreter; these
// benchmarks (run with -benchmem) pin its allocation behavior — one scratch
// row per BATCH, not one per row.
func fallbackBenchBatch(n int) (*VecBatch, []int32) {
	rng := rand.New(rand.NewSource(7))
	batch := rowsToBatch(randomVecRows(rng, n))
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return batch, sel
}

func BenchmarkVecFallbackEval(b *testing.B) {
	batch, sel := fallbackBenchBatch(1024)
	// A comparison in value position has no native eval kernel, so this is
	// the pure fallback path.
	ev := vecFallbackEval(GT(
		&BoundReference{Ordinal: 0, Type: types.Int, Null: true}, Lit(int32(0))))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev(batch, sel)
	}
}

func BenchmarkVecFallbackPred(b *testing.B) {
	batch, sel := fallbackBenchBatch(1024)
	// NOT has no native predicate kernel.
	pred := vecFallbackPred(&Not{Child: GT(
		&BoundReference{Ordinal: 0, Type: types.Int, Null: true}, Lit(int32(0)))})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pred(batch, sel)
	}
}

// SUBSTR kernel vs interpreter: pos < 1, non-positive and overlong lengths,
// starts past the end, multi-byte input (byte semantics), empty strings and
// NULL in any operand — and the output aliases the input (no copy).
func TestVecSubstringMatchesInterpreter(t *testing.T) {
	strs := []any{"héllo wörld", "日本語", "", "abcdefghij", nil, "x"}
	nums := []any{int32(-3), int32(0), int32(1), int32(2), int32(4), int32(11), int32(1000), nil}
	var rows []row.Row
	for _, s := range strs {
		for _, p := range nums {
			for _, l := range nums {
				rows = append(rows, row.Row{s, p, l})
			}
		}
	}
	n := len(rows)
	sv, pv, lv := columnar.NewVector(types.String, n), columnar.NewVector(types.Int, n), columnar.NewVector(types.Int, n)
	sel := make([]int32, n)
	for i, r := range rows {
		sv.Set(i, r[0])
		pv.Set(i, r[1])
		lv.Set(i, r[2])
		sel[i] = int32(i)
	}
	batch := &VecBatch{Cols: []*columnar.Vector{sv, pv, lv}, N: n}
	s := &BoundReference{Ordinal: 0, Type: types.String, Null: true}
	for _, e := range []Expression{
		&Substring{Str: s, Pos: &BoundReference{Ordinal: 1, Type: types.Int, Null: true}, Len: &BoundReference{Ordinal: 2, Type: types.Int, Null: true}},
		&Substring{Str: s, Pos: Lit(int32(1)), Len: Lit(int32(8))},
		&Substring{Str: s, Pos: Lit(int64(3)), Len: Lit(int64(1) << 62)},
	} {
		ev, ok := CompileVec(e)
		if !ok {
			t.Fatalf("%s should compile natively", e)
		}
		out := ev(batch, sel)
		for i, r := range rows {
			if got, want := out.Get(i), e.Eval(r); !row.Equal(got, want) {
				t.Fatalf("%s over %v: vector=%q, interpreter=%q", e, r, got, want)
			}
		}
	}
	if _, ok := CompileVec(&Substring{Str: Upper(s), Pos: Lit(int32(1)), Len: Lit(int32(2))}); ok {
		t.Error("SUBSTR over a fallback child must report fallback")
	}
}

// Aggregate state lanes: updating two accumulators over halves of the input
// and merging them (through a permuted group mapping) must give the column
// the scalar Update/Merge/Result path gives, for every aggregate, over typed
// and boxed children, NULLs, NaN and -0.0 — and Buffer must stay the scalar
// buffer view the spill merge consumes.
func TestVecAggregatorLanesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, groups = 400, 7
	doubles := []any{math.NaN(), math.Copysign(0, -1), 0.0, 1.5, nil, -2.25, 1e300}
	rows := make([]row.Row, n)
	gidx := make([]int32, n)
	for i := range rows {
		var a any = int32(rng.Intn(50) - 25)
		if rng.Intn(6) == 0 {
			a = nil
		}
		rows[i] = row.Row{a, doubles[rng.Intn(len(doubles))], fmt.Sprintf("s%02d", rng.Intn(30)), float32(rng.Intn(9)) / 2}
		gidx[i] = int32(rng.Intn(groups))
	}
	schema := []types.DataType{types.Int, types.Double, types.String, types.Float}
	cols := make([]*columnar.Vector, len(schema))
	for j, dt := range schema {
		cols[j] = NewClassVector(dt, n)
		for i, r := range rows {
			cols[j].Set(i, r[j])
		}
	}
	batch := &VecBatch{Cols: cols, N: n}
	ref := func(j int) Expression { return &BoundReference{Ordinal: j, Type: schema[j], Null: true} }
	perm := []int32{3, 0, 6, 1, 5, 2, 4} // reducer group of map-side group g
	for _, fn := range []AggregateFunc{
		NewCountStar(), &Count{Child: ref(0)}, &Sum{Child: ref(0)}, &Sum{Child: ref(1)}, &Sum{Child: ref(3)},
		&Avg{Child: ref(0)}, &Avg{Child: ref(1)}, NewMin(ref(0)), NewMax(ref(1)), NewMin(ref(1)), NewMax(ref(2)),
		NewMin(ref(3)), &First{Child: ref(2)}, &CountDistinct{Child: ref(0)}, NewMax(Upper(ref(2))),
	} {
		halves := make([]VecAggregator, 2)
		scalar := make([]any, groups)
		for g := range scalar {
			scalar[g] = fn.NewBuffer()
		}
		for h := range halves {
			halves[h], _ = NewVecAggregator(fn)
			var sel, gi []int32
			for i := h * n / 2; i < (h+1)*n/2; i++ {
				sel, gi = append(sel, int32(i)), append(gi, gidx[i])
			}
			halves[h].Update(batch, sel, gi, groups)
		}
		for h := range halves { // scalar: same association — per-half partials, merged in order
			part := make([]any, groups)
			for g := range part {
				part[g] = fn.NewBuffer()
			}
			for i := h * n / 2; i < (h+1)*n/2; i++ {
				part[gidx[i]] = fn.Update(part[gidx[i]], rows[i])
			}
			for g := range part {
				if want, got := fn.Result(part[g]), fn.Result(halves[h].Buffer(g)); !row.Equal(got, want) {
					t.Fatalf("%s half %d group %d: Buffer view=%v, scalar=%v", fn, h, g, got, want)
				}
				scalar[perm[g]] = fn.Merge(scalar[perm[g]], part[g])
			}
		}
		merged, _ := NewVecAggregator(fn)
		all := make([]int32, groups)
		for g := range all {
			all[g] = int32(g)
		}
		for _, half := range halves {
			merged.Merge(half, all, perm, groups)
		}
		out := merged.Result(groups + 1) // one group nothing ever reached
		for g := 0; g < groups; g++ {
			if got, want := out.Get(g), fn.Result(scalar[g]); !row.Equal(got, want) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s group %d: lanes=%v (%T), scalar=%v (%T)", fn, g, got, got, want, want)
			}
		}
		if got, want := out.Get(groups), fn.Result(fn.NewBuffer()); !row.Equal(got, want) {
			t.Fatalf("%s empty group: lanes=%v, scalar=%v", fn, got, want)
		}
	}
}

// A state lane must survive a reducer's spill file: for every lane type,
// Buffer -> EncodeBuffer -> the row spill codec -> DecodeBuffer -> SetBuffer
// rebuilds a lane that merges into a fresh accumulator exactly as the original
// lane does — typed and boxed lanes alike, never-reached groups included.
func TestVecAggregatorBufferRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n, groups = 300, 6 // group 5 is never reached
	dec := types.DecimalType{Precision: 10, Scale: 2}
	schema := []types.DataType{types.Int, types.Double, types.String, types.Float, dec, types.Long}
	cols := make([]*columnar.Vector, len(schema))
	for j, dt := range schema {
		cols[j] = NewClassVector(dt, n)
	}
	rows := make([]row.Row, n)
	sel, gidx := make([]int32, n), make([]int32, n)
	for i := range rows {
		rows[i] = row.Row{int32(rng.Intn(50) - 25), float64(rng.Intn(40)) / 4, fmt.Sprintf("s%02d", rng.Intn(30)),
			float32(rng.Intn(9)) / 2, types.NewDecimal(int64(rng.Intn(2000)-1000), 2), int64(rng.Intn(1 << 40))}
		for j := range rows[i] {
			if rng.Intn(7) == 0 {
				rows[i][j] = nil
			}
			cols[j].Set(i, rows[i][j])
		}
		sel[i], gidx[i] = int32(i), int32(rng.Intn(groups-1))
	}
	batch := &VecBatch{Cols: cols, N: n}
	ref := func(j int) Expression { return &BoundReference{Ordinal: j, Type: schema[j], Null: true} }
	fns := []AggregateFunc{
		NewCountStar(), &Count{Child: ref(2)}, // vecCount
		&Sum{Child: ref(0)}, &Sum{Child: ref(1)}, &Sum{Child: ref(4)}, // vecSum: integral, float, decimal
		&Avg{Child: ref(1)},                                                                            // vecAvg
		NewMin(ref(0)), NewMax(ref(5)), NewMax(ref(1)), NewMin(ref(2)), NewMax(ref(4)), NewMin(ref(3)), // vecMinMax: i64 (INT narrows), f64, str, boxed
		&First{Child: ref(2)}, &CountDistinct{Child: ref(0)}, // boxed lanes
	}
	perm := []int32{4, 2, 0, 5, 1, 3}
	all := []int32{0, 1, 2, 3, 4, 5}
	for _, fn := range fns {
		for _, lane := range []func() VecAggregator{
			func() VecAggregator { a, _ := NewVecAggregator(fn); return a },
			func() VecAggregator { return NewBoxedAggregator(fn) },
		} {
			orig := lane()
			orig.Update(batch, sel, gidx, groups)
			recs := make([]row.Row, groups)
			for g := range recs {
				recs[g] = row.Row{fn.EncodeBuffer(orig.Buffer(g))}
			}
			enc, err := row.EncodeRows(recs)
			if err != nil {
				t.Fatalf("%s: %v", fn, err)
			}
			if recs, err = row.DecodeRows(enc); err != nil {
				t.Fatalf("%s: %v", fn, err)
			}
			back := lane()
			for g := groups - 1; g >= 0; g-- { // any order: SetBuffer grows to g+1
				back.SetBuffer(g, fn.DecodeBuffer(recs[g][0].(row.Row)))
			}
			want, got := lane(), lane()
			for round := 0; round < 2; round++ { // merging twice exercises merge into non-empty state
				want.Merge(orig, all, perm, groups)
				got.Merge(back, all, perm, groups)
			}
			wantCol, gotCol := want.Result(groups), got.Result(groups)
			for g := 0; g < groups; g++ {
				w, r := wantCol.Get(g), gotCol.Get(g)
				if !row.Equal(r, w) || fmt.Sprintf("%T", r) != fmt.Sprintf("%T", w) {
					t.Fatalf("%s (%T) group %d: round-tripped lane merges to %v (%T), original to %v (%T)", fn, orig, g, r, r, w, w)
				}
			}
		}
	}
}
