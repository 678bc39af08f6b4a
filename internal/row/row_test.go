package row

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestAccessors(t *testing.T) {
	r := New("s", int32(1), int64(2), 3.5, true, types.NewDecimal(150, 2))
	if r.Str(0) != "s" || r.Int(1) != 1 || r.Long(2) != 2 || r.Double(3) != 3.5 || !r.Bool(4) {
		t.Errorf("accessors wrong: %v", r)
	}
	if r.Decimal(5).String() != "1.50" {
		t.Errorf("decimal accessor: %v", r.Decimal(5))
	}
	if r.IsNullAt(0) {
		t.Error("non-null field")
	}
	r2 := New(nil)
	if !r2.IsNullAt(0) {
		t.Error("nil is NULL")
	}
}

func TestCopyIndependence(t *testing.T) {
	r := New(int32(1), "x")
	c := r.Copy()
	c[0] = int32(99)
	if r.Int(0) != 1 {
		t.Error("Copy must not share storage")
	}
}

func TestEqualDeep(t *testing.T) {
	cases := []struct {
		a, b any
		want bool
	}{
		{nil, nil, true},
		{nil, int32(0), false},
		{int32(1), int32(1), true},
		{int32(1), int64(1), false}, // different types never equal
		{"a", "a", true},
		{Row{int32(1), "x"}, Row{int32(1), "x"}, true},
		{Row{int32(1)}, Row{int32(2)}, false},
		{[]any{int32(1), nil}, []any{int32(1), nil}, true},
		{[]any{int32(1)}, []any{int32(1), int32(2)}, false},
		{types.NewDecimal(10, 1), types.NewDecimal(100, 2), true}, // 1.0 == 1.00
	}
	for _, c := range cases {
		if got := Equal(c.a, c.b); got != c.want {
			t.Errorf("Equal(%v, %v) = %v", c.a, c.b, got)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b any
		want int
	}{
		{int32(1), int32(2), -1},
		{int64(5), int64(5), 0},
		{2.5, 1.0, 1},
		{"a", "b", -1},
		{false, true, -1},
		{nil, int32(1), -1}, // NULLs first
		{int32(1), nil, 1},
		{types.NewDecimal(99, 2), types.NewDecimal(1, 0), -1},
		{Row{int32(1), "a"}, Row{int32(1), "b"}, -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: Compare is antisymmetric and consistent with Equal.
func TestCompareProperties(t *testing.T) {
	f := func(a, b int64) bool {
		if Compare(a, b) != -Compare(b, a) {
			return false
		}
		return (Compare(a, b) == 0) == Equal(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// Property: equal rows hash equal and produce equal group keys; int32 and
// int64 of the same value hash alike (cross-width join keys).
func TestHashGroupKeyConsistency(t *testing.T) {
	f := func(a int64, s string, b bool) bool {
		r1 := Row{a, s, b}
		r2 := Row{a, s, b}
		ords := []int{0, 1, 2}
		return Hash(r1, ords) == Hash(r2, ords) && GroupKey(r1, ords) == GroupKey(r2, ords)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if HashValue(int32(42)) != HashValue(int64(42)) {
		t.Error("int32/int64 of equal value must hash alike")
	}
}

// Property: GroupKey is injective on sampled random rows (collisions would
// corrupt aggregation).
func TestGroupKeyInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[string]Row{}
	ords := []int{0, 1, 2}
	for i := 0; i < 5000; i++ {
		r := Row{
			int32(rng.Intn(50)),
			string(rune('a' + rng.Intn(26))),
			[]any{int64(rng.Intn(10))},
		}
		k := GroupKey(r, ords)
		if prev, ok := seen[k]; ok {
			if !Equal(prev[0], r[0]) || !Equal(prev[1], r[1]) || !Equal(prev[2], r[2]) {
				t.Fatalf("GroupKey collision: %v vs %v", prev, r)
			}
		}
		seen[k] = r
	}
}

// KeyEqual is GroupKey equality without the strings, and equal keys hash
// alike: every pair of a pool that crosses widths, NaN payloads, signed zeros,
// decimal scales and nested values.
func TestKeyEqualIsGroupKeyEquality(t *testing.T) {
	pool := []any{nil, true, false, int32(0), int64(0), int32(7), int64(7), int64(1) << 40,
		float32(1.5), 1.5, 0.0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001),
		"", "a", "7", types.NewDecimal(150, 2), types.NewDecimal(15, 1), types.NewDecimal(150, 2),
		Row{int32(1), "x"}, Row{int64(1), "x"}, Row{int32(1)}, []any{int32(1), "x"}, []any{}}
	for _, a := range pool {
		for _, b := range pool {
			want := GroupKey(Row{a}, []int{0}) == GroupKey(Row{b}, []int{0})
			if got := KeyEqual(a, b); got != want {
				t.Errorf("KeyEqual(%#v, %#v) = %v, GroupKey equality says %v", a, b, got, want)
			}
			if want && HashValue(a) != HashValue(b) {
				t.Errorf("%#v and %#v are one key but hash apart", a, b)
			}
		}
	}
}

func TestGroupKeyStringBoundaries(t *testing.T) {
	// Adjacent strings must not produce the same key through length
	// ambiguity: ("ab","c") vs ("a","bc").
	a := GroupKey(Row{"ab", "c"}, []int{0, 1})
	b := GroupKey(Row{"a", "bc"}, []int{0, 1})
	if a == b {
		t.Error("group keys must encode string boundaries")
	}
}

func TestSizes(t *testing.T) {
	r := Row{int32(1), "hello", nil, 2.5}
	if r.FlatSize() <= 0 || r.ObjectSize() <= 0 {
		t.Error("sizes must be positive")
	}
	if r.ObjectSize() <= r.FlatSize() {
		t.Error("boxed object model must cost more than flat data")
	}
	// Strings dominate flat size.
	long := Row{string(make([]byte, 1000))}
	if long.FlatSize() < 1000 {
		t.Error("flat size must include string bytes")
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		v    any
		want string
	}{
		{nil, "NULL"},
		{int32(5), "5"},
		{"x", "x"},
		{Row{int32(1), "a"}, "[1,a]"},
		{[]any{int32(1), nil}, "[1,NULL]"},
	}
	for _, c := range cases {
		if got := FormatValue(c.v); got != c.want {
			t.Errorf("FormatValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// The hash must not depend on the process (a hash exchange's reduce
// partitions can run in different worker processes) nor on whether a key
// arrives boxed or off a typed lane: the pinned constants fail on any
// per-process seed, the equalities on any lane/boxed divergence.
func TestHashProcessIndependent(t *testing.T) {
	if got := HashValue("sourceIP"); got != 0x65ee3af2ad797a1b {
		t.Errorf("HashValue(\"sourceIP\") = %#x: the hash changed (or is seeded)", got)
	}
	if got := Hash(Row{int32(7), nil, 2.5}, []int{0, 1, 2}); got != 0x52d297594a166c13 {
		t.Errorf("Hash(row) = %#x: the hash changed (or is seeded)", got)
	}
	h := NewHasher()
	for name, eq := range map[string]bool{
		"int32 lane":   HashValue(int32(-9)) == h.Int64(-9).Sum(),
		"int64 lane":   HashValue(int64(1)<<40) == h.Int64(1<<40).Sum(),
		"float32 lane": HashValue(float32(1.5)) == h.Float64(1.5).Sum(),
		"float64 lane": HashValue(-0.0) == h.Float64(-0.0).Sum(),
		"string lane":  HashValue("123.45.6") == h.String("123.45.6").Sum(),
		"null":         HashValue(nil) == h.Null().Sum(),
	} {
		if !eq {
			t.Errorf("%s: typed and boxed hashes differ", name)
		}
	}
	if HashValue("ab") == HashValue("ab\x00") || HashValue(int64(0)) == HashValue(0.0) || HashValue(nil) == HashValue(int64(0)) {
		t.Error("values of different length or class collide trivially")
	}
}
