package types

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAtomicEquality(t *testing.T) {
	atoms := []DataType{Null, Boolean, Int, Long, Float, Double, String, Binary, Date, Timestamp}
	for i, a := range atoms {
		for j, b := range atoms {
			if (i == j) != a.Equals(b) {
				t.Errorf("%s.Equals(%s) = %v", a.Name(), b.Name(), a.Equals(b))
			}
		}
	}
}

func TestParameterizedEquality(t *testing.T) {
	if !(DecimalType{10, 2}).Equals(DecimalType{10, 2}) {
		t.Error("equal decimals should match")
	}
	if (DecimalType{10, 2}).Equals(DecimalType{10, 3}) {
		t.Error("different scales should not match")
	}
	a1 := ArrayType{Elem: Int, ContainsNull: false}
	a2 := ArrayType{Elem: Int, ContainsNull: true}
	if a1.Equals(a2) {
		t.Error("ContainsNull is part of array identity")
	}
	if !a1.Equals(ArrayType{Elem: Int}) {
		t.Error("structurally equal arrays should match")
	}
	m := MapType{Key: String, Value: Double}
	if !m.Equals(MapType{Key: String, Value: Double}) || m.Equals(MapType{Key: String, Value: Int}) {
		t.Error("map equality is structural")
	}
}

func TestStructTypeBasics(t *testing.T) {
	s := StructType{}.Add("a", Int, false).Add("B", String, true)
	if s.FieldIndex("b") != 1 {
		t.Error("field lookup is case-insensitive")
	}
	if s.FieldIndex("missing") != -1 {
		t.Error("missing fields return -1")
	}
	if got := s.Name(); got != "STRUCT<a INT NOT NULL, B STRING>" {
		t.Errorf("Name() = %q", got)
	}
	if len(s.FieldNames()) != 2 || s.FieldNames()[0] != "a" {
		t.Errorf("FieldNames = %v", s.FieldNames())
	}
	// Add must not mutate the receiver.
	s2 := s.Add("c", Double, true)
	if len(s.Fields) != 2 || len(s2.Fields) != 3 {
		t.Error("Add should be persistent")
	}
}

func TestPredicateHelpers(t *testing.T) {
	if !IsNumeric(Int) || !IsNumeric(DecimalType{5, 2}) || IsNumeric(String) {
		t.Error("IsNumeric wrong")
	}
	if !IsIntegral(Long) || IsIntegral(Double) {
		t.Error("IsIntegral wrong")
	}
	if !IsOrdered(String) || !IsOrdered(Date) || IsOrdered(ArrayType{Elem: Int}) {
		t.Error("IsOrdered wrong")
	}
	if !IsAtomic(Boolean) || IsAtomic(StructType{}) {
		t.Error("IsAtomic wrong")
	}
}

func TestTightestCommonTypeNumericLattice(t *testing.T) {
	cases := []struct {
		a, b, want DataType
	}{
		{Int, Int, Int},
		{Int, Long, Long},
		{Long, Double, Double},
		{Int, Double, Double},
		{Float, Double, Double},
		{Null, Int, Int},
		{Int, Null, Int},
		{Date, Timestamp, Timestamp},
		{Int, DecimalType{10, 2}, DecimalType{10, 2}},
	}
	for _, c := range cases {
		got, ok := TightestCommonType(c.a, c.b)
		if !ok || !got.Equals(c.want) {
			t.Errorf("TightestCommonType(%s, %s) = %v, want %s", c.a.Name(), c.b.Name(), got, c.want.Name())
		}
	}
	if _, ok := TightestCommonType(Int, String); ok {
		t.Error("INT and STRING have no tightest common type")
	}
}

func TestTightestCommonTypeDecimalWidening(t *testing.T) {
	got, ok := TightestCommonType(DecimalType{5, 2}, DecimalType{4, 3})
	if !ok {
		t.Fatal("decimals should merge")
	}
	// int digits: max(3,1)=3; scale: max(2,3)=3 -> DECIMAL(6,3)
	if !got.Equals(DecimalType{6, 3}) {
		t.Errorf("got %s, want DECIMAL(6,3)", got.Name())
	}
}

// Property: TightestCommonType is commutative and idempotent over the
// atomic lattice.
func TestTightestCommonTypeProperties(t *testing.T) {
	atoms := []DataType{Null, Boolean, Int, Long, Float, Double, String, Date, Timestamp}
	f := func(i, j uint8) bool {
		a := atoms[int(i)%len(atoms)]
		b := atoms[int(j)%len(atoms)]
		ab, okAB := TightestCommonType(a, b)
		ba, okBA := TightestCommonType(b, a)
		if okAB != okBA {
			return false
		}
		if okAB && !ab.Equals(ba) {
			return false
		}
		self, okSelf := TightestCommonType(a, a)
		return okSelf && self.Equals(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStructMerge(t *testing.T) {
	a := StructType{}.Add("x", Int, false).Add("y", String, false)
	b := StructType{}.Add("x", Long, false).Add("z", Double, false)
	got, ok := TightestCommonType(a, b)
	if !ok {
		t.Fatal("structs should merge")
	}
	st := got.(StructType)
	if st.FieldIndex("x") < 0 || st.FieldIndex("y") < 0 || st.FieldIndex("z") < 0 {
		t.Fatalf("merged fields = %v", st.FieldNames())
	}
	if !st.Fields[st.FieldIndex("x")].Type.Equals(Long) {
		t.Error("x should widen to LONG")
	}
	// y only in a, z only in b: both nullable after merge.
	if !st.Fields[st.FieldIndex("y")].Nullable || !st.Fields[st.FieldIndex("z")].Nullable {
		t.Error("one-sided fields become nullable")
	}
}

func TestMostSpecificSupertypeFallsBackToString(t *testing.T) {
	if got := MostSpecificSupertype(Int, Boolean); !got.Equals(String) {
		t.Errorf("INT vs BOOLEAN -> %s, want STRING", got.Name())
	}
	// Arrays generalize element-wise.
	got := MostSpecificSupertype(
		ArrayType{Elem: Int, ContainsNull: false},
		ArrayType{Elem: String, ContainsNull: false})
	want := ArrayType{Elem: String, ContainsNull: false}
	if !got.Equals(want) {
		t.Errorf("array generalization = %s", got.Name())
	}
	// Structs with clashing field types generalize the field.
	a := StructType{}.Add("v", Int, false)
	b := StructType{}.Add("v", Boolean, false)
	st := MostSpecificSupertype(a, b).(StructType)
	if !st.Fields[0].Type.Equals(String) {
		t.Errorf("clashing struct field = %s", st.Fields[0].Type.Name())
	}
}

// Property: MostSpecificSupertype never fails and is commutative.
func TestMostSpecificSupertypeTotal(t *testing.T) {
	pool := []DataType{
		Null, Boolean, Int, Long, Double, String, Date,
		ArrayType{Elem: Int}, ArrayType{Elem: String},
		StructType{}.Add("a", Int, false),
		StructType{}.Add("a", Double, true).Add("b", String, false),
	}
	f := func(i, j uint8) bool {
		a := pool[int(i)%len(pool)]
		b := pool[int(j)%len(pool)]
		ab := MostSpecificSupertype(a, b)
		ba := MostSpecificSupertype(b, a)
		return ab != nil && ab.Equals(ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ParseName inverts Name for every atomic type and for decimals of
// random precision and scale, names the aliases, and rejects what Name never
// prints — near-misses of DECIMAL(p,s) and the nested types included.
func TestParseNameRoundTrip(t *testing.T) {
	all := []DataType{Null, Boolean, Int, Long, Float, Double, String, Binary, Date, Timestamp}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		all = append(all, DecimalType{Precision: rng.Intn(39), Scale: rng.Intn(39)})
	}
	for _, dt := range all {
		if back, ok := ParseName(dt.Name()); !ok || !back.Equals(dt) {
			t.Fatalf("ParseName(%q) = %v, %v", dt.Name(), back, ok)
		}
	}
	for alias, want := range map[string]DataType{"INTEGER": Int, "LONG": Long, "VARCHAR": String, "TEXT": String, "BOOL": Boolean} {
		if got, ok := ParseName(alias); !ok || !got.Equals(want) {
			t.Fatalf("ParseName(%q) = %v, %v, want %v", alias, got, ok, want)
		}
	}
	for _, bad := range []string{"", "int", "WIBBLE", "DECIMAL", "DECIMAL(10)", "DECIMAL(10, 2)", "DECIMAL(10,2) ", "DECIMAL(+1,2)", "DECIMAL(10,2)x",
		ArrayType{Elem: Int}.Name(), MapType{Key: String, Value: Int}.Name(), NewStruct(StructField{Name: "a", Type: Int}).Name()} {
		if got, ok := ParseName(bad); ok {
			t.Fatalf("ParseName(%q) accepted as %v", bad, got)
		}
	}
}
