package datasource

import (
	"testing"

	"repro/internal/row"
	"repro/internal/types"
)

func TestFilterAlgebra(t *testing.T) {
	cases := []struct {
		f    Filter
		v    any
		want bool
	}{
		{EqualTo{"c", int32(5)}, int32(5), true},
		{EqualTo{"c", int32(5)}, int32(6), false},
		{EqualTo{"c", int32(5)}, nil, false},
		{GreaterThan{"c", int32(5)}, int32(6), true},
		{GreaterThan{"c", int32(5)}, int32(5), false},
		{GreaterOrEqual{"c", int32(5)}, int32(5), true},
		{LessThan{"c", "m"}, "a", true},
		{LessOrEqual{"c", 2.5}, 2.5, true},
		{In{"c", []any{int32(1), int32(3)}}, int32(3), true},
		{In{"c", []any{int32(1), int32(3)}}, int32(2), false},
		{IsNotNull{"c"}, int32(0), true},
		{IsNotNull{"c"}, nil, false},
		{StringStartsWith{"c", "ab"}, "abc", true},
		{StringStartsWith{"c", "ab"}, "ba", false},
	}
	for _, c := range cases {
		if got := c.f.Matches(c.v); got != c.want {
			t.Errorf("%s.Matches(%v) = %v, want %v", c.f, c.v, got, c.want)
		}
	}
}

// MayMatch over a run spanning [10, 20], and over an all-NULL run.
func TestMayMatch(t *testing.T) {
	lo, hi := int32(10), int32(20)
	cases := []struct {
		f    Filter
		want bool
	}{
		{EqualTo{"c", int32(10)}, true},
		{EqualTo{"c", int32(21)}, false},
		{GreaterThan{"c", int32(19)}, true},
		{GreaterThan{"c", int32(20)}, false},
		{GreaterOrEqual{"c", int32(20)}, true},
		{GreaterOrEqual{"c", int32(21)}, false},
		{LessThan{"c", int32(11)}, true},
		{LessThan{"c", int32(10)}, false},
		{LessOrEqual{"c", int32(10)}, true},
		{LessOrEqual{"c", int32(9)}, false},
		{In{"c", []any{int32(1), int32(15)}}, true},
		{In{"c", []any{int32(1), int32(30)}}, false},
		{In{"c", nil}, false},
		{IsNotNull{"c"}, true},
		{StringStartsWith{"c", "ab"}, true}, // no range reading: never prunes
	}
	for _, c := range cases {
		if got := MayMatch(c.f, lo, hi); got != c.want {
			t.Errorf("MayMatch(%s, 10, 20) = %v, want %v", c.f, got, c.want)
		}
		// All NULL: only IS NOT NULL prunes.
		_, isNotNull := c.f.(IsNotNull)
		if got := MayMatch(c.f, nil, nil); got == isNotNull {
			t.Errorf("MayMatch(%s) over an all-NULL run = %v", c.f, got)
		}
	}
}

func TestApplyFilters(t *testing.T) {
	schema := types.StructType{}.
		Add("a", types.Int, false).
		Add("b", types.String, true)
	r := row.Row{int32(10), "hello"}
	ok := ApplyFilters([]Filter{
		GreaterThan{"a", int32(5)},
		StringStartsWith{"b", "he"},
	}, schema, r)
	if !ok {
		t.Error("all filters match")
	}
	if ApplyFilters([]Filter{LessThan{"a", int32(5)}}, schema, r) {
		t.Error("failing filter rejects")
	}
	// Unknown columns are advisory and skipped.
	if !ApplyFilters([]Filter{EqualTo{"zz", int32(1)}}, schema, r) {
		t.Error("unknown-column filters are skipped")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Register("x", ProviderFunc(func(map[string]string) (Relation, error) { return nil, nil }))
	if _, err := reg.Lookup("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Lookup("nope"); err == nil {
		t.Fatal("missing provider must error")
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "x" {
		t.Fatalf("names = %v", names)
	}
}
