package archtest

import (
	"slices"
	"testing"
)

// unsafeAllowed are the only non-test files that may import unsafe: the
// colfile reader, whose strings alias the file image, and the columnar
// helper that boxes a batch's strings from one slab.
var unsafeAllowed = []string{
	"internal/columnar/box.go",
	"internal/datasource/colfile/reader.go",
}

// unsafeOutside returns the files under root that import unsafe and are not
// in unsafeAllowed.
func unsafeOutside(t *testing.T, root string) []string {
	t.Helper()
	files, err := Importers(root, "unsafe")
	if err != nil {
		t.Fatal(err)
	}
	return slices.DeleteFunc(files, func(f string) bool { return slices.Contains(unsafeAllowed, f) })
}

func TestUnsafeConfined(t *testing.T) {
	if bad := unsafeOutside(t, "../.."); len(bad) > 0 {
		t.Fatalf("unsafe is imported outside %v: %v", unsafeAllowed, bad)
	}
}

// The fixture tree holds both allowed files, a test file and a file outside
// the list that imports unsafe under another name: only the last is reported.
func TestUnsafeConfinedFires(t *testing.T) {
	bad := unsafeOutside(t, "testdata/fixture")
	if want := []string{"internal/columnar/leak.go"}; !slices.Equal(bad, want) {
		t.Fatalf("fixture: unsafe reported in %v, want %v", bad, want)
	}
}
