package archtest

import (
	"go/ast"
	"path"
	"slices"
	"testing"
)

// The executor has one keyed hash table: the group table (vecagg.go), a slot
// array over typed key columns, through which the reducer (agg.go) merges and
// spills partial blocks. Key strings anywhere in internal/physical, or a Go
// map in either file, are a second table family coming back.

// keyTableFiles are the group table's file and the reducer's.
var keyTableFiles = []string{"internal/physical/vecagg.go", "internal/physical/agg.go"}

// keyStrings returns the calls in internal/physical's non-test files that build
// a key string: row.GroupKey, and any function or method named keyFunc.
func keyStrings(t *testing.T, root string) []string {
	t.Helper()
	files, err := ParseFiles(root, func(rel string) bool { return path.Dir(rel) == "internal/physical" })
	if err != nil {
		t.Fatal(err)
	}
	return callStrings(FindCalls(files, func(f File, call *ast.CallExpr) bool {
		if local := f.ImportName("repro/internal/row"); local != "" && IsSelector(call.Fun, local, "GroupKey") {
			return true
		}
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			return fn.Name == "keyFunc"
		case *ast.SelectorExpr:
			return fn.Sel.Name == "keyFunc"
		}
		return false
	}))
}

// goMaps returns where a map type is written in keyTableFiles.
func goMaps(t *testing.T, root string) []string {
	return callStrings(FindNodes(parseOnly(t, root, keyTableFiles...), func(_ File, n ast.Node) bool {
		_, ok := n.(*ast.MapType)
		return ok
	}))
}

func TestNoKeyStringsInExecutor(t *testing.T) {
	if bad := keyStrings(t, "../.."); len(bad) > 0 {
		t.Fatalf("internal/physical: key strings are back: %v", bad)
	}
}

func TestNoGoMapInGroupTable(t *testing.T) {
	if bad := goMaps(t, "../.."); len(bad) > 0 {
		t.Fatalf("internal/physical: a Go map is back in the group table's or the reducer's file: %v", bad)
	}
}

// The fixture's group table keeps a map and calls keyFunc, and its join calls
// row.GroupKey under another name and a keyFunc method; the join's own maps,
// a comment naming a map type, and a test file's GroupKey are not reported.
func TestOneKeyedHashTableFires(t *testing.T) {
	root := "testdata/fixture"
	if got, want := keyStrings(t, root), []string{
		"internal/physical/join.go:10 in buildKeys",
		"internal/physical/join.go:15 in joiner.probe",
		"internal/physical/vecagg.go:10 in groupTable.add",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: key strings reported %v, want %v", got, want)
	}
	if got, want := goMaps(t, root), []string{"internal/physical/vecagg.go:6"}; !slices.Equal(got, want) {
		t.Errorf("fixture: maps reported %v, want %v", got, want)
	}
}
