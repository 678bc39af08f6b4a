package archtest

import (
	"slices"
	"strings"
	"testing"
)

// lendingHelpers are the only functions in internal/expr that may allocate a
// vector: the Scratch methods that lend a kernel its output, and allocate it
// when there is no scratch.
var lendingHelpers = []string{"Scratch.lend", "Scratch.lendConst"}

// unlentVectors returns the calls in internal/expr's non-test files to a
// columnar vector constructor outside lendingHelpers.
func unlentVectors(t *testing.T, root string) []string {
	t.Helper()
	files, err := ParseFiles(root, func(rel string) bool { return strings.HasPrefix(rel, "internal/expr/") })
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for _, name := range []string{"NewVector", "NewConstVector", "NewAnyVector"} {
		for _, c := range Calls(files, "repro/internal/columnar", name) {
			if !slices.Contains(lendingHelpers, c.In) {
				bad = append(bad, c.String()+": columnar."+name)
			}
		}
	}
	return bad
}

// A kernel's output vector is lent by the batch's scratch, which gives it to
// the same kernel again for the next batch; a kernel that allocates its own
// allocates per batch again.
func TestKernelsBorrowVectors(t *testing.T) {
	if bad := unlentVectors(t, "../.."); len(bad) > 0 {
		t.Fatalf("internal/expr: a kernel allocates its output vector instead of borrowing it from the batch's scratch: %v", bad)
	}
}

func TestKernelsBorrowVectorsFires(t *testing.T) {
	bad := unlentVectors(t, "testdata/fixture")
	if want := []string{"internal/expr/kernel.go:15 in compileVecNeg: columnar.NewVector"}; !slices.Equal(bad, want) {
		t.Fatalf("fixture: reported %v, want %v", bad, want)
	}
}
