package archtest

import (
	"go/ast"
	"go/token"
	"path"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Fusion has one admission rule ("the input is a batch pipeline"), and a task
// body never runs a job: a join's build side, a shuffle's map side and top-K's
// candidates are stages an action runs before the tasks that read them. The
// key-shape test and the fallback reasons that went with it, or a task in
// internal/physical or internal/rangejoin that collects or computes another
// RDD's partition itself, are those designs coming back.

// deletedReasons are the fallback reasons the deleted admission conditions
// returned: a string literal ending in one (or holding the join-type format)
// names one again.
var deletedReasons = []string{"build side not right", "residual predicate", "key shape", "probe key not native"}

// admissionConditions returns where internal/physical's non-test files name
// the keyShapeBlocker function or hold a deleted fallback reason.
func admissionConditions(t *testing.T, root string) []string {
	t.Helper()
	files, err := ParseFiles(root, func(rel string) bool { return path.Dir(rel) == "internal/physical" })
	if err != nil {
		t.Fatal(err)
	}
	return callStrings(FindNodes(files, func(_ File, n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			return x.Name == "keyShapeBlocker"
		case *ast.BasicLit:
			s, err := strconv.Unquote(x.Value)
			return x.Kind == token.STRING && err == nil && (strings.Contains(s, "join type %") ||
				slices.ContainsFunc(deletedReasons, func(r string) bool { return strings.HasSuffix(s, r) }))
		}
		return false
	}))
}

// nestedJobs returns the calls to a method named CollectContext or
// PartitionContext in the non-test files of internal/physical and
// internal/rangejoin.
func nestedJobs(t *testing.T, root string) []string {
	t.Helper()
	files, err := ParseFiles(root, func(rel string) bool {
		return path.Dir(rel) == "internal/physical" || path.Dir(rel) == "internal/rangejoin"
	})
	if err != nil {
		t.Fatal(err)
	}
	return callStrings(FindCalls(files, func(_ File, call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && (sel.Sel.Name == "CollectContext" || sel.Sel.Name == "PartitionContext")
	}))
}

func TestNoDeletedFusionAdmission(t *testing.T) {
	if bad := admissionConditions(t, "../.."); len(bad) > 0 {
		t.Fatalf("internal/physical: a deleted fusion admission condition is back: %v", bad)
	}
}

func TestNoJobInsideTask(t *testing.T) {
	if bad := nestedJobs(t, "../.."); len(bad) > 0 {
		t.Fatalf("internal/physical or internal/rangejoin runs a job from inside a task: %v", bad)
	}
}

// The fixture's physical package holds the parent's join admission (its four
// reasons, the join-type format, and keyShapeBlocker declared, called and
// returning a reason) and a build side collected and a partition computed
// inside a task; its rangejoin package collects its interval tree's build
// side. Comments, and a test file's collect, are not reported.
func TestPhysicalGatesFire(t *testing.T) {
	root := "testdata/fixture"
	if got, want := admissionConditions(t, root), []string{
		"internal/physical/fusion.go:9 in joinFuseBlocker",
		"internal/physical/fusion.go:12 in joinFuseBlocker",
		"internal/physical/fusion.go:15 in joinFuseBlocker",
		"internal/physical/fusion.go:17 in joinFuseBlocker",
		"internal/physical/fusion.go:22 in joinFuseBlocker",
		"internal/physical/fusion.go:28 in keyShapeBlocker",
		"internal/physical/fusion.go:32 in keyShapeBlocker",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: admission conditions reported %v, want %v", got, want)
	}
	if got, want := nestedJobs(t, root), []string{
		"internal/physical/build.go:6 in collectBuild",
		"internal/physical/build.go:10 in probeSkewed",
		"internal/rangejoin/strategy.go:4 in IntervalJoinExec.load",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: nested jobs reported %v, want %v", got, want)
	}
}
