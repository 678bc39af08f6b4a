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

// stageMemoizers returns where any non-test Go file names LazyBuild,
// shuffleState or CollectPartitionsContext: a second memoizer beside
// rdd.Stage, or the adaptive driver collecting a stage's partitions itself.
func stageMemoizers(t *testing.T, root string) []string {
	t.Helper()
	files, err := ParseFiles(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	return callStrings(FindNodes(files, func(_ File, n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && (id.Name == "LazyBuild" || id.Name == "shuffleState" || id.Name == "CollectPartitionsContext")
	}))
}

// rowSliceSorts returns the calls to sort.Slice, sort.SliceStable or sort.Sort
// in internal/physical's non-test files: a sort run is an index sort over key
// lanes extracted once (sortOrder.sort), not a comparison sort moving rows.
func rowSliceSorts(t *testing.T, root string) []string {
	t.Helper()
	files, err := ParseFiles(root, func(rel string) bool { return path.Dir(rel) == "internal/physical" })
	if err != nil {
		t.Fatal(err)
	}
	return callStrings(FindCalls(files, func(f File, call *ast.CallExpr) bool {
		local := f.ImportName("sort")
		return local != "" && slices.ContainsFunc([]string{"Slice", "SliceStable", "Sort"}, func(name string) bool {
			return IsSelector(call.Fun, local, name)
		})
	}))
}

// secondShuffledJoins returns where any Go file, test files included, names a
// sort-merge join type or the zip it ran on: an identifier holding
// SortMergeJoin, or ZipPartitionsCtx. A shuffled equi-join is a
// ShuffledHashJoinExec at every memory budget.
func secondShuffledJoins(t *testing.T, root string) []string {
	t.Helper()
	files, err := parseFiles(root, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	return callStrings(FindNodes(files, func(_ File, n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && (strings.Contains(id.Name, "SortMergeJoin") || id.Name == "ZipPartitionsCtx")
	}))
}

func TestNoRowSliceSort(t *testing.T) {
	if bad := rowSliceSorts(t, "../.."); len(bad) > 0 {
		t.Fatalf("internal/physical sorts rows with a comparison sort again: %v", bad)
	}
}

func TestNoSecondShuffledJoin(t *testing.T) {
	if bad := secondShuffledJoins(t, "../.."); len(bad) > 0 {
		t.Fatalf("a second shuffled join is back: %v", bad)
	}
}

func TestNoDeletedFusionAdmission(t *testing.T) {
	if bad := admissionConditions(t, "../.."); len(bad) > 0 {
		t.Fatalf("internal/physical: a deleted fusion admission condition is back: %v", bad)
	}
}

func TestOneStageMechanism(t *testing.T) {
	if bad := stageMemoizers(t, "../.."); len(bad) > 0 {
		t.Fatalf("a second stage mechanism is back: %v", bad)
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
// inside a task, the external sorter's row-slice sorts, and a sort-merge join
// declared and zipped; its rangejoin package collects its interval tree's
// build side. Its physical and rdd packages hold the second stage mechanisms:
// LazyBuild, shuffleState and the partition collector, each declared and
// used. Comments, and a test file's collect, are not reported.
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
	if got, want := rowSliceSorts(t, root), []string{
		"internal/physical/extsort.go:46 in externalSorter.flushRun",
		"internal/physical/extsort.go:81 in externalSorter.Finish",
		"internal/physical/extsort.go:237 in sampleBounds",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: row-slice sorts reported %v, want %v", got, want)
	}
	if got, want := secondShuffledJoins(t, root), []string{
		"internal/physical/smj.go:12",
		"internal/physical/smj.go:16 in SortMergeJoinExec.SimpleString",
		"internal/physical/smj.go:20 in SortMergeJoinExec.Execute",
		"internal/physical/smj.go:22 in SortMergeJoinExec.Execute",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: second shuffled joins reported %v, want %v", got, want)
	}
	if got, want := stageMemoizers(t, root), []string{
		"internal/physical/lazy.go:5",
		"internal/physical/lazy.go:12 in LazyBuild.Get",
		"internal/physical/lazy.go:24 in adaptStage",
		"internal/rdd/shuffle.go:5",
		"internal/rdd/shuffle.go:12 in shuffleState.materialize",
		"internal/rdd/shuffle.go:24 in RDD.CollectPartitionsContext",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: second stage mechanisms reported %v, want %v", got, want)
	}
}
