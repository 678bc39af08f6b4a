package archtest

import (
	"go/ast"
	"slices"
	"testing"
)

// One boxing routine: where batches become rows — a batch top's result sink,
// a batch scan read as rows — expr.BoxValues boxes column by column into a
// header-less arena, and the row headers are cut once, where rows are needed.

// resultEdges are the files where batches become rows.
var resultEdges = []string{"internal/physical/vectorized.go", "internal/physical/misc.go", "internal/datasource/datasource.go"}

func parseOnly(t *testing.T, root string, rels ...string) []File {
	t.Helper()
	files, err := ParseFiles(root, func(rel string) bool { return slices.Contains(rels, rel) })
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func callStrings(calls []Call) []string {
	out := make([]string, len(calls))
	for i, c := range calls {
		out[i] = c.String()
	}
	return out
}

// perRowBoxing returns the per-row boxing at the result edges: a
// make(row.Row, …) or a Row(int(…)) call, each a second boxing routine.
func perRowBoxing(t *testing.T, root string) []string {
	return callStrings(FindCalls(parseOnly(t, root, resultEdges...), func(f File, call *ast.CallExpr) bool {
		if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "make" {
			local := f.ImportName("repro/internal/row")
			return local != "" && len(call.Args) > 0 && IsSelector(call.Args[0], local, "Row")
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Row" && len(call.Args) == 1 {
			conv, ok := call.Args[0].(*ast.CallExpr)
			if !ok {
				return false
			}
			id, ok := conv.Fun.(*ast.Ident)
			return ok && id.Name == "int"
		}
		return false
	}))
}

// headerCopies returns the per-batch row-header copies in a batch top's
// tasks: slices.Concat in the pipeline, expr.BoxRows in the aggregate.
func headerCopies(t *testing.T, root string) []string {
	concat := Calls(parseOnly(t, root, "internal/physical/vectorized.go"), "slices", "Concat")
	boxRows := Calls(parseOnly(t, root, "internal/physical/agg.go"), "repro/internal/expr", "BoxRows")
	return callStrings(append(concat, boxRows...))
}

func TestNoPerRowBoxingAtResultEdge(t *testing.T) {
	if bad := perRowBoxing(t, "../.."); len(bad) > 0 {
		t.Fatalf("a per-row boxing loop is back at a result edge: %v", bad)
	}
}

func TestNoRowHeaderCopyInBatchTop(t *testing.T) {
	if bad := headerCopies(t, "../.."); len(bad) > 0 {
		t.Fatalf("internal/physical: a batch top copies row headers in its tasks again: %v", bad)
	}
}

// The fixture's edges box per row three times and copy headers twice; its
// aggregate's spill-record make and its make of a []row.Row are not reported.
func TestOneBoxingRoutineFires(t *testing.T) {
	root := "testdata/fixture"
	if got, want := perRowBoxing(t, root), []string{
		"internal/datasource/datasource.go:8 in rows",
		"internal/physical/vectorized.go:14 in boxEach",
		"internal/physical/vectorized.go:15 in boxEach",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: per-row boxing reported %v, want %v", got, want)
	}
	if got, want := headerCopies(t, root), []string{
		"internal/physical/vectorized.go:17 in boxEach",
		"internal/physical/agg.go:12 in flush",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: header copies reported %v, want %v", got, want)
	}
}
