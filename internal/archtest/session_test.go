package archtest

import (
	"go/ast"
	"slices"
	"testing"
)

// A statement pays for what changed in the catalog: RefreshSession re-encodes
// only the relations the catalog replaced (encodeTable, one at a time), so a
// collectTables() or EncodeRows call in it is the per-statement walk over
// every table coming back. And a statement's bookkeeping is its own: its
// event and its cluster summary read their trace's spans
// (TraceBuffer.TraceSpans), so a Trace().Snapshot() in internal/core's
// observability.go or cluster.go copies the whole ring again.

// sessionEncodes returns the calls named collectTables or EncodeRows inside
// ClusterRuntime.RefreshSession in internal/core/cluster.go.
func sessionEncodes(t *testing.T, root string) []string {
	t.Helper()
	calls := FindCalls(parseOnly(t, root, "internal/core/cluster.go"), func(_ File, call *ast.CallExpr) bool {
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			return fn.Name == "collectTables"
		case *ast.SelectorExpr:
			return fn.Sel.Name == "collectTables" || fn.Sel.Name == "EncodeRows"
		}
		return false
	})
	return callStrings(slices.DeleteFunc(calls, func(c Call) bool { return c.In != "ClusterRuntime.RefreshSession" }))
}

// traceRingCopies returns the X.Trace().Snapshot() calls in internal/core's
// observability.go and cluster.go.
func traceRingCopies(t *testing.T, root string) []string {
	t.Helper()
	files := parseOnly(t, root, "internal/core/observability.go", "internal/core/cluster.go")
	return callStrings(FindCalls(files, func(_ File, call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Snapshot" {
			return false
		}
		inner, ok := sel.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		trace, ok := inner.Fun.(*ast.SelectorExpr)
		return ok && trace.Sel.Name == "Trace"
	}))
}

func TestRefreshSessionEncodesNothing(t *testing.T) {
	if bad := sessionEncodes(t, "../.."); len(bad) > 0 {
		t.Fatalf("internal/core/cluster.go: RefreshSession encodes the catalog on every statement again: %v", bad)
	}
}

func TestNoTraceRingCopy(t *testing.T) {
	if bad := traceRingCopies(t, "../.."); len(bad) > 0 {
		t.Fatalf("internal/core copies the whole trace ring to find one statement's spans: %v", bad)
	}
}

// The fixture's core package holds the parents' forms: a RefreshSession that
// calls collectTables() on every statement (collectTables' own EncodeRows,
// outside RefreshSession, is not reported), and a ClusterSummaryFor that
// snapshots the trace ring to filter it.
func TestSessionGatesFire(t *testing.T) {
	root := "testdata/fixture"
	if got, want := sessionEncodes(t, root), []string{
		"internal/core/cluster.go:6 in ClusterRuntime.RefreshSession",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: RefreshSession encodes reported %v, want %v", got, want)
	}
	if got, want := traceRingCopies(t, root), []string{
		"internal/core/cluster.go:39 in ClusterRuntime.ClusterSummaryFor",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: trace ring copies reported %v, want %v", got, want)
	}
}
