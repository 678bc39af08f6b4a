package archtest

import (
	"go/ast"
	"slices"
	"testing"
)

// A statement pays for what changed in the catalog: RefreshSession re-encodes
// only the relations the catalog replaced (encodeTable, one at a time), so a
// collectTables() or EncodeRows call in it is the per-statement walk over
// every table coming back; and a LocalRelation's flat size comes from its memo
// cell, so a range over a LocalRelation's rows in a case of
// internal/plan/estimation.go is the per-statement walk over every row. And a
// statement's bookkeeping is its own: its event and its cluster summary read
// their trace's spans (TraceBuffer.TraceSpans), so a Trace().Snapshot() in
// internal/core's observability.go or cluster.go copies the whole ring again;
// the server's row cap is the collect's, so a .Limit( or .PlanHash() call in
// internal/sqlserver/server.go plans a statement twice; and a take is sized to
// the rows it takes, so a make(_, _, n) in rdd.TakeContext sizes it to its cap.

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

// statsRowLoops returns the range statements over X.Rows inside a switch case
// that lists *LocalRelation in internal/plan/estimation.go.
func statsRowLoops(t *testing.T, root string) []string {
	t.Helper()
	var loops []Call
	for _, f := range parseOnly(t, root, "internal/plan/estimation.go") {
		walkNodes([]File{f}, func(f File, in string, n ast.Node) {
			cc, ok := n.(*ast.CaseClause)
			if !ok || !slices.ContainsFunc(cc.List, func(e ast.Expr) bool {
				if star, ok := e.(*ast.StarExpr); ok {
					id, ok := star.X.(*ast.Ident)
					return ok && id.Name == "LocalRelation"
				}
				return false
			}) {
				return
			}
			for _, stmt := range cc.Body {
				ast.Inspect(stmt, func(n ast.Node) bool {
					if rs, ok := n.(*ast.RangeStmt); ok {
						if sel, ok := rs.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Rows" {
							loops = append(loops, Call{File: f.Rel, Line: f.Fset.Position(rs.Pos()).Line, In: in})
						}
					}
					return true
				})
			}
		})
	}
	return callStrings(loops)
}

// serverReplans returns the calls to a method named Limit, or to one named
// PlanHash with no argument, in internal/sqlserver/server.go.
func serverReplans(t *testing.T, root string) []string {
	t.Helper()
	return callStrings(FindCalls(parseOnly(t, root, "internal/sqlserver/server.go"), func(_ File, call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && (sel.Sel.Name == "Limit" || sel.Sel.Name == "PlanHash" && len(call.Args) == 0)
	}))
}

// capSizedTakes returns the make calls whose capacity is the identifier n
// inside TakeContext in internal/rdd/transform.go.
func capSizedTakes(t *testing.T, root string) []string {
	t.Helper()
	calls := FindCalls(parseOnly(t, root, "internal/rdd/transform.go"), func(_ File, call *ast.CallExpr) bool {
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "make" || len(call.Args) != 3 {
			return false
		}
		n, ok := call.Args[2].(*ast.Ident)
		return ok && n.Name == "n"
	})
	return callStrings(slices.DeleteFunc(calls, func(c Call) bool { return c.In != "TakeContext" }))
}

func TestRefreshSessionEncodesNothing(t *testing.T) {
	if bad := sessionEncodes(t, "../.."); len(bad) > 0 {
		t.Fatalf("internal/core/cluster.go: RefreshSession encodes the catalog on every statement again: %v", bad)
	}
}

func TestStatsWalksNoRows(t *testing.T) {
	if bad := statsRowLoops(t, "../.."); len(bad) > 0 {
		t.Fatalf("internal/plan/estimation.go: plan.Stats walks a LocalRelation's rows again: %v", bad)
	}
}

func TestServerPlansOnce(t *testing.T) {
	if bad := serverReplans(t, "../.."); len(bad) > 0 {
		t.Fatalf("internal/sqlserver/server.go plans a statement twice again: %v", bad)
	}
}

func TestTakeSizedToRows(t *testing.T) {
	if bad := capSizedTakes(t, "../.."); len(bad) > 0 {
		t.Fatalf("rdd.TakeContext sizes its result to n again: %v", bad)
	}
}

func TestNoTraceRingCopy(t *testing.T) {
	if bad := traceRingCopies(t, "../.."); len(bad) > 0 {
		t.Fatalf("internal/core copies the whole trace ring to find one statement's spans: %v", bad)
	}
}

// The fixture holds the parents' forms: a RefreshSession that calls
// collectTables() on every statement (collectTables' own EncodeRows, outside
// RefreshSession, is not reported), a ClusterSummaryFor that snapshots the
// trace ring to filter it, a Stats whose LocalRelation case sums its rows (a
// row loop outside a case is not reported), a server execute that hashes the
// plan and re-plans under a Limit, and a TakeContext allocated at its cap (a
// cap-sized make outside TakeContext is not reported).
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
	if got, want := statsRowLoops(t, root), []string{
		"internal/plan/estimation.go:12 in Stats",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: Stats row loops reported %v, want %v", got, want)
	}
	if got, want := serverReplans(t, root), []string{
		"internal/sqlserver/server.go:10 in Server.execute",
		"internal/sqlserver/server.go:14 in Server.execute",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: server re-plans reported %v, want %v", got, want)
	}
	if got, want := capSizedTakes(t, root), []string{
		"internal/rdd/transform.go:9 in TakeContext",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: cap-sized takes reported %v, want %v", got, want)
	}
}
