package archtest

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
	"testing"
)

// Trees are rewritten by the catalyst framework: its transforms reuse the
// subtrees a rule leaves alone, and a rule batch stops at the first iteration
// in which every rule returned the node it was given. A second hand-written
// walk that rebuilds nodes, a String() call in the framework, a String()
// method back in the TreeNode interface, or an optimizer rule comparing
// renderings is change detection by copy or by printed text coming back.

// calls reports whether the subtree at n holds a call that match accepts.
func calls(n ast.Node, match func(call *ast.CallExpr) bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && match(call) {
			found = true
		}
		return !found
	})
	return found
}

// isStringCall reports whether e is a call x.String().
func isStringCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) > 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "String"
}

// handWalks returns the non-test functions outside internal/catalyst that
// both call themselves and call WithNewChildren: a tree rewrite by hand. None
// is allowed, the adaptive driver's included: it is a catalyst transform that
// acts at exchanges. A method calls itself when it calls a method of its
// own name; a WithNewChildren that delegates to the node it wraps is no walk.
func handWalks(t *testing.T, root string) []string {
	t.Helper()
	files, err := ParseFiles(root, func(rel string) bool { return !strings.HasPrefix(rel, "internal/catalyst/") })
	if err != nil {
		t.Fatal(err)
	}
	found := FindNodes(files, func(_ File, n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Name.Name == "WithNewChildren" {
			return false
		}
		name := fd.Name.Name
		self := calls(fd.Body, func(call *ast.CallExpr) bool {
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				return fd.Recv == nil && fn.Name == name
			case *ast.SelectorExpr:
				return fd.Recv != nil && fn.Sel.Name == name
			}
			return false
		})
		return self && calls(fd.Body, func(call *ast.CallExpr) bool {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			return ok && sel.Sel.Name == "WithNewChildren"
		})
	})
	return callStrings(found)
}

// catalystRenders returns the String() calls and String methods in
// internal/catalyst's non-test files.
func catalystRenders(t *testing.T, root string) []string {
	t.Helper()
	files, err := ParseFiles(root, func(rel string) bool { return strings.HasPrefix(rel, "internal/catalyst/") })
	if err != nil {
		t.Fatal(err)
	}
	return callStrings(FindNodes(files, func(_ File, n ast.Node) bool {
		if fd, ok := n.(*ast.FuncDecl); ok {
			return fd.Name.Name == "String"
		}
		e, ok := n.(ast.Expr)
		return ok && isStringCall(e)
	}))
}

// treeNodeStrings returns a String method in the TreeNode interface.
func treeNodeStrings(t *testing.T, root string) []string {
	t.Helper()
	files, err := ParseFiles(root, func(rel string) bool { return strings.HasPrefix(rel, "internal/catalyst/") })
	if err != nil {
		t.Fatal(err)
	}
	var found []Call
	walkNodes(files, func(f File, in string, n ast.Node) {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "TreeNode" {
			return
		}
		if it, ok := ts.Type.(*ast.InterfaceType); ok {
			for _, m := range it.Methods.List {
				for _, name := range m.Names {
					if name.Name == "String" {
						found = append(found, Call{File: f.Rel, Line: f.Fset.Position(name.Pos()).Line, In: in})
					}
				}
			}
		}
	})
	return callStrings(found)
}

// textCompares returns the == and != comparisons of a String() call in
// internal/optimizer's non-test files.
func textCompares(t *testing.T, root string) []string {
	t.Helper()
	files, err := ParseFiles(root, func(rel string) bool { return strings.HasPrefix(rel, "internal/optimizer/") })
	if err != nil {
		t.Fatal(err)
	}
	return callStrings(FindNodes(files, func(_ File, n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		return ok && (b.Op == token.EQL || b.Op == token.NEQ) && (isStringCall(b.X) || isStringCall(b.Y))
	}))
}

func TestTreesRewrittenByCatalyst(t *testing.T) {
	if bad := handWalks(t, "../.."); len(bad) > 0 {
		t.Fatalf("a tree is rewritten by a hand-written walk outside internal/catalyst: %v", bad)
	}
}

func TestCatalystRendersNoTree(t *testing.T) {
	if bad := catalystRenders(t, "../.."); len(bad) > 0 {
		t.Fatalf("internal/catalyst renders a tree again: %v", bad)
	}
	if bad := treeNodeStrings(t, "../.."); len(bad) > 0 {
		t.Fatalf("catalyst.TreeNode requires String() again: %v", bad)
	}
}

func TestOptimizerComparesNoText(t *testing.T) {
	if bad := textCompares(t, "../.."); len(bad) > 0 {
		t.Fatalf("internal/optimizer compares plans by their printed text: %v", bad)
	}
}

// The fixture's physical package holds the old preparation transform, the
// old decision rewrite and the old adaptive driver's pruned walk, each a hand
// walk; its catalyst package walks too, renders nodes and puts
// String in TreeNode; its optimizer compares renderings twice.
func TestCatalystGatesFire(t *testing.T) {
	root := "testdata/fixture"
	if got, want := handWalks(t, root), []string{
		"internal/physical/adaptive.go:6 in rewriteAt",
		"internal/physical/adaptive.go:28 in adaptiveDriver.adapt",
		"internal/physical/plan.go:12 in transformUp",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: hand walks reported %v, want %v", got, want)
	}
	if got, want := catalystRenders(t, root), []string{
		"internal/catalyst/tree.go:22 in Changed",
		"internal/catalyst/tree.go:22 in Changed",
		"internal/catalyst/tree.go:26 in Leaf.String",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: catalyst renders reported %v, want %v", got, want)
	}
	if got, want := treeNodeStrings(t, root), []string{"internal/catalyst/tree.go:8"}; !slices.Equal(got, want) {
		t.Errorf("fixture: TreeNode String reported %v, want %v", got, want)
	}
	if got, want := textCompares(t, root), []string{
		"internal/optimizer/rules.go:12 in pushDown",
		"internal/optimizer/rules.go:15 in pushDown",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: text compares reported %v, want %v", got, want)
	}
}
