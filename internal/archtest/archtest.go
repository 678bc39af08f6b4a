// Package archtest holds the repository's architecture invariants as tests
// over Go syntax rather than greps over text: each check parses source files
// with go/parser and asserts a design rule over what it finds, and each is
// also run over a fixture that breaks the rule, so the check provably still
// fires. The package's code is what the checks share.
package archtest

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// walkGo calls fn with the path of every Go file under root (test files only
// when tests is set), relative to root and slash-separated, in lexical order.
// Like the go tool, it skips testdata directories and directories whose names
// begin with "." or "_".
func walkGo(root string, tests bool, fn func(p, rel string) error) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || !tests && strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		return fn(p, filepath.ToSlash(rel))
	})
}

// File is a parsed Go file.
type File struct {
	Rel  string // slash-separated, relative to the root it was found under
	Fset *token.FileSet
	AST  *ast.File
}

// ParseFiles parses the non-test Go files under root, keeping those keep
// accepts by their relative path (nil keeps all).
func ParseFiles(root string, keep func(rel string) bool) ([]File, error) {
	return parseFiles(root, false, keep)
}

// parseFiles is ParseFiles, test files included when tests is set.
func parseFiles(root string, tests bool, keep func(rel string) bool) ([]File, error) {
	var files []File
	fset := token.NewFileSet()
	err := walkGo(root, tests, func(p, rel string) error {
		if keep != nil && !keep(rel) {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, File{Rel: rel, Fset: fset, AST: f})
		return nil
	})
	return files, err
}

// ImportName is the name f refers to the package imported as importPath by:
// the import's own name when it renames it, else the path's last element; ""
// when f does not import it (or imports it as _ or .).
func (f File) ImportName(importPath string) string {
	for _, imp := range f.AST.Imports {
		if v, err := strconv.Unquote(imp.Path.Value); err != nil || v != importPath {
			continue
		}
		if imp.Name == nil {
			return path.Base(importPath)
		}
		if n := imp.Name.Name; n != "_" && n != "." {
			return n
		}
	}
	return ""
}

// Importers returns the non-test Go files under root that import importPath,
// as slash-separated paths relative to root, sorted.
func Importers(root, importPath string) ([]string, error) {
	var found []string
	fset := token.NewFileSet()
	err := walkGo(root, false, func(p, rel string) error {
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if v, err := strconv.Unquote(imp.Path.Value); err == nil && v == importPath {
				found = append(found, rel)
				break
			}
		}
		return nil
	})
	slices.Sort(found)
	return found, err
}

// Unformatted returns the Go files under root, test files included, whose
// bytes differ from go/format's rendering of them, as gofmt -l lists them.
func Unformatted(root string) ([]string, error) {
	var found []string
	err := walkGo(root, true, func(p, rel string) error {
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if out, err := format.Source(src); err != nil || !bytes.Equal(out, src) {
			found = append(found, rel)
		}
		return nil
	})
	return found, err
}

// Call is a call found in a file, or any node FindNodes matched.
type Call struct {
	File string // the file's relative path
	Line int
	// In is the top-level function the call is in: "Name" for a function,
	// "Recv.Name" for a method (the receiver's type name, pointer or not),
	// "" at package scope.
	In string
}

func (c Call) String() string {
	if c.In == "" {
		return c.File + ":" + strconv.Itoa(c.Line)
	}
	return c.File + ":" + strconv.Itoa(c.Line) + " in " + c.In
}

// walkNodes calls fn with every syntax node in files, in file order, and the
// top-level function it is in (as Call.In names it).
func walkNodes(files []File, fn func(f File, in string, n ast.Node)) {
	for _, f := range files {
		for _, decl := range f.AST.Decls {
			in := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				in = funcName(fd)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if n != nil {
					fn(f, in, n)
				}
				return true
			})
		}
	}
}

// FindNodes returns where in files the nodes are for which match reports
// true, in file order.
func FindNodes(files []File, match func(f File, n ast.Node) bool) []Call {
	var found []Call
	walkNodes(files, func(f File, in string, n ast.Node) {
		if match(f, n) {
			found = append(found, Call{File: f.Rel, Line: f.Fset.Position(n.Pos()).Line, In: in})
		}
	})
	return found
}

// StructFields returns where in files a struct type declares a field for
// which match reports true, given the field's name and type: one entry per
// matching name, in file order. Parameters, results and interface methods are
// not struct fields.
func StructFields(files []File, match func(name string, typ ast.Expr) bool) []Call {
	var found []Call
	walkNodes(files, func(f File, in string, n ast.Node) {
		st, ok := n.(*ast.StructType)
		if !ok {
			return
		}
		for _, field := range st.Fields.List {
			for _, name := range field.Names {
				if match(name.Name, field.Type) {
					found = append(found, Call{File: f.Rel, Line: f.Fset.Position(name.Pos()).Line, In: in})
				}
			}
		}
	})
	return found
}

// FindCalls returns the calls in files for which match reports true, in file
// order.
func FindCalls(files []File, match func(f File, call *ast.CallExpr) bool) []Call {
	return FindNodes(files, func(f File, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		return ok && match(f, call)
	})
}

// Calls returns the calls in files to the function name of the package
// imported as importPath, each file's local name for the import resolved (a
// renamed import is followed; a dot import is not).
func Calls(files []File, importPath, name string) []Call {
	return FindCalls(files, func(f File, call *ast.CallExpr) bool {
		local := f.ImportName(importPath)
		return local != "" && IsSelector(call.Fun, local, name)
	})
}

// IsSelector reports whether e is the selector x.sel.
func IsSelector(e ast.Expr, x, sel string) bool {
	s, ok := e.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != sel {
		return false
	}
	id, ok := s.X.(*ast.Ident)
	return ok && id.Name == x
}

// funcName names a function declaration as Call.In does.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr: // a generic receiver, T[P]
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
