// Package archtest holds the repository's architecture invariants as tests
// over Go syntax rather than greps over text: each check parses source files
// with go/parser and asserts a design rule over what it finds, and each is
// also run over a fixture tree under testdata that breaks the rule, so the
// check provably still fires. The package's code is what the checks share.
package archtest

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Importers returns the non-test Go files under root that import path, as
// slash-separated paths relative to root, sorted. Like the go tool, it skips
// testdata directories and directories whose names begin with "." or "_".
func Importers(root, path string) ([]string, error) {
	var found []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
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
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if v, err := strconv.Unquote(imp.Path.Value); err == nil && v == path {
				rel, err := filepath.Rel(root, p)
				if err != nil {
					return err
				}
				found = append(found, filepath.ToSlash(rel))
				break
			}
		}
		return nil
	})
	slices.Sort(found)
	return found, err
}
