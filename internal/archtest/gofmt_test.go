package archtest

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestGofmt(t *testing.T) {
	bad, err := Unformatted("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Fatalf("not gofmt-formatted (run gofmt -w): %v", bad)
	}
}

// A tree holding one formatted and one unformatted file reports the second,
// and its testdata is not looked at.
func TestGofmtFires(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"ok.go":                 "package p\n\nfunc f() int { return 1 }\n",
		"p/bad_test.go":         "package p\nfunc  g() int {\nreturn 2 }\n",
		"testdata/ignored.go":   "package  p\n",
		"p/unparsable_not_go.c": "int  x;\n",
	}
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := Unformatted(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"p/bad_test.go"}; !slices.Equal(bad, want) {
		t.Fatalf("fixture: unformatted %v, want %v", bad, want)
	}
}
