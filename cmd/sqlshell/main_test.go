package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sparksql "repro"
)

// capture runs f with stdout redirected and returns what it printed.
func capture(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		// Read to EOF: one Read returns only the first write, which made
		// multi-line output flaky under load.
		out, _ := io.ReadAll(r)
		done <- string(out)
	}()
	f()
	w.Close()
	os.Stdout = old
	return <-done
}

func shellCtx(t *testing.T) *sparksql.Context {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "people.csv")
	if err := os.WriteFile(path, []byte("name,age\nAda,36\nBob,17\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := sparksql.NewContext()
	run(ctx, "CREATE TEMPORARY TABLE people USING csv OPTIONS(path '"+path+"')")
	return ctx
}

func TestRunSelect(t *testing.T) {
	ctx := shellCtx(t)
	out := capture(t, func() {
		run(ctx, "SELECT name FROM people WHERE age > 20")
	})
	if !strings.Contains(out, "Ada") || strings.Contains(out, "Bob") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunReportsErrors(t *testing.T) {
	ctx := shellCtx(t)
	out := capture(t, func() {
		run(ctx, "SELECT nosuch FROM people")
	})
	if !strings.Contains(out, "error") || !strings.Contains(out, "nosuch") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestDotCommands(t *testing.T) {
	ctx := shellCtx(t)
	out := capture(t, func() { command(ctx, ".tables") })
	if !strings.Contains(out, "people") {
		t.Fatalf(".tables:\n%s", out)
	}
	out = capture(t, func() { command(ctx, ".schema people") })
	if !strings.Contains(out, "age") {
		t.Fatalf(".schema:\n%s", out)
	}
	out = capture(t, func() { command(ctx, ".explain SELECT name FROM people WHERE age > 20") })
	if !strings.Contains(out, "Physical Plan") {
		t.Fatalf(".explain:\n%s", out)
	}
	out = capture(t, func() { command(ctx, ".help") })
	if !strings.Contains(out, ".tables") {
		t.Fatalf(".help:\n%s", out)
	}
	if command(ctx, ".quit") {
		t.Fatal(".quit must stop the loop")
	}
	out = capture(t, func() { command(ctx, ".bogus") })
	if !strings.Contains(out, "unknown command") {
		t.Fatalf(".bogus:\n%s", out)
	}
}
