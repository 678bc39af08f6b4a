package dfs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestProtectSurvivesSpillSweep is the regression test for the namespace
// split between spill scratch and durable store paths: a broad spill/temp
// cleanup sweep must not collect WAL segments under a protected prefix,
// while the store's own maintenance sweeps inside the namespace still work.
func TestProtectSurvivesSpillSweep(t *testing.T) {
	fs := New()
	fs.WriteNanosPerByte = 0
	fs.ReadNanosPerByte = 0
	fs.Protect("store/")

	mustAppend := func(path string) {
		t.Helper()
		if err := fs.AppendBlock(path, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend("store/wal-1")
	mustAppend("store/data/kv/seg-1")
	mustAppend("/spill/sort-1/run-0")
	mustAppend("/tmp/scratch-1")

	// Sweeps rooted outside the store namespace — including the broadest
	// possible ones — must leave store files alone.
	for _, sweep := range []string{"/spill/", "/tmp/", "/", ""} {
		fs.DeletePrefix(sweep)
	}
	for _, p := range []string{"store/wal-1", "store/data/kv/seg-1"} {
		if !fs.Exists(p) {
			t.Fatalf("protected file %q deleted by spill/temp sweep", p)
		}
	}
	if fs.Exists("/spill/sort-1/run-0") || fs.Exists("/tmp/scratch-1") {
		t.Fatal("scratch files survived their own sweep")
	}

	// The store's own maintenance is rooted inside the namespace and works.
	if n := fs.DeletePrefix("store/wal"); n != 1 {
		t.Fatalf("store-rooted sweep removed %d files, want 1", n)
	}
	// Exact-path deletes are deliberate and always honored.
	fs.Delete("store/data/kv/seg-1")
	if fs.Exists("store/data/kv/seg-1") {
		t.Fatal("exact Delete did not remove protected file")
	}
}

// TestTempPathSkipsExisting: the temp sequence restarts with the process,
// so TempPath must skip paths already present rather than hand out a name
// that collides with a survivor.
func TestTempPathSkipsExisting(t *testing.T) {
	fs := New()
	fs.WriteNanosPerByte = 0
	if err := fs.AppendBlock("/tmp/run-1", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendBlock("/tmp/run-2", []byte("old")); err != nil {
		t.Fatal(err)
	}
	p := fs.TempPath("run")
	if p == "/tmp/run-1" || p == "/tmp/run-2" {
		t.Fatalf("TempPath returned existing path %q", p)
	}
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendBlock("store/wal-1", []byte("rec1")); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendBlock("store/wal-1", []byte("rec2")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("store/CURRENT", [][]byte{[]byte("manifest-1")}); err != nil {
		t.Fatal(err)
	}
	// Scratch namespaces never reach the disk.
	if err := fs.AppendBlock("/tmp/scratch-1", []byte("gone")); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendBlock("/spill/agg-1/p0", []byte("gone")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync("store/wal-1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := re.Read("store/wal-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 || !bytes.Equal(blocks[0], []byte("rec1")) || !bytes.Equal(blocks[1], []byte("rec2")) {
		t.Fatalf("reopened WAL blocks = %q", blocks)
	}
	cur, err := re.Read("store/CURRENT")
	if err != nil {
		t.Fatal(err)
	}
	if string(cur[0]) != "manifest-1" {
		t.Fatalf("CURRENT = %q", cur[0])
	}
	if re.Exists("/tmp/scratch-1") || re.Exists("/spill/agg-1/p0") {
		t.Fatal("memory-only namespace leaked to disk")
	}
}

// TestDurableTornTail: a crash mid-append leaves a partial frame at the
// tail of a mirrored file; reopening must keep every complete block and
// drop only the torn one.
func TestDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"alpha", "beta", "gamma"} {
		if err := fs.AppendBlock("store/wal-1", []byte(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop the last 3 bytes of the OS file, leaving a
	// complete prefix plus a truncated frame.
	osPath := filepath.Join(dir, "store%2Fwal-1")
	data, err := os.ReadFile(osPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(osPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := re.Read("store/wal-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 || string(blocks[0]) != "alpha" || string(blocks[1]) != "beta" {
		t.Fatalf("after torn tail, blocks = %q", blocks)
	}

	// Deleting and re-adding under protection still mirrors correctly.
	re.Protect("store/")
	re.DeletePrefix("") // broad sweep: store files survive
	if !re.Exists("store/wal-1") {
		t.Fatal("broad sweep deleted protected durable file")
	}
}

// TestOpenDirRefusesForeignFile: a file in the directory that is not a block
// file — another program's text, or a WAL segment of the earlier
// length-prefixed format — fails the open with the file's name, and is left
// byte for byte as it was, never truncated.
func TestOpenDirRefusesForeignFile(t *testing.T) {
	oldWAL := []byte{0, 0, 0, 23, 'S', 'W', 'A', 'L', 0, 0, 0, 0, 0, 0, 0, 1, 5, 0, 0, 0, 0, 0, 0, 0, 0}
	for name, content := range map[string][]byte{
		"notes.txt":          []byte("notes on the data directory\n"),
		"store%2Fwal-000000": oldWAL,
	} {
		dir := t.TempDir()
		osPath := filepath.Join(dir, name)
		if err := os.WriteFile(osPath, content, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenDir(dir)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s: OpenDir err = %v, want a refusal naming the file", name, err)
		}
		after, err := os.ReadFile(osPath)
		if err != nil || !bytes.Equal(after, content) {
			t.Fatalf("%s: file now %q (%v), want it untouched", name, after, err)
		}
	}
}
