package archtest

import (
	"go/ast"
	"path"
	"slices"
	"strings"
	"testing"
)

// Rows that leave a process for a while and come back — shuffle buckets, task
// replies, shipped session tables, spill runs — travel as internal/columnar's
// column blocks; the row codec's blocks are the durable table store's format
// alone (its WAL records and checkpoints). And one framer, internal/frame,
// cuts every record that crosses a process or disk boundary: a second
// importer of hash/crc32, or a fixed-width length prefix written or read with
// encoding/binary under the cluster, the store or the durable file system, is
// a hand-rolled framer coming back.

// rowBlockUses returns where a non-test file outside internal/store names
// row.EncodeRows or row.DecodeRows, called or passed as a value. bench/ is
// left out: its codec probe times the row codec for its traced cells and
// carries no rows anywhere.
func rowBlockUses(t *testing.T, root string) []string {
	t.Helper()
	files, err := ParseFiles(root, func(rel string) bool {
		return !strings.HasPrefix(rel, "internal/store/") && !strings.HasPrefix(rel, "bench/")
	})
	if err != nil {
		t.Fatal(err)
	}
	return callStrings(FindNodes(files, func(f File, n ast.Node) bool {
		local := f.ImportName("repro/internal/row")
		e, ok := n.(ast.Expr)
		return ok && local != "" && (IsSelector(e, local, "EncodeRows") || IsSelector(e, local, "DecodeRows"))
	}))
}

// crc32Importers returns the non-test files that import hash/crc32 outside
// internal/frame.
func crc32Importers(t *testing.T, root string) []string {
	t.Helper()
	files, err := Importers(root, "hash/crc32")
	if err != nil {
		t.Fatal(err)
	}
	return slices.DeleteFunc(files, func(rel string) bool { return strings.HasPrefix(rel, "internal/frame/") })
}

// handFraming returns the calls binary.BigEndian.X or binary.LittleEndian.X,
// X a 16- or 32-bit Uint, PutUint or AppendUint, in the non-test files of
// internal/cluster, internal/store and internal/dfs (subpackages included).
func handFraming(t *testing.T, root string) []string {
	t.Helper()
	files, err := ParseFiles(root, func(rel string) bool {
		return slices.ContainsFunc([]string{"internal/cluster", "internal/store", "internal/dfs"}, func(dir string) bool {
			return strings.HasPrefix(path.Dir(rel)+"/", dir+"/")
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return callStrings(FindCalls(files, func(f File, call *ast.CallExpr) bool {
		local := f.ImportName("encoding/binary")
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if local == "" || !ok || !(IsSelector(sel.X, local, "BigEndian") || IsSelector(sel.X, local, "LittleEndian")) {
			return false
		}
		name := strings.TrimPrefix(strings.TrimPrefix(sel.Sel.Name, "Put"), "Append")
		return name == "Uint16" || name == "Uint32"
	}))
}

func TestRowBlocksOnlyInStore(t *testing.T) {
	if bad := rowBlockUses(t, "../.."); len(bad) > 0 {
		t.Fatalf("row.EncodeRows/DecodeRows used outside internal/store (transient rows travel as columnar blocks): %v", bad)
	}
}

func TestCRC32OnlyInFrame(t *testing.T) {
	if bad := crc32Importers(t, "../.."); len(bad) > 0 {
		t.Fatalf("hash/crc32 is imported outside internal/frame: %v", bad)
	}
}

func TestNoHandRolledFraming(t *testing.T) {
	if bad := handFraming(t, "../.."); len(bad) > 0 {
		t.Fatalf("a record is framed by hand outside internal/frame: %v", bad)
	}
}

// The fixture holds the forms each gate was written against: the shuffle
// codec before it moved to column blocks (the row codec passed as values),
// with the fixture's older extsort (its collectTables names EncodeRows but
// imports no row package, so it is not reported), and the cluster's wire
// framer before internal/frame (a crc32 import and big-endian length and
// checksum words, written and read).
func TestCodecGatesFire(t *testing.T) {
	root := "testdata/fixture"
	if got, want := rowBlockUses(t, root), []string{
		"internal/physical/extsort.go:147 in runCursor.advance",
		"internal/physical/shufflecodec.go:12",
		"internal/physical/shufflecodec.go:13",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: row codec uses reported %v, want %v", got, want)
	}
	if got, want := crc32Importers(t, root), []string{"internal/cluster/frame.go"}; !slices.Equal(got, want) {
		t.Errorf("fixture: hash/crc32 importers reported %v, want %v", got, want)
	}
	if got, want := handFraming(t, root), []string{
		"internal/cluster/frame.go:76 in WriteFrame",
		"internal/cluster/frame.go:77 in WriteFrame",
		"internal/cluster/frame.go:92 in ReadFrame",
		"internal/cluster/frame.go:96 in ReadFrame",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: hand framing reported %v, want %v", got, want)
	}
}
