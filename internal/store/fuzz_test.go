package store

import (
	"bytes"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/frame"
	"repro/internal/row"
)

// FuzzWALDecode drives the WAL record decoder with arbitrary blocks.
// Invariants, whatever the input: no panic, and a block that decodes
// re-encodes byte-identically, so replay never reinterprets a record. The
// seed corpus (which plain `go test` runs) covers valid records, short
// blocks and unknown types.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeRecord(nil, record{lsn: 1, typ: recCreate, payload: []byte("t")}))
	f.Add(encodeRecord(nil, record{lsn: 2, typ: recInsert, payload: []byte("some rows")}))
	f.Add(encodeRecord(nil, record{lsn: 3, typ: recCommit}))
	f.Add(encodeRecord(nil, record{lsn: 3, typ: recCommit})[:8]) // short block
	f.Add(encodeRecord(nil, record{lsn: 4, typ: recCommit + 1})) // unknown type
	f.Add([]byte("SWAL\x00\x00\x00\x00\x00\x00\x00\x01\x01"))    // a record of the earlier format
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeRecord(data)
		if err != nil {
			return
		}
		if re := encodeRecord(nil, r); !bytes.Equal(re, data) {
			t.Fatalf("record re-encodes to %q, not %q", re, data)
		}
	})
}

// TestFuzzSeedTornTails pins recovery to the last valid LSN: for every
// truncation point of a durable WAL segment holding three committed
// inserts, reopening recovers precisely the inserts whose commit record
// fits whole.
func TestFuzzSeedTornTails(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, openDurable(t, dir), Options{CheckpointBytes: -1})
	if err := s.CreateTable("kv", kvSchema(), false); err != nil {
		t.Fatal(err)
	}
	var all []row.Row
	for i := int64(1); i <= 3; i++ {
		r := row.Row{i, fmt.Sprint("v", i)}
		all = append(all, r)
		if _, err := s.Insert("kv", []row.Row{r}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	osPath := filepath.Join(dir, url.PathEscape(walPath(s.root, 0)))
	log, err := os.ReadFile(osPath)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int // where each frame ends: create, commit, then insert, commit per row
	for rest := log; len(rest) > 0; {
		_, _, next, err := frame.Next(rest)
		if err != nil {
			t.Fatal(err)
		}
		rest = next
		ends = append(ends, len(log)-len(rest))
	}
	for cut := ends[1]; cut <= len(log); cut++ {
		want := 0
		for want < 3 && cut >= ends[3+2*want] {
			want++
		}
		if err := os.WriteFile(osPath, log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re := openStore(t, openDurable(t, dir), Options{CheckpointBytes: -1})
		if got := collect(t, re, "kv"); !reflect.DeepEqual(got, all[:want]) && !(want == 0 && len(got) == 0) {
			t.Fatalf("cut at %d: recovered %v, want %v", cut, got, all[:want])
		}
		re.Close()
	}
}
