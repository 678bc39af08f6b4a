package store

import (
	"bytes"
	"testing"

	"repro/internal/dfs"
)

func TestRecordRoundTrip(t *testing.T) {
	recs := []record{
		{lsn: 1, typ: recCreate, payload: []byte("create")},
		{lsn: 2, typ: recInsert, payload: bytes.Repeat([]byte{0xAB}, 1000)},
		{lsn: 3, typ: recCommit, payload: nil},
	}
	for _, r := range recs {
		got, err := decodeRecord(encodeRecord(nil, r))
		if err != nil {
			t.Fatal(err)
		}
		if got.lsn != r.lsn || got.typ != r.typ || !bytes.Equal(got.payload, r.payload) {
			t.Fatalf("record mismatch: %+v vs %+v", got, r)
		}
	}
}

func TestWALAppendAssignsLSNs(t *testing.T) {
	fs := dfs.New()
	fs.WriteNanosPerByte = 0
	fs.ReadNanosPerByte = 0
	w := &wal{fs: fs, root: "store", nextLSN: 1}
	if _, err := w.appendTxn([]record{{typ: recCreate}, {typ: recCommit}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.appendTxn([]record{{typ: recInsert}, {typ: recCommit}}); err != nil {
		t.Fatal(err)
	}
	blocks, err := fs.Read(walPath("store", 0))
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(1)
	for _, b := range blocks {
		rec, err := decodeRecord(b)
		if err != nil {
			t.Fatalf("block decode: %v", err)
		}
		if rec.lsn != want {
			t.Fatalf("lsn = %d, want %d", rec.lsn, want)
		}
		want++
	}
	if w.nextLSN != 5 {
		t.Fatalf("nextLSN = %d, want 5", w.nextLSN)
	}
}
