package dfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/frame"
)

func blockFrames(blocks ...string) []byte {
	var out []byte
	for _, b := range blocks {
		out = frame.Append(out, blockKind, []byte(b))
	}
	return out
}

// loadFrames reads a mirrored file back from the host disk, whatever a crash
// or another program left there. Whatever the bytes, the load never panics
// and either refuses the file and leaves it untouched, or keeps blocks that,
// framed again, are the file's longest prefix of intact block frames; the
// load truncates the file to that prefix, and loading the truncated file
// again changes nothing.
func FuzzLoadFrames(f *testing.F) {
	whole := blockFrames("alpha", "", "gamma")
	f.Add(whole)
	f.Add(whole[:len(whole)-3])                                   // torn mid-payload
	f.Add(whole[:len(whole)-7])                                   // torn mid-header
	f.Add([]byte{})                                               // empty file
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})                    // not a block file
	f.Add(append(blockFrames("a"), frame.Append(nil, 9, nil)...)) // a frame of another kind
	f.Add(append(blockFrames("a"), 7))                            // one stray byte
	corrupt := append([]byte(nil), whole...)
	corrupt[len(corrupt)-1] ^= 1
	f.Add(corrupt) // a flipped bit in the last block
	f.Add([]byte("notes: 0x6e6f7465 is where this file starts"))
	path := filepath.Join(f.TempDir(), "f")
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		blocks, torn, err := loadFrames(path)
		onDisk, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !errors.Is(err, errForeign) || in[0] == blockKind || !bytes.Equal(onDisk, in) {
				t.Fatalf("refused with %v, file now %q", err, onDisk)
			}
			return
		}
		var prefix []byte
		for _, b := range blocks {
			prefix = frame.Append(prefix, blockKind, b)
		}
		if !bytes.Equal(prefix, in[:len(prefix)]) || !bytes.Equal(onDisk, prefix) {
			t.Fatalf("kept blocks re-frame to %q; input %q, file now %q", prefix, in, onDisk)
		}
		if torn != (len(prefix) < len(in)) {
			t.Fatalf("torn = %v with %d of %d bytes kept", torn, len(prefix), len(in))
		}
		if kind, _, _, err := frame.Next(in[len(prefix):]); err == nil && kind == blockKind {
			t.Fatalf("an intact block frame was dropped: tail %q", in[len(prefix):])
		}
		again, torn, err := loadFrames(path)
		if err != nil || torn || len(again) != len(blocks) || (len(again) > 0 && !reflect.DeepEqual(again, blocks)) {
			t.Fatalf("second load keeps %q (torn %v, %v), the first %q", again, torn, err, blocks)
		}
	})
}
