package dfs

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fileHalfMax bounds the inputs FuzzLoadFrames also loads from disk. Disk I/O
// per input slows the fuzzer's minimizer by orders of magnitude on large
// inputs, and what the file half adds — the truncation and the reload — is a
// function of the prefix length alone, which the parse half checks at every
// size.
const fileHalfMax = 128

// loadFrames reads a mirrored file back from the host disk, whatever a crash
// or another program left there. Whatever the bytes, the parse never panics
// and the blocks it keeps, framed again, are the file's longest prefix of
// whole frames; the load truncates the file to that prefix, and loading the
// truncated file again changes nothing.
func FuzzLoadFrames(f *testing.F) {
	var whole []byte
	for _, b := range []string{"alpha", "", "gamma"} {
		whole = append(whole, frame([]byte(b))...)
	}
	f.Add(whole)
	f.Add(whole[:len(whole)-3])                         // torn mid-payload
	f.Add(whole[:len(whole)-7])                         // torn mid-header
	f.Add([]byte{})                                     // empty file
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})          // a length past the file
	f.Add(append(frame([]byte("a")), 0, 0, 0, 0, 9, 9)) // an empty frame, then bytes past it
	f.Add(append(frame([]byte("a")), 7))                // one stray byte
	path := filepath.Join(f.TempDir(), "f")
	f.Fuzz(func(t *testing.T, in []byte) {
		blocks, valid := parseFrames(in)
		var prefix []byte
		for _, b := range blocks {
			prefix = append(prefix, frame(b)...)
		}
		if !bytes.Equal(prefix, in[:valid]) {
			t.Fatalf("kept blocks re-frame to %q, not the valid prefix %q", prefix, in[:valid])
		}
		if tail := in[valid:]; len(tail) >= 4 && uint64(binary.BigEndian.Uint32(tail)) <= uint64(len(tail)-4) {
			t.Fatalf("a whole frame was dropped: tail %q", tail)
		}
		if len(in) > fileHalfMax {
			return
		}

		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		for load := 1; load <= 2; load++ {
			got, err := loadFrames(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(blocks) || (len(got) > 0 && !reflect.DeepEqual(got, blocks)) {
				t.Fatalf("load %d keeps %q, the parse %q", load, got, blocks)
			}
			if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, prefix) {
				t.Fatalf("after load %d the file holds %q (%v), want the valid prefix %q", load, onDisk, err, prefix)
			}
		}
	})
}
