package frame

import (
	"bytes"
	"errors"
	"testing"
)

// TestNextTornOrCorrupt: a frame cut short anywhere is torn, and a whole
// frame with any bit of its kind, checksum or payload flipped is corrupt.
func TestNextTornOrCorrupt(t *testing.T) {
	full := Append(nil, 7, []byte("payload"))
	for n := 0; n < len(full); n++ {
		if _, _, rest, err := Next(full[:n]); !errors.Is(err, ErrTorn) || len(rest) != n {
			t.Fatalf("cut at %d: err = %v, rest %d bytes", n, err, len(rest))
		}
	}
	for i := range full {
		if i >= 1 && i < 5 {
			continue // a length flip reads as torn or as another frame's bounds
		}
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), full...)
			flipped[i] ^= 1 << bit
			if _, _, _, err := Next(flipped); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip byte %d bit %d: err = %v, want ErrCorrupt", i, bit, err)
			}
		}
	}
}

// FuzzFrame drives both readers with arbitrary bytes. Whatever the input,
// neither panics; a frame Next accepts is exactly what Append writes for its
// kind and payload, and stays accepted with whatever follows it; Read over a
// stream of the same bytes agrees with Next; and any single bit flipped in
// an accepted frame's kind, checksum or payload makes it corrupt.
func FuzzFrame(f *testing.F) {
	two := Append(Append(nil, 1, []byte("alpha")), 2, nil)
	f.Add(two)
	f.Add([]byte{})
	f.Add(two[:HeaderSize-1])                                 // torn header
	f.Add(two[:len(two)-HeaderSize-1])                        // torn payload
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'x'}) // a length past the bytes and MaxSize
	bad := append([]byte(nil), two...)
	bad[HeaderSize] ^= 0x20
	f.Add(bad) // corrupt first frame
	f.Fuzz(func(t *testing.T, in []byte) {
		kind, payload, rest, err := Next(in)
		rkind, rpayload, rerr := Read(bytes.NewReader(in))
		if err != nil {
			if len(rest) != len(in) {
				t.Fatalf("rejected frame consumed %d bytes", len(in)-len(rest))
			}
			if rerr == nil || errors.Is(err, ErrCorrupt) != errors.Is(rerr, ErrCorrupt) {
				t.Fatalf("Next: %v, Read: %v", err, rerr)
			}
			return
		}
		whole := in[:len(in)-len(rest)]
		if !bytes.Equal(Append(nil, kind, payload), whole) {
			t.Fatalf("accepted frame does not re-append to its bytes")
		}
		if rerr != nil || rkind != kind || !bytes.Equal(rpayload, payload) {
			t.Fatalf("Read disagrees with Next: %v", rerr)
		}
		if k, p, r, err := Next(append(append([]byte(nil), whole...), 0xde, 0xad)); err != nil || k != kind || !bytes.Equal(p, payload) || len(r) != 2 {
			t.Fatalf("trailing bytes changed the frame: %v", err)
		}
		for i := range whole {
			if i >= 1 && i < 5 {
				continue
			}
			flipped := append([]byte(nil), whole...)
			flipped[i] ^= 1 << (i % 8)
			if _, _, _, err := Next(flipped); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip in byte %d: err = %v, want ErrCorrupt", i, err)
			}
		}
	})
}

// TestWriteParts: Write frames the concatenation of its parts — byte for byte
// the frame Append writes for the whole payload, which Read reads back.
func TestWriteParts(t *testing.T) {
	for _, parts := range [][][]byte{nil, {[]byte("whole")}, {[]byte("head"), nil, []byte("body"), []byte("!")}} {
		var buf bytes.Buffer
		if err := Write(&buf, 'T', parts...); err != nil {
			t.Fatal(err)
		}
		payload := bytes.Join(parts, nil)
		if want := Append(nil, 'T', payload); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("Write(%q) = %q, want %q", parts, buf.Bytes(), want)
		}
		if kind, got, err := Read(&buf); err != nil || kind != 'T' || !bytes.Equal(got, payload) {
			t.Fatalf("Read back %c %q %v, want T %q", kind, got, err, payload)
		}
	}
}
