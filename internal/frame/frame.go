// Package frame is the one record format for bytes that cross a process or
// disk boundary: cluster wire messages and the durable file system's mirrored
// blocks are cut by it. A frame is
//
//	[kind u8][len u32][crc32 u32][payload]
//
// with both integers big-endian. The CRC (IEEE) covers kind, length and
// payload, so a flipped bit anywhere in a frame, its kind included, is
// caught here instead of being decoded into something else.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderSize is the bytes a frame adds ahead of its payload.
const HeaderSize = 9

// MaxSize bounds the payload Read accepts and Write sends, so a corrupt or
// hostile length claim on a stream cannot make the receiver allocate
// unboundedly. A byte slice needs no bound: Next checks the claim against
// the bytes present.
const MaxSize = 64 << 20

var (
	// ErrTorn reports bytes that end before the frame they start does — the
	// residue of a crash mid-append.
	ErrTorn = errors.New("frame: torn")
	// ErrCorrupt reports a whole frame whose checksum does not match.
	ErrCorrupt = errors.New("frame: checksum mismatch")
	// ErrTooLarge reports a payload past MaxSize.
	ErrTooLarge = errors.New("frame: exceeds size limit")
)

func checksum(head, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, payload)
}

// Append appends one frame to dst whose payload (under 4 GiB) is the
// concatenation of parts, each copied once and checksummed once.
func Append(dst []byte, kind byte, parts ...[]byte) []byte {
	start, n := len(dst), 0
	for _, p := range parts {
		n += len(p)
	}
	dst = append(dst, kind, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(dst[start+1:], uint32(n))
	crc := crc32.ChecksumIEEE(dst[start : start+5])
	for _, p := range parts {
		crc = crc32.Update(crc, crc32.IEEETable, p)
		dst = append(dst, p...)
	}
	binary.BigEndian.PutUint32(dst[start+5:], crc)
	return dst
}

// Next cuts the frame at the head of b, returning its kind, its payload
// (aliasing b) and the bytes after it. Bytes that end before the frame does
// are ErrTorn; a whole frame that fails its checksum is ErrCorrupt.
func Next(b []byte) (kind byte, payload, rest []byte, err error) {
	if len(b) < HeaderSize {
		return 0, nil, b, ErrTorn
	}
	n := binary.BigEndian.Uint32(b[1:5])
	if uint64(len(b)-HeaderSize) < uint64(n) {
		return 0, nil, b, ErrTorn
	}
	end := HeaderSize + int(n)
	if checksum(b[:5], b[HeaderSize:end]) != binary.BigEndian.Uint32(b[5:9]) {
		return 0, nil, b, ErrCorrupt
	}
	return b[0], b[HeaderSize:end:end], b[end:], nil
}

// Read reads one frame from a stream. A stream that ends early returns its
// io error; a length past MaxSize returns ErrTooLarge before any payload is
// allocated; a checksum mismatch returns ErrCorrupt.
func Read(r io.Reader) (kind byte, payload []byte, err error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:5])
	if n > MaxSize {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	if checksum(hdr[:5], payload) != binary.BigEndian.Uint32(hdr[5:9]) {
		return 0, nil, ErrCorrupt
	}
	return hdr[0], payload, nil
}

// Write sends one frame in a single Write call, so writers serialized by a
// mutex never interleave partial frames. Its payload is the concatenation of
// parts (Append): a message that wraps a body it was handed (a task result
// around its reply) passes its own head and the body, not a copy of both.
func Write(w io.Writer, kind byte, parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > MaxSize {
		return ErrTooLarge
	}
	_, err := w.Write(Append(make([]byte, 0, HeaderSize+n), kind, parts...))
	return err
}
