package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/frame"
)

// The wire's framing: every message is one internal/frame frame whose kind
// is the message type, written in one call and read back bounded and
// checksummed.

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 1000)}
	for _, p := range payloads {
		var buf bytes.Buffer
		if err := frame.Write(&buf, fTask, p); err != nil {
			t.Fatalf("write: %v", err)
		}
		ft, got, err := frame.Read(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if ft != fTask {
			t.Fatalf("frame type = %d, want %d", ft, fTask)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("payload mismatch: got %d bytes, want %d", len(got), len(p))
		}
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := frame.Write(&buf, fTask, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		_, _, err := frame.Read(bytes.NewReader(full[:n]))
		if err == nil {
			t.Fatalf("truncated frame at %d bytes decoded without error", n)
		}
	}
}

// TestFrameBitFlips: a flipped bit anywhere in a frame is an error, and in
// the frame type, the checksum or the payload it is a checksum failure — a
// task frame never arrives as a heartbeat.
func TestFrameBitFlips(t *testing.T) {
	var buf bytes.Buffer
	if err := frame.Write(&buf, fTask, []byte("the quick brown fox")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for i := range full {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), full...)
			flipped[i] ^= 1 << bit
			_, _, err := frame.Read(bytes.NewReader(flipped))
			if lengthByte := i >= 1 && i < 5; err == nil || !lengthByte && !errors.Is(err, frame.ErrCorrupt) {
				t.Fatalf("bit flip at byte %d bit %d: err = %v, want ErrCorrupt", i, bit, err)
			}
		}
	}
}

func TestFrameOversizedLength(t *testing.T) {
	hdr := make([]byte, frame.HeaderSize)
	hdr[0] = fTask
	binary.BigEndian.PutUint32(hdr[1:5], frame.MaxSize+1)
	_, _, err := frame.Read(bytes.NewReader(hdr))
	if !errors.Is(err, frame.ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	// The bound must trip before allocation: a claimed 4GB-ish payload on a
	// 9-byte stream must not OOM.
	binary.BigEndian.PutUint32(hdr[1:5], 0xFFFFFFFF)
	_, _, err = frame.Read(bytes.NewReader(hdr))
	if !errors.Is(err, frame.ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	err := frame.Write(io.Discard, fTask, make([]byte, frame.MaxSize+1))
	if !errors.Is(err, frame.ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// FuzzReadFrame drives the wire's inbound path — a frame read off the
// connection, then the message decoder its type selects — with arbitrary
// bytes: no panic, no payload past frame.MaxSize, and a frame that reads
// writes back identically.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	frame.Write(&buf, fTask, encodeTask(taskMsg{TaskID: 7, Kind: "sql.partition", Payload: []byte("p")}))
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{fHeartbeat, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{fTask, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4})
	decoders := map[byte]func([]byte) error{
		fRegister:   func(b []byte) error { _, err := decodeRegister(b); return err },
		fTask:       func(b []byte) error { _, err := decodeTask(b); return err },
		fTaskResult: func(b []byte) error { _, err := decodeTaskResult(b); return err },
		fTaskError:  func(b []byte) error { _, err := decodeTaskError(b); return err },
		fLocate:     func(b []byte) error { _, err := decodeLocate(b); return err },
		fLocated:    func(b []byte) error { _, err := decodeLocated(b); return err },
		fBlockData:  func(b []byte) error { _, err := decodeBlockData(b); return err },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, payload, err := frame.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > frame.MaxSize {
			t.Fatalf("decoded payload of %d bytes exceeds MaxSize", len(payload))
		}
		if decode := decoders[ft]; decode != nil {
			decode(payload)
		}
		var out bytes.Buffer
		if err := frame.Write(&out, ft, payload); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("frame does not write back to the bytes it was read from")
		}
	})
}

// FuzzDecodeMessages asserts every message decoder errors cleanly (no
// panic, no unbounded allocation) on arbitrary bytes.
func FuzzDecodeMessages(f *testing.F) {
	f.Add(encodeRegister(registerMsg{ID: "w1", BlockAddr: "127.0.0.1:9", PID: 42}))
	f.Add(encodeTask(taskMsg{TaskID: 7, Kind: "sql.partition", Payload: []byte("p")}))
	f.Add(append(taskResultHead(7, 1), 'r'))
	f.Add(encodeTaskError(taskErrorMsg{TaskID: 7, Code: CodeRetryable, Message: "boom"}))
	f.Add(encodeLocate(locateMsg{ReqID: 3, Key: "shuffle/1"}))
	f.Add(encodeLocated(locatedMsg{ReqID: 3, Addrs: []string{"a", "b"}}))
	f.Add(encodeBlockData(blockDataMsg{OK: true, Data: []byte("d")}))
	f.Add(encodeBlockData(blockDataMsg{Message: "missing"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeRegister(data)
		decodeTask(data)
		decodeTaskResult(data)
		decodeTaskError(data)
		decodeLocate(data)
		decodeLocated(data)
		decodeBlockData(data)
		decodeString(data)
		decodeUvarint(data)
	})
}

func TestMessageDecodersRejectTruncation(t *testing.T) {
	full := encodeTask(taskMsg{TaskID: 99, Kind: "sql.partition", Payload: bytes.Repeat([]byte("x"), 64)})
	for n := 0; n < len(full); n++ {
		if _, err := decodeTask(full[:n]); err == nil {
			t.Fatalf("truncated task message at %d bytes decoded without error", n)
		}
	}
	// A length claim far beyond the buffer must error, not allocate.
	var e enc
	e.u64(3)
	e.str("k")
	e.u64(1 << 40)
	if _, err := decodeTask(e.b); err == nil || !strings.Contains(err.Error(), "claimed") {
		t.Fatalf("oversized payload claim: err = %v", err)
	}
}

// A decoded payload is the frame's own bytes, not a copy, and is clipped to
// them: appending to it cannot overwrite what follows it in the buffer.
func TestDecodedPayloadAliasesFrame(t *testing.T) {
	for _, c := range []struct {
		msg    []byte
		decode func([]byte) ([]byte, error)
	}{
		{encodeTask(taskMsg{TaskID: 1, Kind: "k", Payload: []byte("task")}), func(b []byte) ([]byte, error) { m, err := decodeTask(b); return m.Payload, err }},
		{append(taskResultHead(1, 6), "result"...), func(b []byte) ([]byte, error) { m, err := decodeTaskResult(b); return m.Payload, err }},
		{encodeBlockData(blockDataMsg{OK: true, Data: []byte("block")}), func(b []byte) ([]byte, error) { m, err := decodeBlockData(b); return m.Data, err }},
	} {
		buf := append(c.msg, "after"...)
		got, err := c.decode(buf[:len(c.msg)])
		if err != nil {
			t.Fatal(err)
		}
		if end := len(c.msg) - len(got); &got[0] != &buf[end] {
			t.Fatalf("payload %q is a copy of the frame's bytes", got)
		}
		if _ = append(got, "XXXXX"...); string(buf[len(c.msg):]) != "after" {
			t.Fatalf("appending to payload %q overwrote the bytes after it: %q", got, buf[len(c.msg):])
		}
	}
}
