package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Message payload encoding: a tiny cursor codec over uvarint-prefixed
// fields, hardened the same way the row codec is — every length is checked
// against the remaining bytes before allocation, so truncated or bit-flipped
// payloads (those that slip past the frame CRC in tests that bypass it)
// return errors instead of panicking or over-allocating.

type enc struct{ b []byte }

func (e *enc) u64(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i64(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) bytes(p []byte) {
	e.u64(uint64(len(p)))
	e.b = append(e.b, p...)
}
func (e *enc) strs(ss []string) {
	e.u64(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

type dec struct {
	b   []byte
	off int
}

func (d *dec) u64() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("cluster: decode: bad uvarint at %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *dec) i64() (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("cluster: decode: bad varint at %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *dec) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

func (d *dec) take(n uint64) ([]byte, error) {
	if n > uint64(len(d.b)-d.off) {
		return nil, fmt.Errorf("cluster: decode: %d bytes claimed, %d remain", n, len(d.b)-d.off)
	}
	s := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return s, nil
}

func (d *dec) str() (string, error) {
	n, err := d.u64()
	if err != nil {
		return "", err
	}
	s, err := d.take(n)
	return string(s), err
}

// bytes returns a payload field as a sub-slice of the message, clipped to
// its length so that an append cannot reach the bytes after it: every
// message is decoded from a frame frame.Read allocated for it alone.
func (d *dec) bytes() ([]byte, error) {
	n, err := d.u64()
	if err != nil {
		return nil, err
	}
	s, err := d.take(n)
	return s[:len(s):len(s)], err
}

func (d *dec) strs() ([]string, error) {
	n, err := d.u64()
	if err != nil {
		return nil, err
	}
	// Each string costs at least one length byte.
	if n > uint64(len(d.b)-d.off) {
		return nil, fmt.Errorf("cluster: decode: %d strings claimed, %d bytes remain", n, len(d.b)-d.off)
	}
	out := make([]string, n)
	for i := range out {
		var err error
		if out[i], err = d.str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (d *dec) done() error {
	if d.off != len(d.b) {
		return fmt.Errorf("cluster: decode: %d trailing bytes", len(d.b)-d.off)
	}
	return nil
}

// --- registration ---

type registerMsg struct {
	ID        string
	BlockAddr string
	PID       int64
}

func encodeRegister(m registerMsg) []byte {
	var e enc
	e.str(m.ID)
	e.str(m.BlockAddr)
	e.i64(m.PID)
	return e.b
}

func decodeRegister(b []byte) (m registerMsg, err error) {
	d := &dec{b: b}
	if m.ID, err = d.str(); err != nil {
		return m, err
	}
	if m.BlockAddr, err = d.str(); err != nil {
		return m, err
	}
	if m.PID, err = d.i64(); err != nil {
		return m, err
	}
	return m, d.done()
}

// --- tasks ---

type taskMsg struct {
	TaskID  uint64
	Kind    string
	Payload []byte
}

func encodeTask(m taskMsg) []byte {
	var e enc
	e.u64(m.TaskID)
	e.str(m.Kind)
	e.bytes(m.Payload)
	return e.b
}

func decodeTask(b []byte) (m taskMsg, err error) {
	d := &dec{b: b}
	if m.TaskID, err = d.u64(); err != nil {
		return m, err
	}
	if m.Kind, err = d.str(); err != nil {
		return m, err
	}
	if m.Payload, err = d.bytes(); err != nil {
		return m, err
	}
	return m, d.done()
}

type taskResultMsg struct {
	TaskID  uint64
	Payload []byte
}

// taskResultHead is a task result's encoding up to its payload of n bytes: a
// worker hands the payload to the frame beside it instead of copying it in.
func taskResultHead(id uint64, n int) []byte {
	var e enc
	e.u64(id)
	e.u64(uint64(n))
	return e.b
}

func decodeTaskResult(b []byte) (m taskResultMsg, err error) {
	d := &dec{b: b}
	if m.TaskID, err = d.u64(); err != nil {
		return m, err
	}
	if m.Payload, err = d.bytes(); err != nil {
		return m, err
	}
	return m, d.done()
}

// Remote task error codes: retryable errors flow through the rdd retry
// loop; fallback errors mean the worker cannot execute this task at all
// (unknown kind, un-plannable query) and the caller should run it locally.
const (
	CodeRetryable byte = 1
	CodeFallback  byte = 2
)

type taskErrorMsg struct {
	TaskID  uint64
	Code    byte
	Message string
}

func encodeTaskError(m taskErrorMsg) []byte {
	var e enc
	e.u64(m.TaskID)
	e.b = append(e.b, m.Code)
	e.str(m.Message)
	return e.b
}

func decodeTaskError(b []byte) (m taskErrorMsg, err error) {
	d := &dec{b: b}
	if m.TaskID, err = d.u64(); err != nil {
		return m, err
	}
	code, err := d.take(1)
	if err != nil {
		return m, err
	}
	m.Code = code[0]
	if m.Message, err = d.str(); err != nil {
		return m, err
	}
	return m, d.done()
}

// --- shuffle block location ---

type locateMsg struct {
	ReqID uint64
	Key   string
}

func encodeLocate(m locateMsg) []byte {
	var e enc
	e.u64(m.ReqID)
	e.str(m.Key)
	return e.b
}

func decodeLocate(b []byte) (m locateMsg, err error) {
	d := &dec{b: b}
	if m.ReqID, err = d.u64(); err != nil {
		return m, err
	}
	if m.Key, err = d.str(); err != nil {
		return m, err
	}
	return m, d.done()
}

type locatedMsg struct {
	ReqID uint64
	Addrs []string
}

func encodeLocated(m locatedMsg) []byte {
	var e enc
	e.u64(m.ReqID)
	e.strs(m.Addrs)
	return e.b
}

func decodeLocated(b []byte) (m locatedMsg, err error) {
	d := &dec{b: b}
	if m.ReqID, err = d.u64(); err != nil {
		return m, err
	}
	if m.Addrs, err = d.strs(); err != nil {
		return m, err
	}
	return m, d.done()
}

// --- block fetch (peer block servers) ---

type blockDataMsg struct {
	OK      bool
	Data    []byte
	Message string
}

func encodeBlockData(m blockDataMsg) []byte {
	var e enc
	if m.OK {
		e.b = append(e.b, 1)
		e.bytes(m.Data)
	} else {
		e.b = append(e.b, 0)
		e.str(m.Message)
	}
	return e.b
}

func decodeBlockData(b []byte) (m blockDataMsg, err error) {
	d := &dec{b: b}
	ok, err := d.take(1)
	if err != nil {
		return m, err
	}
	m.OK = ok[0] == 1
	if m.OK {
		if m.Data, err = d.bytes(); err != nil {
			return m, err
		}
	} else {
		if m.Message, err = d.str(); err != nil {
			return m, err
		}
	}
	return m, d.done()
}

func encodeString(s string) []byte {
	var e enc
	e.str(s)
	return e.b
}

func decodeString(b []byte) (string, error) {
	d := &dec{b: b}
	s, err := d.str()
	if err != nil {
		return "", err
	}
	return s, d.done()
}

func encodeUvarint(v uint64) []byte {
	var e enc
	e.u64(v)
	return e.b
}

func decodeUvarint(b []byte) (uint64, error) {
	d := &dec{b: b}
	v, err := d.u64()
	if err != nil {
		return 0, err
	}
	return v, d.done()
}
