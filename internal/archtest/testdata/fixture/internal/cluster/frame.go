// Package cluster promotes the in-process mini-Spark to a real
// coordinator/worker cluster: worker processes register with a coordinator
// over TCP, exchange heartbeats, execute dispatched tasks, and serve
// shuffle blocks to their peers. Failure is a first-class input — a worker
// that dies (connection loss or missed heartbeats) is evicted and every
// task in flight on it fails with a *WorkerLostError, which the rdd
// executor's retry/backoff/lineage-recompute machinery absorbs exactly as
// it absorbs an in-process task failure. With no workers registered the
// engine degrades to local execution.
//
// The wire protocol is length-prefixed binary framing (the same shape the
// row codec's spill blocks use): every frame is
//
//	[1 byte type][4 bytes big-endian payload length][4 bytes CRC32][payload]
//
// The CRC covers the payload, so a corrupt frame (bit flips in transit, a
// half-written block from a dying worker) is detected and rejected at the
// framing layer rather than decoded into garbage.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame types. Worker→coordinator and coordinator→worker frames share one
// numbering; peers' block servers speak the fBlockGet/fBlockData subset.
const (
	fRegister   byte = 1  // worker → coordinator: {id, blockAddr, pid}
	fRegisterOK byte = 2  // coordinator → worker: {assigned id}
	fHeartbeat  byte = 3  // worker → coordinator: {seq}
	fTask       byte = 4  // coordinator → worker: {taskID, kind, payload}
	fTaskResult byte = 5  // worker → coordinator: {taskID, payload}
	fTaskError  byte = 6  // worker → coordinator: {taskID, code, message}
	fCancel     byte = 7  // coordinator → worker: {taskID}
	fAdvertise  byte = 8  // worker → coordinator: {shuffleID}
	fLocate     byte = 9  // worker → coordinator: {reqID, shuffleID}
	fLocated    byte = 10 // coordinator → worker: {reqID, blockAddrs}
	fBlockGet   byte = 11 // peer → worker block server: {key}
	fBlockData  byte = 12 // worker block server → peer: {ok, data|message}
	fGoodbye    byte = 13 // either direction: {reason}, then close
)

// Exported frame-type identifiers so chaos harnesses outside this package
// can target specific traffic classes with SetFrameFaultHook.
const (
	FrameTypeHeartbeat  = fHeartbeat
	FrameTypeTaskResult = fTaskResult
)

// MaxFrameSize bounds a single frame's payload so a corrupt or hostile
// length prefix cannot make the receiver allocate unboundedly.
const MaxFrameSize = 64 << 20

const frameHeaderSize = 9

// ErrFrameTooLarge reports a frame whose declared payload exceeds
// MaxFrameSize.
var ErrFrameTooLarge = errors.New("cluster: frame exceeds size limit")

// ErrFrameCorrupt reports a frame whose payload failed its checksum.
var ErrFrameCorrupt = errors.New("cluster: frame checksum mismatch")

// WriteFrame writes one frame. It performs a single Write call so
// concurrent writers serialized by a mutex never interleave partial
// frames.
func WriteFrame(w io.Writer, frameType byte, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	buf := make([]byte, frameHeaderSize+len(payload))
	buf[0] = frameType
	binary.BigEndian.PutUint32(buf[1:5], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[5:9], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeaderSize:], payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame, validating the length bound and checksum. A
// truncated stream returns an io error; an oversized length returns
// ErrFrameTooLarge before any payload allocation; a checksum mismatch
// returns ErrFrameCorrupt.
func ReadFrame(r io.Reader) (frameType byte, payload []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:5])
	if n > MaxFrameSize {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	sum := binary.BigEndian.Uint32(hdr[5:9])
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, ErrFrameCorrupt
	}
	return hdr[0], payload, nil
}
