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
// Every message on the wire is one internal/frame frame whose kind is the
// message type below. The frame's CRC covers its type, length and payload,
// so a corrupt frame (bit flips in transit, a half-written block from a
// dying worker) is rejected at the framing layer rather than decoded into
// garbage.
package cluster

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
