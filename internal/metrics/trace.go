package metrics

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SpanKind classifies trace spans.
type SpanKind string

const (
	SpanJob     SpanKind = "job"     // one action (collect/count) over an RDD lineage
	SpanStage   SpanKind = "stage"   // the fan-out of all partitions of one RDD
	SpanTask    SpanKind = "task"    // one attempt at one partition
	SpanShuffle SpanKind = "shuffle" // the map side of one shuffle exchange
	SpanQuery   SpanKind = "query"   // one SQL statement end to end
	SpanWAL     SpanKind = "wal"     // a table-store WAL commit, checkpoint or recovery
)

// Span is one structured trace event — the unit of the JSONL event log,
// mirroring the per-task and per-stage records of the Spark event log that
// feed its web UI.
type Span struct {
	Kind      SpanKind `json:"kind"`
	Name      string   `json:"name"`
	Job       int64    `json:"job,omitempty"`
	Partition int      `json:"partition,omitempty"`
	// Attempt and Speculative share a word, which is what leaves room for
	// Tasks: the ring holds DefaultTraceCapacity of them, so a span must not
	// grow.
	Attempt     int32  `json:"attempt,omitempty"`
	Speculative bool   `json:"speculative,omitempty"`
	Worker      string `json:"worker,omitempty"` // remote worker id; "" = local
	// Trace is the query/trace id propagated Dapper-style across process
	// boundaries: every span of one distributed query — coordinator- and
	// worker-side — carries the same id. Parent is the id of the
	// coordinator-side dispatch span a remote span executed under; "" for
	// spans that originated in this process.
	Trace    string `json:"trace,omitempty"`
	Parent   string `json:"parent,omitempty"`
	Start    int64  `json:"start_us"`            // microseconds since process-start reference (origin process's clock for merged spans)
	QueuedNS int64  `json:"queued_ns,omitempty"` // time waiting for an executor slot
	DurNS    int64  `json:"dur_ns"`
	Tasks    int    `json:"tasks,omitempty"` // stage spans: partitions the stage ran, one task each
	Records  int64  `json:"records,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	Err      string `json:"err,omitempty"`
}

// traceEpoch anchors Span.Start so timestamps are monotonic within a
// process without embedding wall-clock times in every span.
var traceEpoch = time.Now()

// Since returns the span timestamp (microseconds since the trace epoch) for
// a start time captured with time.Now().
func Since(start time.Time) int64 { return start.Sub(traceEpoch).Microseconds() }

// TraceBuffer is a fixed-capacity ring of recent spans. Appends are
// mutex-guarded but O(1) with no allocation once the ring is warm, which is
// cheap relative to the per-partition work each span represents (spans are
// per task/stage, never per row).
type TraceBuffer struct {
	mu      sync.Mutex
	buf     []Span
	next    int      // ring cursor
	total   int64    // spans ever appended (>= len(buf) once wrapped)
	dropped *Counter // incremented when the ring overwrites an unexported span
}

// DefaultTraceCapacity bounds the in-memory event log; at ~200 bytes a span
// this caps the buffer near 1 MB.
const DefaultTraceCapacity = 4096

// NewTraceBuffer builds a ring holding up to capacity spans (the default
// when capacity <= 0).
func NewTraceBuffer(capacity int) *TraceBuffer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceBuffer{buf: make([]Span, 0, capacity)}
}

// SetDropCounter registers a counter incremented each time Append evicts a
// retained span, making ring truncation observable (`trace.dropped`).
// Nil-safe on both sides.
func (t *TraceBuffer) SetDropCounter(c *Counter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.dropped = c
	t.mu.Unlock()
}

// Append records a span, evicting the oldest when full. Nil-safe.
func (t *TraceBuffer) Append(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, s)
	} else {
		t.buf[t.next] = s
		t.next = (t.next + 1) % len(t.buf)
		t.dropped.Add(1)
	}
	t.total++
	t.mu.Unlock()
}

// Len returns the number of retained spans. Nil-safe.
func (t *TraceBuffer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Total returns the number of spans ever appended, including evicted ones.
// Nil-safe.
func (t *TraceBuffer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Snapshot returns the retained spans oldest-first. Nil-safe (nil slice).
func (t *TraceBuffer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// TraceSpans returns the retained spans of one trace id oldest-first, copying
// only those, among the spans appended since Total() read since: a trace's
// spans all come after it began, so its owner scans those alone, not the whole
// ring (since 0 scans every retained span). Nil-safe; an id with no such span
// returns nil.
func (t *TraceBuffer) TraceSpans(id string, since int64) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for i := len(t.buf) - int(min(max(t.total-since, 0), int64(len(t.buf)))); i < len(t.buf); i++ {
		if s := &t.buf[(t.next+i)%len(t.buf)]; s.Trace == id {
			out = append(out, *s)
		}
	}
	return out
}

// ExportJSONL writes the retained spans oldest-first as one JSON object per
// line — the event-log file format. Nil-safe (writes nothing).
func (t *TraceBuffer) ExportJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
