// Package sqlwire defines the payloads the distributed SQL layer ships
// between coordinator and workers. Go cannot serialize the closures an RDD
// lineage is made of, so distribution works the way the SQL front end
// already does: the coordinator ships the *session* (table schemas and
// rows, engine configuration knobs, fault-injection schedule) once per
// epoch, and then one tiny QueryTask (SQL text + partition number) per
// task. Each worker rebuilds a deterministic, bit-identical context from
// the spec and plans the query itself; the planner being deterministic is
// what makes partition numbers and shuffle ids line up across processes.
//
// Payloads are JSON: they ride inside CRC-checked frames (so integrity is
// handled a layer down), table rows are pre-encoded with the internal/row
// codec into opaque byte blocks (so JSON never touches row values), and
// encoding/json rejects malformed input without panicking, which is the
// decode-hardening contract this package owes its callers.
package sqlwire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/types"
)

// FieldSpec is one column of a shipped table schema. Type is the SQL type
// name as types.DataType.Name() renders it ("INT", "BIGINT", "DOUBLE",
// "DECIMAL(10,2)", ...).
type FieldSpec struct {
	Name     string `json:"name"`
	Type     string `json:"type"`
	Nullable bool   `json:"nullable"`
}

// TableSpec ships one catalog table: its schema and its rows as
// internal/row encoded blocks. Uncached tables ship one block (the worker
// re-partitions them exactly like the coordinator did, since both run the
// same deterministic split); cached tables ship one block per cached
// partition, preserving the coordinator's partition boundaries so every
// process scans identical partitions.
type TableSpec struct {
	Name       string      `json:"name"`
	Cached     bool        `json:"cached"`
	Fields     []FieldSpec `json:"fields"`
	Partitions [][]byte    `json:"partitions"`
}

// ChaosSpec is the deterministic fault-injection schedule (see
// experiments.ChaosConfig): the coordinator forwards it so workers fail the
// same task attempts an in-process run would.
type ChaosSpec struct {
	Enabled        bool    `json:"enabled"`
	Seed           uint64  `json:"seed"`
	FailureRate    float64 `json:"failureRate"`
	FailedAttempts int     `json:"failedAttempts"`
}

// Afflicted deterministically decides whether the task (name, partition)
// is hit by the failure schedule.
func (c ChaosSpec) Afflicted(name string, partition int) bool {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", c.Seed, name, partition)
	return float64(h.Sum64()%10_000) < c.FailureRate*10_000
}

// Hook returns the rdd failure hook implementing the schedule. Attempts
// beyond FailedAttempts (including speculative backups, which are numbered
// past the attempt budget) succeed, so every injected fault is recoverable.
func (c ChaosSpec) Hook() func(name string, partition, attempt int) error {
	return func(name string, partition, attempt int) error {
		if attempt <= c.FailedAttempts && c.Afflicted(name, partition) {
			return fmt.Errorf("chaos: injected failure of %s[%d] attempt %d", name, partition, attempt)
		}
		return nil
	}
}

// SessionSpec is everything a worker needs to rebuild the coordinator's
// SQL context. Epoch increments whenever the catalog contents change; a
// worker holding an older epoch is re-initialized before the next task.
type SessionSpec struct {
	ID    string `json:"id"`
	Epoch uint64 `json:"epoch"`

	// Config is the coordinator's resolved engine configuration minus its
	// process-local knobs, opaque to this package: plans must come out
	// identical on every process or partition numbering diverges. The
	// worker reads it with DecodeConfig.
	Config json.RawMessage `json:"config"`

	// Retry shaping, so worker-side internal retries are as deterministic
	// as the coordinator's.
	BackoffBaseNS int64  `json:"backoffBaseNS"`
	BackoffMaxNS  int64  `json:"backoffMaxNS"`
	BackoffSeed   uint64 `json:"backoffSeed"`

	Chaos  ChaosSpec   `json:"chaos"`
	Tables []TableSpec `json:"tables"`
}

// QueryTask asks a worker to execute one partition of one query. The
// worker plans SQL itself; PlanHash is the coordinator's normalized
// physical-plan fingerprint and NumPartitions its partition count, and a
// worker whose own plan disagrees on either must refuse the task
// (fallback) rather than return rows from a different plan — mixing
// partitions of two different plans in one result would be silently
// wrong, while falling back is merely slower.
type QueryTask struct {
	SessionID     string `json:"sessionID"`
	Epoch         uint64 `json:"epoch"`
	SQL           string `json:"sql"`
	Partition     int    `json:"partition"`
	NumPartitions int    `json:"numPartitions"`
	PlanHash      uint64 `json:"planHash"`
	// Decisions is the coordinator's adaptive decision list, a JSON
	// []physical.Decision addressing nodes by post-order ordinal in the
	// static plan: the worker replans SQL statically (adaptation off) and
	// replays it, decoded with DecodeConfig, so both processes execute the
	// identical adapted plan without the worker re-materializing stages. A
	// list that fails to decode or to apply refuses the task. Empty =
	// static plan.
	Decisions json.RawMessage `json:"decisions,omitempty"`
	// TraceID propagates the coordinator's query/trace id (Dapper-style):
	// when set, the worker tags every span it emits for this task with it
	// and returns those spans, plus a bounded counter snapshot, in its
	// TaskReply. Empty = observability off: the reply carries rows only.
	TraceID string `json:"traceID,omitempty"`
	// ParentSpan is the id of the coordinator-side dispatch span this task
	// executes under, so merged worker spans parent correctly.
	ParentSpan string `json:"parentSpan,omitempty"`
}

// UninitializedMarker appears in the retryable error a worker returns for
// a query task naming a session (or epoch) it does not hold — the one
// legal reason after a worker respawn, since a fresh process under an old
// id has empty state. The coordinator-side runtime matches on it to clear
// its init cache so the retry re-ships the session first.
const UninitializedMarker = "uninitialized session"

// EncodeSession marshals a session spec.
func EncodeSession(s *SessionSpec) ([]byte, error) { return json.Marshal(s) }

// DecodeSession unmarshals a session spec, rejecting trailing garbage.
func DecodeSession(b []byte) (*SessionSpec, error) {
	var s SessionSpec
	if err := strictUnmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("sqlwire: session spec: %w", err)
	}
	return &s, nil
}

// DecodeConfig strictly unmarshals a session's Config (or a task's
// decision list) over v, leaving the fields it does not carry as v had them.
func DecodeConfig(raw json.RawMessage, v any) error { return strictUnmarshal(raw, v) }

// EncodeQuery marshals a query task.
func EncodeQuery(q *QueryTask) ([]byte, error) { return json.Marshal(q) }

// DecodeQuery unmarshals a query task, rejecting trailing garbage.
func DecodeQuery(b []byte) (*QueryTask, error) {
	var q QueryTask
	if err := strictUnmarshal(b, &q); err != nil {
		return nil, fmt.Errorf("sqlwire: query task: %w", err)
	}
	return &q, nil
}

// TaskReply is the result of one query task: the row block the worker
// computed and, when the QueryTask carried a TraceID, the spans its
// execution emitted (tagged with that id) and a bounded snapshot of its
// metrics counters, piggybacked so the coordinator merges worker-side
// observability without extra round trips.
type TaskReply struct {
	Worker   string          `json:"worker"`
	Rows     []byte          `json:"-"` // framed raw, not JSON — see EncodeTaskReply
	Spans    []metrics.Span  `json:"spans,omitempty"`
	Counters []CounterSample `json:"counters,omitempty"`
}

// CounterSample is one harvested counter: an absolute value, not a delta —
// the coordinator keeps the latest sample per (worker, name), so concurrent
// tasks from one worker never double-count.
type CounterSample struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// ObsRequest asks a worker for a full observability snapshot — the
// federation pull. Pattern filters metric names (metrics.MatchGlob
// semantics; "" = all); MaxSpans bounds the trace snapshot (0 = none, so
// periodic harvests can skip spans that already piggybacked on replies).
type ObsRequest struct {
	Pattern  string `json:"pattern,omitempty"`
	MaxSpans int    `json:"maxSpans,omitempty"`
}

// ObsReply is a worker's observability snapshot: every counter and gauge in
// its registry (histograms ship their expfmt pseudo-series) plus up to
// MaxSpans recent spans.
type ObsReply struct {
	Worker   string          `json:"worker"`
	Counters []CounterSample `json:"counters,omitempty"`
	Spans    []metrics.Span  `json:"spans,omitempty"`
}

// rowsKind is the frame kind of a task reply's row block.
const rowsKind byte = 'R'

// EncodeTaskReply marshals a task reply as one frame holding the raw row
// block, then the JSON observability trailer. The row block stays raw
// bytes — running it through JSON would base64-inflate the result payload
// by a third, which is exactly the kind of observability tax the ≤5%
// overhead gate exists to forbid.
func EncodeTaskReply(r *TaskReply) ([]byte, error) {
	meta, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	out := frame.Append(make([]byte, 0, frame.HeaderSize+len(r.Rows)+len(meta)), rowsKind, r.Rows)
	return append(out, meta...), nil
}

// DecodeTaskReply is the inverse of EncodeTaskReply, rejecting trailing
// garbage after the JSON trailer.
func DecodeTaskReply(b []byte) (*TaskReply, error) {
	kind, rows, meta, err := frame.Next(b)
	if err == nil && kind != rowsKind {
		err = fmt.Errorf("frame kind %d, want %d", kind, rowsKind)
	}
	if err != nil {
		return nil, fmt.Errorf("sqlwire: task reply: row block: %w", err)
	}
	var r TaskReply
	if err := strictUnmarshal(meta, &r); err != nil {
		return nil, fmt.Errorf("sqlwire: task reply: %w", err)
	}
	if len(rows) > 0 {
		r.Rows = rows
	}
	return &r, nil
}

// EncodeObsRequest marshals an observability fetch request.
func EncodeObsRequest(r *ObsRequest) ([]byte, error) { return json.Marshal(r) }

// DecodeObsRequest unmarshals an observability fetch request.
func DecodeObsRequest(b []byte) (*ObsRequest, error) {
	var r ObsRequest
	if err := strictUnmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("sqlwire: obs request: %w", err)
	}
	return &r, nil
}

// EncodeObsReply marshals an observability snapshot.
func EncodeObsReply(r *ObsReply) ([]byte, error) { return json.Marshal(r) }

// DecodeObsReply unmarshals an observability snapshot.
func DecodeObsReply(b []byte) (*ObsReply, error) {
	var r ObsReply
	if err := strictUnmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("sqlwire: obs reply: %w", err)
	}
	return &r, nil
}

func strictUnmarshal(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after payload")
	}
	return nil
}

// TypeName renders a data type for a FieldSpec, returning false for types
// the wire format cannot ship (arrays, structs, UDTs); a table with any
// unshippable column simply stays coordinator-local.
func TypeName(t types.DataType) (string, bool) {
	switch t {
	case nil:
		return "", false
	case types.Null, types.Boolean, types.Int, types.Long, types.Float,
		types.Double, types.String, types.Binary, types.Date, types.Timestamp:
		return t.Name(), true
	}
	if _, ok := t.(types.DecimalType); ok {
		return t.Name(), true
	}
	return "", false
}

// TypeFromName is the inverse of TypeName: every type a name parses to ships.
func TypeFromName(name string) (types.DataType, error) {
	t, ok := types.ParseName(name)
	if !ok {
		return nil, fmt.Errorf("sqlwire: unsupported type name %q", name)
	}
	return t, nil
}

// Schema converts shipped field specs back into a schema.
func Schema(fields []FieldSpec) (types.StructType, error) {
	out := make([]types.StructField, len(fields))
	for i, f := range fields {
		t, err := TypeFromName(f.Type)
		if err != nil {
			return types.StructType{}, err
		}
		out[i] = types.StructField{Name: f.Name, Type: t, Nullable: f.Nullable}
	}
	return types.NewStruct(out...), nil
}

// Fields converts a schema into shippable field specs; ok is false when
// any column's type cannot be shipped.
func Fields(schema types.StructType) ([]FieldSpec, bool) {
	out := make([]FieldSpec, len(schema.Fields))
	for i, f := range schema.Fields {
		name, ok := TypeName(f.Type)
		if !ok {
			return nil, false
		}
		out[i] = FieldSpec{Name: f.Name, Type: name, Nullable: f.Nullable}
	}
	return out, true
}
