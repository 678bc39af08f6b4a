package core

// The query event log — this reproduction's analog of Spark's event log
// and history server. Every completed query action appends one JSON object
// (plan, plan hash, AQE decisions, per-stage actuals, spill/fallback
// counters, per-worker task breakdown) to an append-only JSONL file stored
// via internal/dfs, so event I/O is metered and fault-injectable like spill
// and shuffle traffic. SHOW HISTORY and the SQL server's /history endpoint
// replay it.

import (
	"encoding/json"
	"io"
	"sync"

	"repro/internal/dfs"
)

// StageActual is one stage's observed output, lifted from its trace span.
type StageActual struct {
	Name string `json:"name"`
	// Tasks is how many tasks the stage ran: for a batch leaf cut into runs
	// of small partitions, the run count.
	Tasks  int     `json:"tasks,omitempty"`
	Rows   int64   `json:"rows"`
	Millis float64 `json:"millis"`
	Err    string  `json:"err,omitempty"`
}

// WorkerActual is one worker's contribution to a query: how many task
// spans it reported, and the rows/bytes/time they carried. Worker "" is
// the coordinator process itself (locally computed partitions).
type WorkerActual struct {
	Worker string  `json:"worker"`
	Tasks  int     `json:"tasks"`
	Rows   int64   `json:"rows"`
	Bytes  int64   `json:"bytes"`
	Millis float64 `json:"millis"`
}

// QueryEvent is one event-log entry: a completed query action end to end.
type QueryEvent struct {
	ID          string         `json:"id"` // trace id; also the span correlation key
	SQL         string         `json:"sql,omitempty"`
	Action      string         `json:"action"` // collect | count | explain-analyze
	PlanHash    string         `json:"planHash,omitempty"`
	Plan        string         `json:"plan,omitempty"`
	Decisions   []string       `json:"decisions,omitempty"` // AQE "adapted:" rewrites
	StartUnixMS int64          `json:"startUnixMS"`
	Millis      float64        `json:"millis"`
	Rows        int64          `json:"rows"`
	Err         string         `json:"err,omitempty"`
	Spills      int64          `json:"spills,omitempty"`    // memory.spill.count at completion
	Fallbacks   int64          `json:"fallbacks,omitempty"` // cluster.fallback at completion
	Stages      []StageActual  `json:"stages,omitempty"`
	Workers     []WorkerActual `json:"workers,omitempty"`
}

// eventLogPath is the JSONL file inside the event log's DFS namespace.
const eventLogPath = "events/queries.jsonl"

// EventLog is the append-only query history. It owns a private DFS (events
// must survive spill-file cleanup, which deletes aggressively by prefix on
// the engine's SpillFS) and appends one block per event — blocks are the
// DFS append unit, and one block per JSON line is exactly the JSONL framing
// the history endpoints serve.
type EventLog struct {
	mu sync.Mutex
	fs *dfs.FileSystem
}

// NewEventLog builds an empty event log.
func NewEventLog() *EventLog {
	return &EventLog{fs: dfs.New()}
}

// FS exposes the underlying DFS for fault-injection tests.
func (l *EventLog) FS() *dfs.FileSystem {
	if l == nil {
		return nil
	}
	return l.fs
}

// Record appends one event. Nil-safe; append errors (injected DFS faults)
// drop the event rather than failing the query — observability must never
// change query outcomes.
func (l *EventLog) Record(ev QueryEvent) {
	if l == nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fs.AppendBlock(eventLogPath, b)
}

// Events replays the log oldest-first. Blocks that fail to read or decode
// (injected faults, torn writes) are skipped, never corrupting the replay.
func (l *EventLog) Events() []QueryEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n, err := l.fs.NumBlocks(eventLogPath)
	if err != nil {
		return nil
	}
	out := make([]QueryEvent, 0, n)
	for i := 0; i < n; i++ {
		blk, err := l.fs.ReadBlock(eventLogPath, i)
		if err != nil {
			continue
		}
		var ev QueryEvent
		if err := json.Unmarshal(blk, &ev); err != nil {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// Len returns the number of replayable events.
func (l *EventLog) Len() int { return len(l.Events()) }

// WriteJSONL streams the log oldest-first, one strict JSON object per line
// — the format the /history endpoint serves and CI validates.
func (l *EventLog) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range l.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
