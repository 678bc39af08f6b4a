package core

// Query-level observability: trace-id allocation, event-log recording, and
// the trace-derived per-stage / per-worker actuals that feed both the event
// log and EXPLAIN ANALYZE's cluster section.

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/rdd"
)

// newTraceID allocates a query trace id, or "" with observability off —
// the empty id tags no span and asks workers for no spans or counters.
func (e *Engine) newTraceID() string {
	if !e.Cfg.Observability {
		return ""
	}
	return fmt.Sprintf("q-%d-%d", os.Getpid(), e.traceSeq.Add(1))
}

// beginQuery opens the observability scope of one action: it allocates the
// trace id and threads it through the job context so every span the action
// emits (local or, via the cluster runtime, remote) correlates.
func (e *Engine) beginQuery(jc context.Context) (context.Context, string) {
	tid := e.newTraceID()
	if tid == "" {
		return jc, ""
	}
	return rdd.WithTraceContext(jc, tid, "", nil), tid
}

// SetSQL records the SQL text this execution was parsed from, for the
// event log.
func (q *QueryExecution) SetSQL(sql string) { q.SQLText = sql }

// finishEvent appends one event-log entry for a completed action. No-op
// when observability is off (tid == "").
func (q *QueryExecution) finishEvent(tid, action string, start time.Time, rows int64, err error) {
	if tid == "" {
		return
	}
	e := q.engine
	reg := e.RDDCtx.Metrics()
	p := q.executedPlan()
	text := p.String()
	ev := QueryEvent{
		ID:          tid,
		SQL:         q.SQLText,
		Action:      action,
		PlanHash:    fmt.Sprintf("%016x", q.planHash(p, func() string { return text })),
		Plan:        text,
		Decisions:   decisionNotes(q),
		StartUnixMS: start.UnixMilli(),
		Millis:      float64(time.Since(start).Microseconds()) / 1e3,
		Rows:        rows,
		Spills:      reg.Counter("memory.spill.count").Load(),
		Fallbacks:   reg.Counter("cluster.fallback").Load(),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	spans := e.RDDCtx.Trace().TraceSpans(tid)
	ev.Stages = stageActuals(spans)
	ev.Workers = workerActuals(spans)
	e.Events.Record(ev)
}

// decisionNotes renders the AQE decision list the way EXPLAIN ANALYZE
// annotates it ("adapted: ..." notes).
func decisionNotes(q *QueryExecution) []string {
	if len(q.Decisions) == 0 {
		return nil
	}
	out := make([]string, len(q.Decisions))
	for i, d := range q.Decisions {
		if d.Note != "" {
			out[i] = d.Note
		} else {
			out[i] = d.Kind
		}
	}
	return out
}

// stageActuals lifts per-stage observed rows/time from stage spans.
func stageActuals(spans []metrics.Span) []StageActual {
	var out []StageActual
	for _, s := range spans {
		if s.Kind != metrics.SpanStage {
			continue
		}
		out = append(out, StageActual{
			Name:   s.Name,
			Tasks:  s.Tasks,
			Rows:   s.Records,
			Millis: float64(s.DurNS) / 1e6,
			Err:    s.Err,
		})
	}
	return out
}

// workerActuals aggregates task spans per executing worker, sorted by
// worker id. Coordinator-side dispatch spans (the ".remote" wrappers) are
// skipped when the worker's own span for the same work is present —
// worker-origin spans carry the true compute time; dispatch spans measure
// compute plus round trip. Worker "" is locally computed work.
func workerActuals(spans []metrics.Span) []WorkerActual {
	type agg struct {
		tasks int
		rows  int64
		bytes int64
		durNS int64
	}
	// Which (worker, partition) pairs have a worker-origin task span?
	origin := make(map[string]bool)
	for _, s := range spans {
		if s.Kind == metrics.SpanTask && s.Worker != "" && !isDispatchSpan(s.Name) {
			origin[fmt.Sprintf("%s/%d", s.Worker, s.Partition)] = true
		}
	}
	byWorker := make(map[string]*agg)
	for _, s := range spans {
		if s.Kind != metrics.SpanTask {
			continue
		}
		if isDispatchSpan(s.Name) && s.Worker != "" && origin[fmt.Sprintf("%s/%d", s.Worker, s.Partition)] {
			continue // counted from the worker's own span
		}
		a := byWorker[s.Worker]
		if a == nil {
			a = &agg{}
			byWorker[s.Worker] = a
		}
		a.tasks++
		a.rows += s.Records
		a.bytes += s.Bytes
		a.durNS += s.DurNS
	}
	ids := make([]string, 0, len(byWorker))
	for id := range byWorker {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]WorkerActual, len(ids))
	for i, id := range ids {
		a := byWorker[id]
		out[i] = WorkerActual{
			Worker: id,
			Tasks:  a.tasks,
			Rows:   a.rows,
			Bytes:  a.bytes,
			Millis: float64(a.durNS) / 1e6,
		}
	}
	return out
}

// isDispatchSpan reports whether a task-span name is the coordinator-side
// RemoteOrLocal wrapper rather than worker-origin compute.
func isDispatchSpan(name string) bool {
	return len(name) > 7 && name[len(name)-7:] == ".remote"
}
