package rdd

import (
	"context"

	"repro/internal/metrics"
)

// Distributed trace context. A coordinator opens one trace per query and
// threads its id through job contexts; worker processes executing shipped
// partitions install the same id (plus the dispatching span's id as parent)
// so every span of one distributed query — on any process — carries the
// same trace id, Dapper-style. The optional sink captures the spans a
// single task emitted so the worker can ship them back piggybacked on the
// task reply.

// traceCtx is the value carried through job contexts.
type traceCtx struct {
	id     string
	parent string
	sink   *metrics.TraceBuffer // bounded per-task capture; nil = none
}

type traceCtxKey struct{}

// WithTraceContext tags jc with a trace id, a parent span id, and an
// optional bounded sink that additionally captures every span emitted under
// jc. Empty id and parent leave spans untagged; a nil sink disables capture.
func WithTraceContext(jc context.Context, id, parent string, sink *metrics.TraceBuffer) context.Context {
	if jc == nil {
		jc = context.Background()
	}
	return context.WithValue(jc, traceCtxKey{}, traceCtx{id: id, parent: parent, sink: sink})
}

func traceFrom(jc context.Context) (traceCtx, bool) {
	if jc == nil {
		return traceCtx{}, false
	}
	tc, ok := jc.Value(traceCtxKey{}).(traceCtx)
	return tc, ok
}

// TraceID is the trace id jc carries, "" for none.
func TraceID(jc context.Context) string {
	tc, _ := traceFrom(jc)
	return tc.id
}

// traceSink returns the capture sink installed on jc, if any — used by span
// emission sites to decide whether building a span is worthwhile even when
// the context-wide trace buffer is disabled.
func traceSink(jc context.Context) *metrics.TraceBuffer {
	tc, _ := traceFrom(jc)
	return tc.sink
}

// emitSpan decorates s with the job context's trace id and parent span (when
// present and not already set) and appends it to the context trace buffer
// and the per-task capture sink. Nil-safe on both destinations.
func (c *Context) emitSpan(jc context.Context, s metrics.Span) {
	tc, ok := traceFrom(jc)
	if ok {
		if s.Trace == "" {
			s.Trace = tc.id
		}
		if s.Parent == "" {
			s.Parent = tc.parent
		}
	}
	c.Trace().Append(s)
	if ok {
		tc.sink.Append(s)
	}
}
