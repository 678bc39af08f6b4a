package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness from
// outside the engine. Times are nanoseconds since the tracer started; Op
// is the operation the span belongs to (0 = a probe outside the loop).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so operations are written once for both passes.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span opened by the matching begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanStat summarizes every span of one name.
type spanStat struct {
	Count    int     `json:"count"`
	MedianUS float64 `json:"median_us"`
	SelfMS   float64 `json:"self_ms_total"`
}

func summarize(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	out := map[string]spanStat{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
		st := out[s.Name]
		st.Count++
		st.SelfMS += float64(self[s.ID]) / 1e6
		out[s.Name] = st
	}
	for name, st := range out {
		st.MedianUS = median(durs[name])
		out[name] = st
	}
	return out
}

// perOp sums, per operation, the durations of the spans with the given
// name, and returns the median of those sums in microseconds: an operation
// made of several statements is charged the layer once per statement.
func perOp(spans []span, name string) float64 {
	sums := map[int]float64{}
	for _, s := range spans {
		if s.Name == name && s.Op > 0 {
			sums[s.Op] += float64(s.End-s.Start) / 1e3
		}
	}
	v := make([]float64, 0, len(sums))
	for _, x := range sums {
		v = append(v, x)
	}
	return median(v)
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
