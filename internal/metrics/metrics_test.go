package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := r.Counter("a").Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("same name must return the same counter")
	}

	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.SetMax(5)
	if got := g.Load(); got != 7 {
		t.Fatalf("SetMax(5) lowered the gauge to %d", got)
	}
	g.SetMax(42)
	if got := g.Load(); got != 42 {
		t.Fatalf("SetMax(42) = %d, want 42", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Every recording path must be a no-op on nil, not a panic.
	r.Counter("x").Inc()
	r.Gauge("x").SetMax(3)
	r.Histogram("x").Observe(9)
	r.Scoped("p").Counter("y").Add(2)
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot = %v", got)
	}
	var tb *TraceBuffer
	tb.Append(Span{Kind: SpanTask})
	if tb.Len() != 0 || tb.Total() != 0 || tb.Snapshot() != nil {
		t.Fatal("nil trace buffer must be inert")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 1106 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("snapshot = %+v", s)
	}
	if m := s.Mean(); m != 1106.0/5 {
		t.Fatalf("mean = %v", m)
	}
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("q0 = %v, want min", q)
	}
	if q := s.Quantile(1); q != 1000 {
		t.Fatalf("q1 = %v, want max", q)
	}
	if q := s.Quantile(0.5); q < 1 || q > 100 {
		t.Fatalf("median = %v out of plausible range", q)
	}
	// Bucket invariant: every observation v < its bucket's upper bound.
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != s.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, s.Count)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int64]int{-5: 0, 0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 1023: 10, 1024: 11}
	for v, want := range cases {
		if got := bucketOf(v); got != want {
			t.Fatalf("bucketOf(%d) = %d, want %d", v, got, want)
		}
		if v > 0 {
			if bound := int64(1) << bucketOf(v); v >= bound {
				t.Fatalf("value %d not below its bucket bound %d", v, bound)
			}
		}
	}
}

func TestLabels(t *testing.T) {
	if got := Labels("b", "2", "a", "1"); got != "{a=1,b=2}" {
		t.Fatalf("Labels = %q", got)
	}
	if got := Labels(); got != "" {
		t.Fatalf("empty Labels = %q", got)
	}
}

func TestSnapshotSortedAndWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count").Add(3)
	r.Gauge("a.peak").Set(7)
	r.Histogram("m.lat").Observe(10)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"z.count 3\n", "a.peak 7\n", "m.lat_count 1\n", "m.lat_sum 10\n"} {
		if !strings.Contains(text, want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, text)
		}
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines — the
// satellite -race test: concurrent get-or-create on colliding names plus
// concurrent recording and snapshotting must be race-free and lose no
// increments.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared.counter").Inc()
				r.Counter(fmt.Sprintf("per.%d", w%4)).Inc()
				r.Gauge("shared.peak").SetMax(int64(w*iters + i))
				r.Histogram("shared.hist").Observe(int64(i))
				if i%128 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	if got := r.Counter("shared.counter").Load(); got != workers*iters {
		t.Fatalf("shared counter = %d, want %d", got, workers*iters)
	}
	var per int64
	for i := 0; i < 4; i++ {
		per += r.Counter(fmt.Sprintf("per.%d", i)).Load()
	}
	if per != workers*iters {
		t.Fatalf("per-worker counters sum to %d, want %d", per, workers*iters)
	}
	if got := r.Gauge("shared.peak").Load(); got != (workers-1)*iters+iters-1 {
		t.Fatalf("peak gauge = %d, want %d", got, (workers-1)*iters+iters-1)
	}
	h := r.Histogram("shared.hist").Snapshot()
	if h.Count != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count, workers*iters)
	}
	if h.Min != 0 || h.Max != iters-1 {
		t.Fatalf("histogram min/max = %d/%d", h.Min, h.Max)
	}
}

// Every statement's event record copies the whole ring (Snapshot), so eight
// more bytes a span are 32 KB more allocation a statement: a new field has to
// find its room inside the struct.
func TestSpanSizePinned(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned size is the 64-bit layout's")
	}
	if got := unsafe.Sizeof(Span{}); got != 168 {
		t.Fatalf("Span is %d bytes, want 168", got)
	}
}

func TestTraceBufferRingAndJSONL(t *testing.T) {
	tb := NewTraceBuffer(4)
	for i := 0; i < 6; i++ {
		tb.Append(Span{Kind: SpanTask, Name: fmt.Sprintf("s%d", i), Partition: i})
	}
	if tb.Len() != 4 || tb.Total() != 6 {
		t.Fatalf("len=%d total=%d", tb.Len(), tb.Total())
	}
	snap := tb.Snapshot()
	// Oldest two evicted; remaining spans in order s2..s5.
	for i, s := range snap {
		if want := fmt.Sprintf("s%d", i+2); s.Name != want {
			t.Fatalf("snap[%d] = %q, want %q", i, s.Name, want)
		}
	}

	var buf bytes.Buffer
	if err := tb.ExportJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if s.Kind != SpanTask {
			t.Fatalf("kind round-trip = %q", s.Kind)
		}
		lines++
	}
	if lines != 4 {
		t.Fatalf("exported %d lines, want 4", lines)
	}
}

func TestTraceBufferConcurrency(t *testing.T) {
	tb := NewTraceBuffer(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tb.Append(Span{Kind: SpanTask, Partition: i})
				if i%64 == 0 {
					tb.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if tb.Total() != 8*500 {
		t.Fatalf("total = %d, want %d", tb.Total(), 8*500)
	}
	if tb.Len() != 64 {
		t.Fatalf("len = %d, want 64", tb.Len())
	}
}

// TraceSpans copies one trace's spans out of the ring, oldest-first across
// the wrap, scanning only the spans appended since the total it is given, and
// is safe against concurrent appends.
func TestTraceBufferTraceSpans(t *testing.T) {
	tb := NewTraceBuffer(5)
	for i := 0; i < 8; i++ { // wraps: s3..s7 retained, cursor mid-ring
		tb.Append(Span{Trace: fmt.Sprintf("q%d", i%2), Name: fmt.Sprintf("s%d", i)})
	}
	names := func(spans []Span) string {
		var out []string
		for _, s := range spans {
			out = append(out, s.Name)
		}
		return strings.Join(out, ",")
	}
	if got := names(tb.TraceSpans("q1", 0)); got != "s3,s5,s7" {
		t.Fatalf("TraceSpans(q1, 0) = %s, want s3,s5,s7", got)
	}
	// Since a total: only the spans appended after it, across the wrap, and
	// every retained one when more than the ring holds came since.
	for since, want := range map[int64]string{4: "s5,s7", 5: "s5,s7", 6: "s7", 7: "s7", 8: "", 9: "", 2: "s3,s5,s7"} {
		if got := names(tb.TraceSpans("q1", since)); got != want {
			t.Errorf("TraceSpans(q1, %d) = %q, want %q", since, got, want)
		}
	}
	if got := tb.TraceSpans("q9", 0); got != nil {
		t.Fatalf("unknown trace id returned %v", got)
	}
	var nilBuf *TraceBuffer
	if got := nilBuf.TraceSpans("q1", 0); got != nil {
		t.Fatalf("nil buffer returned %v", got)
	}
	// A span appended before the total is never read: not even one that
	// carries the trace's id.
	short := NewTraceBuffer(8)
	short.Append(Span{Trace: "q", Name: "stale"})
	since := short.Total()
	short.Append(Span{Trace: "q", Name: "own"})
	if got := names(short.TraceSpans("q", since)); got != "own" {
		t.Fatalf("TraceSpans(q, %d) = %q, want own", since, got)
	}

	ring := NewTraceBuffer(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			for i := 0; i < 500; i++ {
				ring.Append(Span{Trace: id, Partition: i})
				if i%32 == 0 {
					last := -1
					for _, s := range ring.TraceSpans(id, 0) {
						if s.Trace != id || s.Partition <= last {
							t.Errorf("%s: span %+v out of order or foreign", id, s)
							return
						}
						last = s.Partition
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
