package rdd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func spansByKind(spans []metrics.Span) map[metrics.SpanKind][]metrics.Span {
	out := map[metrics.SpanKind][]metrics.Span{}
	for _, s := range spans {
		out[s.Kind] = append(out[s.Kind], s)
	}
	return out
}

// A simple collect emits one job span, one stage span, and one task span
// per partition — and the record counts agree at every level: each task
// reports its partition's rows, the stage and job report the total.
func TestTraceSpansForCollect(t *testing.T) {
	ctx := NewContext(2)
	r := Parallelize(ctx, intsUpTo(100), 4)
	out, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("collect returned %d rows", len(out))
	}

	byKind := spansByKind(ctx.Trace().Snapshot())
	if n := len(byKind[metrics.SpanJob]); n != 1 {
		t.Fatalf("want 1 job span, got %d", n)
	}
	job := byKind[metrics.SpanJob][0]
	if job.Records != 100 || !strings.HasPrefix(job.Name, "collect:") {
		t.Fatalf("job span = %+v", job)
	}
	if n := len(byKind[metrics.SpanStage]); n != 1 {
		t.Fatalf("want 1 stage span, got %d", n)
	}
	stage := byKind[metrics.SpanStage][0]
	if stage.Records != 100 || stage.Job != job.Job || stage.Tasks != 4 {
		t.Fatalf("stage span = %+v", stage)
	}
	// Four partitions on two workers: two of them waited for a worker. With a
	// worker each, nothing queues.
	if stage.QueuedNS <= 0 {
		t.Fatalf("4 partitions on 2 workers queued for %d ns, want > 0", stage.QueuedNS)
	}
	ctx.SetTracing(false)
	ctx.SetTracing(true) // an empty buffer
	if _, err := Parallelize(ctx, intsUpTo(100), 2).Collect(); err != nil {
		t.Fatal(err)
	}
	if unqueued := spansByKind(ctx.Trace().Snapshot())[metrics.SpanStage][0]; unqueued.QueuedNS != 0 || unqueued.Tasks != 2 {
		t.Fatalf("2 partitions on 2 workers: stage span = %+v, want no queueing", unqueued)
	}
	tasks := byKind[metrics.SpanTask]
	if len(tasks) != 4 {
		t.Fatalf("want 4 task spans, got %d", len(tasks))
	}
	var taskRecords int64
	seen := map[int]bool{}
	for _, task := range tasks {
		if task.Job != job.Job {
			t.Fatalf("task span outside the job: %+v", task)
		}
		if task.Speculative {
			t.Fatalf("unexpected speculative task: %+v", task)
		}
		taskRecords += task.Records
		seen[task.Partition] = true
	}
	if taskRecords != 100 || len(seen) != 4 {
		t.Fatalf("task spans cover %d records over %d partitions", taskRecords, len(seen))
	}
}

// A shuffle job (ReduceByKey) nests its map-side stage under the same job
// id as the reduce side, and emits a shuffle span carrying the map-side
// record count — so the trace reads as one job, not two.
func TestTraceSpansForShuffle(t *testing.T) {
	ctx := NewContext(4)
	var pairs []Pair[int, int]
	for i := 0; i < 60; i++ {
		pairs = append(pairs, Pair[int, int]{Key: i % 6, Value: 1})
	}
	r := Parallelize(ctx, pairs, 5)
	reduced, err := ReduceByKey(r, func(a, b int) int { return a + b }, 3).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(reduced) != 6 {
		t.Fatalf("got %d keys", len(reduced))
	}

	byKind := spansByKind(ctx.Trace().Snapshot())
	if n := len(byKind[metrics.SpanJob]); n != 1 {
		t.Fatalf("want exactly 1 job span for the whole shuffle job, got %d", n)
	}
	job := byKind[metrics.SpanJob][0]
	shuffles := byKind[metrics.SpanShuffle]
	if len(shuffles) != 1 {
		t.Fatalf("want 1 shuffle span, got %d", len(shuffles))
	}
	// Map-side combining folds each partition's 12 pairs down to its 6
	// distinct keys before the exchange: 5 partitions × 6 keys = 30 records.
	// Bytes stays 0 for pairs of plain ints — size sampling only engages for
	// ObjectSize-carrying rows.
	if sh := shuffles[0]; sh.Records != 30 || sh.Job != job.Job {
		t.Fatalf("shuffle span = %+v", sh)
	}
	// Map side (5 partitions) and reduce side (3 partitions) both ran as
	// stages of the same job.
	if n := len(byKind[metrics.SpanStage]); n != 2 {
		t.Fatalf("want 2 stage spans, got %d", n)
	}
	for _, st := range byKind[metrics.SpanStage] {
		if st.Job != job.Job {
			t.Fatalf("stage span outside the job: %+v", st)
		}
	}
	// Task spans are per lineage level: parallelize (5) feeds the map-side
	// combine (5), whose shuffle output is read by 3 reduce partitions that
	// each run the exchange read plus the final merge — 5+5+3+3 = 16.
	perLevel := map[string]int{}
	for _, task := range byKind[metrics.SpanTask] {
		perLevel[task.Name]++
	}
	want := map[string]int{
		"parallelize":                                     5,
		"parallelize.mapPartitions":                       5,
		"parallelize.mapPartitions.shuffle":               3,
		"parallelize.mapPartitions.shuffle.mapPartitions": 3,
	}
	for name, n := range want {
		if perLevel[name] != n {
			t.Fatalf("want %d task spans for %q, got %d (all: %v)", n, name, perLevel[name], perLevel)
		}
	}
}

// Failed attempts leave error-annotated task spans behind, so the trace
// shows the retry history that the JobError summarizes.
func TestTraceSpansRecordFailures(t *testing.T) {
	ctx := NewContext(1)
	ctx.SetBackoff(0, 0)
	r := Map(Parallelize(ctx, intsUpTo(4), 1), func(int) int {
		panic("always fails")
	})
	_, err := r.Collect()
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want JobError, got %v", err)
	}

	var failed int
	for _, s := range ctx.Trace().Snapshot() {
		if s.Kind == metrics.SpanTask && s.Err != "" {
			failed++
			if !strings.Contains(s.Err, "always fails") {
				t.Fatalf("task span error = %q", s.Err)
			}
		}
	}
	if failed != je.Attempts {
		t.Fatalf("want %d failed task spans, got %d", je.Attempts, failed)
	}
}

// SetTracing(false) turns the buffer off (nil, nothing recorded, no
// crashes); re-enabling starts from an empty buffer.
func TestSetTracingToggle(t *testing.T) {
	ctx := NewContext(2)
	ctx.SetTracing(false)
	if ctx.Trace() != nil {
		t.Fatal("tracing still on after SetTracing(false)")
	}
	if _, err := Parallelize(ctx, intsUpTo(10), 2).Collect(); err != nil {
		t.Fatal(err)
	}
	ctx.SetTracing(true)
	if got := ctx.Trace().Len(); got != 0 {
		t.Fatalf("re-enabled trace buffer not empty: %d spans", got)
	}
	if _, err := Parallelize(ctx, intsUpTo(10), 2).Collect(); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Trace().Len(); got == 0 {
		t.Fatal("no spans recorded after re-enabling tracing")
	}
}

// The exported JSONL event log round-trips: one JSON object per line whose
// kinds and record counts match the in-memory snapshot.
func TestTraceExportJSONL(t *testing.T) {
	ctx := NewContext(2)
	if _, err := Parallelize(ctx, intsUpTo(30), 3).Collect(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ctx.Trace().ExportJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := ctx.Trace().Snapshot()
	var got []metrics.Span
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var s metrics.Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		got = append(got, s)
	}
	if len(got) != len(want) {
		t.Fatalf("JSONL has %d spans, snapshot has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Kind != want[i].Kind || got[i].Records != want[i].Records {
			t.Fatalf("span %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
	}
}
