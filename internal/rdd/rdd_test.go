package rdd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metrics"
)

func intsUpTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// collect is a test helper that fails the test on job error.
func collect[T any](t *testing.T, r *RDD[T]) []T {
	t.Helper()
	got, err := r.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return got
}

func count[T any](t *testing.T, r *RDD[T]) int64 {
	t.Helper()
	n, err := r.Count()
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	return n
}

func foreachPartition[T any](t *testing.T, r *RDD[T], f func(p int, data []T)) {
	t.Helper()
	if err := r.ForeachPartition(f); err != nil {
		t.Fatalf("ForeachPartition: %v", err)
	}
}

func TestParallelizeCollectRoundTrip(t *testing.T) {
	ctx := NewContext(4)
	data := intsUpTo(101)
	r := Parallelize(ctx, data, 7)
	if r.NumPartitions() != 7 {
		t.Fatalf("partitions = %d", r.NumPartitions())
	}
	got := collect(t, r)
	if len(got) != 101 {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order not preserved at %d: %d", i, v)
		}
	}
	if count(t, r) != 101 {
		t.Fatalf("count = %d", count(t, r))
	}
}

func TestMapFilterFlatMapLazy(t *testing.T) {
	ctx := NewContext(2)
	var evals atomic.Int64
	src := Generate(ctx, "src", 3, func(p int) []int {
		evals.Add(1)
		return []int{p * 10, p*10 + 1}
	})
	mapped := Map(src, func(x int) int { return x * 2 })
	filtered := Filter(mapped, func(x int) bool { return x%4 == 0 })
	flat := FlatMap(filtered, func(x int) []int { return []int{x, x} })
	if evals.Load() != 0 {
		t.Fatal("transformations must be lazy")
	}
	got := collect(t, flat)
	if evals.Load() != 3 {
		t.Fatalf("each partition computed once, got %d", evals.Load())
	}
	want := []int{0, 0, 20, 20, 40, 40} // 0,2→0; 20,22→20; 40,42→40 doubled
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestUnionCoalesceTake(t *testing.T) {
	ctx := NewContext(2)
	a := Parallelize(ctx, []int{1, 2}, 2)
	b := Parallelize(ctx, []int{3, 4}, 2)
	u := Union(a, b)
	if count(t, u) != 4 || u.NumPartitions() != 4 {
		t.Fatalf("union wrong: %d rows, %d parts", count(t, u), u.NumPartitions())
	}
	c := Coalesce(u, 2)
	if c.NumPartitions() != 2 || count(t, c) != 4 {
		t.Fatal("coalesce wrong")
	}
	taken, err := Take(u, 3)
	if err != nil {
		t.Fatalf("take: %v", err)
	}
	if len(taken) != 3 || taken[0] != 1 {
		t.Fatalf("take = %v", taken)
	}
	if got, err := Take(u, 100); err != nil || len(got) != 4 {
		t.Fatalf("take beyond size = %v, %v", got, err)
	}
}

func TestReduce(t *testing.T) {
	ctx := NewContext(3)
	r := Parallelize(ctx, intsUpTo(10), 3)
	sum, ok, err := Reduce(r, func(a, b int) int { return a + b })
	if err != nil {
		t.Fatalf("reduce: %v", err)
	}
	if !ok || sum != 45 {
		t.Fatalf("reduce = %d, %v", sum, ok)
	}
	empty := Parallelize(ctx, []int{}, 2)
	if _, ok, err := Reduce(empty, func(a, b int) int { return a + b }); err != nil || ok {
		t.Fatalf("empty reduce should report !ok without error, got ok=%v err=%v", ok, err)
	}
}

func TestReduceByKeyCorrectness(t *testing.T) {
	ctx := NewContext(4)
	var pairs []Pair[string, int]
	for i := 0; i < 100; i++ {
		pairs = append(pairs, Pair[string, int]{Key: string(rune('a' + i%5)), Value: 1})
	}
	r := Parallelize(ctx, pairs, 8)
	reduced := ReduceByKey(r, func(a, b int) int { return a + b }, 3)
	got := map[string]int{}
	for _, kv := range collect(t, reduced) {
		if _, dup := got[kv.Key]; dup {
			t.Fatalf("key %q appeared in two partitions", kv.Key)
		}
		got[kv.Key] = kv.Value
	}
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for k, v := range got {
		if v != 20 {
			t.Fatalf("count for %q = %d, want 20", k, v)
		}
	}
	if ctx.ShuffleRecords() == 0 {
		t.Fatal("shuffle metering should record movement")
	}
}

// Property: ReduceByKey with addition equals a sequential map-reduce, for
// any input and partitioning.
func TestReduceByKeyProperty(t *testing.T) {
	f := func(keys []uint8, parts uint8) bool {
		ctx := NewContext(4)
		pairs := make([]Pair[int, int], len(keys))
		want := map[int]int{}
		for i, k := range keys {
			key := int(k % 16)
			pairs[i] = Pair[int, int]{Key: key, Value: i}
			want[key] += i
		}
		r := Parallelize(ctx, pairs, int(parts%6)+1)
		reduced, err := ReduceByKey(r, func(a, b int) int { return a + b }, int(parts%4)+1).Collect()
		if err != nil {
			return false
		}
		got := map[int]int{}
		for _, kv := range reduced {
			got[kv.Key] = kv.Value
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGroupByKey(t *testing.T) {
	ctx := NewContext(2)
	r := Parallelize(ctx, []Pair[string, int]{
		{"a", 1}, {"b", 2}, {"a", 3},
	}, 2)
	grouped := collect(t, GroupByKey(r, 2))
	byKey := map[string][]int{}
	for _, kv := range grouped {
		sort.Ints(kv.Value)
		byKey[kv.Key] = kv.Value
	}
	if len(byKey["a"]) != 2 || byKey["a"][0] != 1 || byKey["a"][1] != 3 {
		t.Fatalf("grouped = %v", byKey)
	}
}

func TestZipPartitions(t *testing.T) {
	ctx := NewContext(2)
	a := Parallelize(ctx, []int{1, 2, 3, 4}, 2)
	b := Parallelize(ctx, []string{"a", "b", "c", "d"}, 2)
	zipped := ZipAt(a, b, 2, func(p int) (int, int) { return p, p + 1 }, func(_ context.Context, p int, xs [][]int, ys [][]string) ([]string, error) {
		out := make([]string, len(xs[0]))
		for i := range xs[0] {
			out[i] = ys[0][i]
		}
		return out, nil
	})
	if got := collect(t, zipped); len(got) != 4 || got[0] != "a" {
		t.Fatalf("zip = %v", got)
	}
}

func TestCacheAndLineageRecovery(t *testing.T) {
	ctx := NewContext(2)
	var computes atomic.Int64
	src := Generate(ctx, "src", 4, func(p int) []int {
		computes.Add(1)
		return []int{p}
	})
	cached := Map(src, func(x int) int { return x * 10 }).Cache()
	if collect(t, cached); computes.Load() != 4 {
		t.Fatalf("first pass computes all: %d", computes.Load())
	}
	if collect(t, cached); computes.Load() != 4 {
		t.Fatalf("second pass must hit the cache: %d", computes.Load())
	}
	// Simulate losing a cached partition: the engine recomputes it from
	// lineage (the paper's §2.1 fault-tolerance property).
	cached.DropCachedPartition(2)
	got := collect(t, cached)
	if computes.Load() != 5 {
		t.Fatalf("exactly the lost partition recomputes: %d", computes.Load())
	}
	if ctx.Recomputes() != 1 {
		t.Fatalf("recompute metric = %d", ctx.Recomputes())
	}
	if len(got) != 4 || got[2] != 20 {
		t.Fatalf("recovered data wrong: %v", got)
	}
	cached.Unpersist()
	collect(t, cached)
	if computes.Load() != 9 {
		t.Fatalf("unpersist drops all cached partitions: %d", computes.Load())
	}
}

func TestTaskRetryOnInjectedFailure(t *testing.T) {
	ctx := NewContext(2)
	ctx.SetBackoff(time.Microsecond, 10*time.Microsecond)
	r := Generate(ctx, "flaky", 2, func(p int) []int { return []int{p} })
	var failures atomic.Int64
	ctx.SetFailureHook(func(name string, partition, attempt int) error {
		// Fail the first two attempts of partition 1.
		if partition == 1 && attempt <= 2 {
			failures.Add(1)
			return errors.New("injected")
		}
		return nil
	})
	got := collect(t, r)
	if len(got) != 2 {
		t.Fatalf("collect after retries = %v", got)
	}
	if failures.Load() != 2 || ctx.TaskRetries() != 2 {
		t.Fatalf("failures=%d retries=%d", failures.Load(), ctx.TaskRetries())
	}
}

// Tentpole: a permanently failing task surfaces as a typed *JobError
// carrying the failing RDD, partition and attempt count — no panic.
func TestTaskFailsAfterMaxAttemptsWithJobError(t *testing.T) {
	ctx := NewContext(1)
	ctx.SetBackoff(time.Microsecond, 10*time.Microsecond)
	r := Generate(ctx, "doomed", 1, func(p int) []int { return nil })
	ctx.SetFailureHook(func(string, int, int) error { return errors.New("always") })
	_, err := r.Collect()
	if err == nil {
		t.Fatal("permanently failing task must return an error")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError via errors.As, got %T: %v", err, err)
	}
	if je.RDDName != "doomed" || je.Partition != 0 || je.Attempts != maxTaskAttempts {
		t.Fatalf("JobError fields wrong: %+v", je)
	}
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("cause chain should contain the last *TaskError: %v", err)
	}
	if !strings.Contains(err.Error(), "always") {
		t.Fatalf("root cause lost: %v", err)
	}
}

// Satellite: a panic inside the compute function counts as one failed
// attempt and is retried, not propagated as a panic.
func TestPanicInComputeIsRetried(t *testing.T) {
	ctx := NewContext(2)
	ctx.SetBackoff(time.Microsecond, 10*time.Microsecond)
	var calls atomic.Int64
	r := Generate(ctx, "panicky", 2, func(p int) []int {
		if p == 1 && calls.Add(1) == 1 {
			panic("transient kaboom")
		}
		return []int{p}
	})
	got := collect(t, r)
	if len(got) != 2 || got[1] != 1 {
		t.Fatalf("collect after panic retry = %v", got)
	}
	if ctx.TaskRetries() != 1 {
		t.Fatalf("retries = %d, want 1", ctx.TaskRetries())
	}
}

// A permanently panicking compute becomes a JobError whose cause names the
// panic.
func TestPermanentPanicBecomesJobError(t *testing.T) {
	ctx := NewContext(1)
	ctx.SetBackoff(time.Microsecond, 10*time.Microsecond)
	r := Generate(ctx, "kaboom", 1, func(p int) []int { panic("kaboom") })
	_, err := r.Collect()
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %v", err)
	}
	if !strings.Contains(err.Error(), "panic in compute: kaboom") {
		t.Fatalf("panic cause lost: %v", err)
	}
}

// Tentpole: cancelling the job context returns promptly with the context
// error and leaves no task goroutines computing.
func TestCancellationStopsBlockedTasks(t *testing.T) {
	ctx := NewContext(4)
	var active atomic.Int64
	r := GenerateCtx(ctx, "blocker", 4, func(jc context.Context, p int) ([]int, error) {
		if p == 0 {
			return []int{0}, nil
		}
		active.Add(1)
		defer active.Add(-1)
		<-jc.Done() // blocks until the job is cancelled
		return nil, jc.Err()
	})
	jc, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := r.CollectContext(jc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation not prompt: %v", elapsed)
	}
	// All blocked task goroutines must unwind once cancelled.
	deadline := time.Now().Add(2 * time.Second)
	for active.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d task goroutines still computing after cancel", active.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// An already-expired deadline fails the job before any task runs.
func TestDeadlineExceeded(t *testing.T) {
	ctx := NewContext(2)
	var computes atomic.Int64
	r := Generate(ctx, "slow", 2, func(p int) []int {
		computes.Add(1)
		return []int{p}
	})
	jc, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	_, err := r.CollectContext(jc)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if computes.Load() != 0 {
		t.Fatalf("no task should run under an expired deadline, ran %d", computes.Load())
	}
}

// Backoff schedule is deterministic, exponentially bounded and capped,
// with seeded per-task jitter inside [d/2, d].
func TestBackoffSchedule(t *testing.T) {
	ctx := NewContext(1)
	ctx.SetBackoff(time.Millisecond, 5*time.Millisecond)
	bounds := []time.Duration{
		1 * time.Millisecond, // retry 1
		2 * time.Millisecond, // retry 2
		4 * time.Millisecond, // retry 3
		5 * time.Millisecond, // retry 4, capped
		5 * time.Millisecond, // retry 5, capped
	}
	for i, d := range bounds {
		got := ctx.backoffFor("r", 0, i+1)
		if got < d/2 || got > d {
			t.Fatalf("backoffFor(retry %d) = %v, want within [%v, %v]", i+1, got, d/2, d)
		}
		if again := ctx.backoffFor("r", 0, i+1); again != got {
			t.Fatalf("backoffFor(retry %d) not deterministic: %v then %v", i+1, got, again)
		}
	}
}

// Jitter decorrelates tasks that fail simultaneously, and a fixed seed
// reproduces the exact schedule.
func TestBackoffJitterSeeded(t *testing.T) {
	ctx := NewContext(1)
	ctx.SetBackoff(time.Millisecond, 64*time.Millisecond)
	ctx.SetBackoffSeed(42)
	// Across many partitions failing at the same retry, the waits must not
	// all collapse onto one value (no retry lockstep).
	seen := map[time.Duration]bool{}
	for p := 0; p < 32; p++ {
		seen[ctx.backoffFor("stage", p, 4)] = true
	}
	if len(seen) < 4 {
		t.Fatalf("32 partitions share only %d distinct backoff values — lockstep retries", len(seen))
	}
	// Same seed → identical schedule; the schedule is reproducible.
	other := NewContext(1)
	other.SetBackoff(time.Millisecond, 64*time.Millisecond)
	other.SetBackoffSeed(42)
	for p := 0; p < 32; p++ {
		for retry := 1; retry <= 4; retry++ {
			if a, b := ctx.backoffFor("stage", p, retry), other.backoffFor("stage", p, retry); a != b {
				t.Fatalf("same seed diverged at p=%d retry=%d: %v vs %v", p, retry, a, b)
			}
		}
	}
	// A different seed shifts the schedule (with overwhelming likelihood
	// across 32 samples).
	other.SetBackoffSeed(7)
	diff := false
	for p := 0; p < 32 && !diff; p++ {
		diff = ctx.backoffFor("stage", p, 4) != other.backoffFor("stage", p, 4)
	}
	if !diff {
		t.Fatal("different seeds produced identical schedules")
	}
}

// Satellite: an injected map-output (shuffle fetch) failure retries the map
// task and loses no data.
func TestShuffleFetchFailureRetried(t *testing.T) {
	ctx := NewContext(4)
	ctx.SetBackoff(time.Microsecond, 10*time.Microsecond)
	pairs := make([]Pair[string, int], 100)
	for i := range pairs {
		pairs[i] = Pair[string, int]{Key: string(rune('a' + i%5)), Value: 1}
	}
	src := Generate(ctx, "mapside", 4, func(p int) []Pair[string, int] {
		lo, hi := 100*p/4, 100*(p+1)/4
		return pairs[lo:hi]
	})
	var injected atomic.Int64
	ctx.SetFailureHook(func(name string, partition, attempt int) error {
		// Fail the first fetch of one map task feeding the shuffle.
		if name == "mapside" && partition == 2 && attempt == 1 {
			injected.Add(1)
			return errors.New("injected map output lost")
		}
		return nil
	})
	reduced := ReduceByKey(src, func(a, b int) int { return a + b }, 3)
	got := map[string]int{}
	for _, kv := range collect(t, reduced) {
		got[kv.Key] += kv.Value
	}
	if injected.Load() == 0 {
		t.Fatal("fault was never injected")
	}
	if ctx.TaskRetries() == 0 {
		t.Fatal("map task should have been retried")
	}
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for k, v := range got {
		if v != 20 {
			t.Fatalf("data lost across retry: %q = %d, want 20", k, v)
		}
	}
}

// Tentpole: a straggling task gets a speculative backup attempt; the backup
// finishes first and the result is unchanged.
func TestSpeculationMitigatesStraggler(t *testing.T) {
	ctx := NewContext(8)
	ctx.SetSpeculation(true, 2.0, 5*time.Millisecond)
	r := Generate(ctx, "straggly", 8, func(p int) []int { return []int{p} })
	ctx.SetLatencyHook(func(name string, partition, attempt int) time.Duration {
		// Attempt 1 of partition 0 hangs far beyond the median; the backup
		// attempt (numbered > maxTaskAttempts) runs at full speed.
		if partition == 0 && attempt == 1 {
			return 10 * time.Second
		}
		return 0
	})
	done := make(chan struct{})
	var got []int
	var err error
	go func() {
		got, err = r.Collect()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(8 * time.Second):
		t.Fatal("speculation did not rescue the straggler")
	}
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if len(got) != 8 {
		t.Fatalf("result = %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("result wrong at %d: %v", i, got)
		}
	}
	if ctx.SpeculativeLaunches() == 0 {
		t.Fatal("no speculative attempt launched")
	}
	if ctx.SpeculativeWins() == 0 {
		t.Fatal("backup attempt should have won")
	}
}

func TestBroadcast(t *testing.T) {
	b := NewBroadcast(map[string]int{"x": 1})
	if b.Value()["x"] != 1 {
		t.Fatal("broadcast value")
	}
}

func TestPartitionByHashCoLocation(t *testing.T) {
	ctx := NewContext(4)
	data := intsUpTo(200)
	r := Parallelize(ctx, data, 8)
	hashed := PartitionByHashCodec(r, 4, func(x int) uint64 { return uint64(x % 10) }, nil)
	// Values with equal hash must land in the same partition.
	partOf := map[int]int{}
	foreachPartition(t, hashed, func(p int, xs []int) {
		for _, x := range xs {
			partOf[x] = p
		}
	})
	for _, x := range data {
		if partOf[x] != partOf[x%10] {
			t.Fatalf("co-location violated for %d", x)
		}
	}
	if count(t, hashed) != 200 {
		t.Fatal("shuffle must preserve all records")
	}
}

// Regression: the generic hashKey fallback used to send every non-int,
// non-string key to bucket 0, collapsing such shuffles onto one reducer.
func TestHashKeySpreadForGenericKeys(t *testing.T) {
	type point struct{ X, Y int }
	const buckets = 8
	seen := map[int]int{}
	for i := 0; i < 400; i++ {
		seen[hashKey(point{X: i, Y: i * 31}, buckets)]++
	}
	if len(seen) < buckets/2 {
		t.Fatalf("generic keys hit only %d/%d buckets: %v", len(seen), buckets, seen)
	}
	if seen[0] == 400 {
		t.Fatal("all generic keys collapsed onto bucket 0")
	}
	for b := range seen {
		if b < 0 || b >= buckets {
			t.Fatalf("bucket %d out of range", b)
		}
	}
}

func TestPartitionByKeyGenericKeysSpread(t *testing.T) {
	type point struct{ X, Y int }
	ctx := NewContext(4)
	pairs := make([]Pair[point, int], 300)
	for i := range pairs {
		pairs[i] = Pair[point, int]{Key: point{X: i, Y: -i}, Value: i}
	}
	shuffled := PartitionByKey(Parallelize(ctx, pairs, 6), 4)
	nonEmpty := 0
	total := 0
	foreachPartition(t, shuffled, func(p int, kvs []Pair[point, int]) {
		if len(kvs) > 0 {
			nonEmpty++
		}
		total += len(kvs)
	})
	if total != len(pairs) {
		t.Fatalf("shuffle lost records: %d of %d", total, len(pairs))
	}
	if nonEmpty < 2 {
		t.Fatalf("struct keys landed on %d reducer(s); want spread", nonEmpty)
	}
}

// The parallel map side must produce exactly the ordering of a sequential
// pass: per reducer, records appear in map-partition order, then input order.
func TestParallelBucketingDeterministicOrder(t *testing.T) {
	ctx := NewContext(8)
	const n, reducers = 1000, 5
	pairs := make([]Pair[string, int], n)
	for i := range pairs {
		pairs[i] = Pair[string, int]{Key: "k" + string(rune('a'+i%26)), Value: i}
	}
	parent := Parallelize(ctx, pairs, 7)

	// Reference: sequential bucketing over the same partition split.
	want := make([][]Pair[string, int], reducers)
	for p := 0; p < 7; p++ {
		lo, hi := n*p/7, n*(p+1)/7
		for _, kv := range pairs[lo:hi] {
			b := hashKey(kv.Key, reducers)
			want[b] = append(want[b], kv)
		}
	}

	shuffled := PartitionByKey(parent, reducers)
	foreachPartition(t, shuffled, func(p int, got []Pair[string, int]) {
		if len(got) != len(want[p]) {
			t.Fatalf("reducer %d: %d records, want %d", p, len(got), len(want[p]))
		}
		for i := range got {
			if got[i] != want[p][i] {
				t.Fatalf("reducer %d record %d: %v, want %v (order must be deterministic)",
					p, i, got[i], want[p][i])
			}
		}
	})
}

// A panic on the shuffle map side surfaces as a job error, not a panic.
func TestParallelBucketingPanicBecomesError(t *testing.T) {
	ctx := NewContext(4)
	ctx.SetBackoff(time.Microsecond, 10*time.Microsecond)
	r := Map(Parallelize(ctx, intsUpTo(100), 4), func(x int) Pair[int, int] {
		if x == 57 {
			panic("boom in map side")
		}
		return Pair[int, int]{Key: x, Value: x}
	})
	_, err := PartitionByKey(r, 3).Collect()
	if err == nil {
		t.Fatal("expected shuffle map-side panic to surface as an error")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "boom in map side") {
		t.Fatalf("root cause lost: %v", err)
	}
}

// ExchangePresplit hands each reducer a contiguous range of buckets: with as
// many reducers as buckets it only transposes (reduce partition r receives
// element r of every map partition, in map-partition order); with fewer,
// reducer q receives buckets [q·B/R, (q+1)·B/R) bucket-major, map partitions
// in order within each bucket, so the reduce partitions concatenate to the
// same sequence for every reducer count. A map partition may hold several
// chunks of B elements, element i bound for bucket i % B: within a bucket
// its chunks follow one another before the next partition's. Empty elements
// and empty map partitions contribute nothing; shuffle.records counts what
// records reports; a map partition holding a count of elements that is not a
// multiple of the buckets, or more reducers than buckets, fails the exchange.
func TestExchangePresplitTransposes(t *testing.T) {
	ctx := NewContext(4)
	// Map partition m emits {"m:0", "", "m:2", "m:3"} (nothing for bucket 1);
	// partition 2 emits nothing at all.
	maps := Generate(ctx, "presplit", 4, func(m int) []string {
		if m == 2 {
			return nil
		}
		return []string{fmt.Sprintf("%d:0", m), "", fmt.Sprintf("%d:2", m), fmt.Sprintf("%d:3", m)}
	})
	for _, tc := range []struct {
		reducers int
		want     [][]string
	}{
		{4, [][]string{{"0:0", "1:0", "3:0"}, nil, {"0:2", "1:2", "3:2"}, {"0:3", "1:3", "3:3"}}},
		{3, [][]string{{"0:0", "1:0", "3:0"}, nil, {"0:2", "1:2", "3:2", "0:3", "1:3", "3:3"}}},
		{2, [][]string{{"0:0", "1:0", "3:0"}, {"0:2", "1:2", "3:2", "0:3", "1:3", "3:3"}}},
		{1, [][]string{{"0:0", "1:0", "3:0", "0:2", "1:2", "3:2", "0:3", "1:3", "3:3"}}},
	} {
		before := ctx.ShuffleRecords()
		out := ExchangePresplit(maps, 4, tc.reducers, func(s string) int64 { return int64(len(s)) })
		got := make([][]string, tc.reducers)
		foreachPartition(t, out, func(p int, xs []string) { got[p] = xs })
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%d reducers: exchange = %v, want %v", tc.reducers, got, tc.want)
		}
		if n := ctx.ShuffleRecords() - before; n != 27 {
			t.Fatalf("%d reducers: shuffle.records rose by %d, want 27 (9 elements x 3 records)", tc.reducers, n)
		}
	}

	// Map partition m emits m+1 chunks ("m.c:b" for chunk c, bucket b) over 3
	// buckets; partition 1's second chunk has nothing for bucket 0.
	const buckets = 3
	chunked := Generate(ctx, "chunked", 3, func(m int) []string {
		var out []string
		for c := 0; c <= m; c++ {
			for b := range buckets {
				if m == 1 && c == 1 && b == 0 {
					out = append(out, "")
					continue
				}
				out = append(out, fmt.Sprintf("%d.%d:%d", m, c, b))
			}
		}
		return out
	})
	bucket := [][]string{
		{"0.0:0", "1.0:0", "2.0:0", "2.1:0", "2.2:0"},
		{"0.0:1", "1.0:1", "1.1:1", "2.0:1", "2.1:1", "2.2:1"},
		{"0.0:2", "1.0:2", "1.1:2", "2.0:2", "2.1:2", "2.2:2"},
	}
	for reducers := 1; reducers <= buckets; reducers++ {
		out := ExchangePresplit(chunked, buckets, reducers, func(s string) int64 { return int64(len(s)) })
		got := make([][]string, reducers)
		foreachPartition(t, out, func(p int, xs []string) { got[p] = xs })
		want := make([][]string, reducers)
		for q := range want {
			for b := q * buckets / reducers; b < (q+1)*buckets/reducers; b++ {
				want[q] = append(want[q], bucket[b]...)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d reducers over chunked map output: exchange = %v, want %v", reducers, got, want)
		}
	}

	ragged := Generate(ctx, "ragged", 2, func(m int) []string { return []string{"x", "y", "z", "w", "v"}[:2+3*m] })
	for _, reducers := range []int{3, 1} {
		if _, err := ExchangePresplit(ragged, 3, reducers, func(string) int64 { return 1 }).Collect(); err == nil {
			t.Fatalf("%d reducers: a map partition of 2 or 5 records over 3 buckets must fail the exchange", reducers)
		}
	}
	split := Generate(ctx, "split", 2, func(int) []string { return []string{"x", "y"} })
	if _, err := ExchangePresplit(split, 2, 3, func(string) int64 { return 1 }).Collect(); err == nil {
		t.Fatal("3 reducers over 2 buckets must fail the exchange")
	}
}

// goroutineID reads the running goroutine's id off its stack header — for
// telling task goroutines apart, nothing else.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// The stage runner: a stage's tasks run on min(parallelism, partitions) worker
// goroutines that live as long as the stage, failure and cancellation stop
// further partitions being picked up, and a stage nested inside a task gets
// workers of its own.
func TestStageRunner(t *testing.T) {
	t.Run("2000 partitions on 4 goroutines", func(t *testing.T) {
		ctx := NewContext(4)
		before := runtime.NumGoroutine()
		var mu sync.Mutex
		ids := map[string]bool{}
		var most atomic.Int64
		r := Generate(ctx, "many", 2000, func(p int) []int {
			if n := int64(runtime.NumGoroutine()); n > most.Load() {
				most.Store(n) // racy max: a lost update only lowers it
			}
			id := goroutineID()
			mu.Lock()
			ids[id] = true
			mu.Unlock()
			return []int{p}
		})
		if got := collect(t, r); len(got) != 2000 || got[1999] != 1999 {
			t.Fatalf("collected %d elements", len(got))
		}
		if most.Load() > int64(before+4) {
			t.Fatalf("%d goroutines alive inside a task, %d before the stage: more than 4 task goroutines", most.Load(), before)
		}
		if len(ids) > 4 {
			t.Fatalf("2000 tasks ran on %d distinct goroutines, want at most 4", len(ids))
		}
	})

	t.Run("a terminal failure stops pick-ups", func(t *testing.T) {
		ctx := NewContext(1)
		ctx.SetBackoff(time.Microsecond, 10*time.Microsecond)
		var computed []int
		r := Generate(ctx, "doomed", 100, func(p int) []int {
			computed = append(computed, p) // one worker: no race
			return nil
		})
		ctx.SetFailureHook(func(_ string, p, _ int) error {
			if p == 3 {
				return errors.New("always")
			}
			return nil
		})
		_, err := r.Collect()
		var je *JobError
		if !errors.As(err, &je) || je.Partition != 3 {
			t.Fatalf("want partition 3's JobError, got %v", err)
		}
		if !reflect.DeepEqual(computed, []int{0, 1, 2}) {
			t.Fatalf("partitions computed around the failure: %v, want 0 1 2 and none after it", computed)
		}
	})

	t.Run("cancellation returns promptly", func(t *testing.T) {
		ctx := NewContext(2)
		var started atomic.Int64
		r := GenerateCtx(ctx, "blocker", 2000, func(jc context.Context, p int) ([]int, error) {
			started.Add(1)
			<-jc.Done()
			return nil, jc.Err()
		})
		jc, cancel := context.WithCancel(context.Background())
		go func() {
			for started.Load() < 2 {
				time.Sleep(time.Millisecond)
			}
			cancel()
		}()
		start := time.Now()
		if _, err := r.CollectContext(jc); !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("cancellation not prompt: %v", elapsed)
		}
		if started.Load() != 2 {
			t.Fatalf("%d tasks started before the cancel took, want the 2 in flight", started.Load())
		}
	})

	t.Run("a panicking compute is retried", func(t *testing.T) {
		ctx := NewContext(2)
		ctx.SetBackoff(time.Microsecond, 10*time.Microsecond)
		var panicked [50]atomic.Bool
		r := Generate(ctx, "panicky", 50, func(p int) []int {
			if p%7 == 0 && panicked[p].CompareAndSwap(false, true) { // 8 partitions, first attempt each
				panic("transient kaboom")
			}
			return []int{p}
		})
		if got := collect(t, r); len(got) != 50 {
			t.Fatalf("collect after panic retries = %v", got)
		}
		if ctx.TaskRetries() != 8 {
			t.Fatalf("retries = %d, want 8", ctx.TaskRetries())
		}
	})

	t.Run("a stage waits on its parents", func(t *testing.T) {
		ctx := NewContext(1)
		var most atomic.Int64
		before := 0
		peak := func() {
			n := runtime.NumGoroutine()
			// The worker of the stage before may still be exiting after its
			// stage returned: wait that out, not a worker that stays.
			for try := 0; n > before+1 && try < 20; try++ {
				time.Sleep(10 * time.Microsecond)
				n = runtime.NumGoroutine()
			}
			if int64(n) > most.Load() {
				most.Store(int64(n)) // one slot: tasks do not race
			}
		}
		pairs := Map(Parallelize(ctx, intsUpTo(400), 8), func(i int) Pair[int, int] {
			peak()
			return Pair[int, int]{Key: i % 10, Value: 1}
		})
		sum := func(a, b int) int { peak(); return a + b }
		before = runtime.NumGoroutine()
		got, err := ReduceByKey(pairs, sum, 4).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 10 || got[0].Value != 40 {
			t.Fatalf("reduced to %v", got)
		}
		if most.Load() > int64(before+1) {
			t.Fatalf("%d goroutines alive inside a task, %d before the action: a reduce slot ran its map side on a worker of its own", most.Load(), before)
		}
		var mapEnd, reduceStart int64 = 0, math.MaxInt64
		for _, sp := range ctx.Trace().Snapshot() {
			switch {
			case sp.Kind != metrics.SpanTask:
			case strings.Contains(sp.Name, ".shuffle"):
				reduceStart = min(reduceStart, sp.Start)
			default:
				mapEnd = max(mapEnd, sp.Start+sp.DurNS/1000)
			}
		}
		if mapEnd == 0 || mapEnd > reduceStart {
			t.Fatalf("the map stage's last task ended at %d us, the first reduce task started at %d us", mapEnd, reduceStart)
		}
		if n := ctx.registry.Counter("rdd.stages.nested").Load(); n != 0 {
			t.Fatalf("rdd.stages.nested = %d after an action", n)
		}
	})
}

// The one place a task still runs a stage from inside its slot: a partition
// computed outside an action, as a cluster worker computes the one partition
// it was sent. It runs the map side once and rdd.stages.nested says so; an
// action over the same graph afterwards finds the stage done.
func TestPartitionContextRunsNestedStage(t *testing.T) {
	ctx := NewContext(2)
	pairs := Map(Parallelize(ctx, intsUpTo(40), 4), func(i int) Pair[int, int] { return Pair[int, int]{Key: i % 5, Value: i} })
	r := PartitionByKey(pairs, 3)
	nested := ctx.registry.Counter("rdd.stages.nested")
	for p := 0; p < 3; p++ {
		if _, err := r.PartitionContext(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	if n := nested.Load(); n != 1 {
		t.Fatalf("rdd.stages.nested = %d after three partitions of one shuffle, want 1", n)
	}
	if out := collect(t, r); len(out) != 40 || nested.Load() != 1 {
		t.Fatalf("collected %d records, rdd.stages.nested = %d", len(out), nested.Load())
	}
	if n := collect(t, PartitionByKey(pairs, 3)); len(n) != 40 || nested.Load() != 1 {
		t.Fatalf("an action counted a nested stage: %d", nested.Load())
	}
}

func BenchmarkComputeAllManyPartitions(b *testing.B) {
	ctx := NewContext(2)
	ctx.SetTracing(false)
	r := Generate(ctx, "trivial", 2000, func(p int) []int { return nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Count(); err != nil {
			b.Fatal(err)
		}
	}
}

type recordBatch struct{ n int }

func (b *recordBatch) Records() int { return b.n }

// TakeContext allocates for the rows it takes, not for the n it was asked
// for, and counts a Batched element's records toward n.
func TestTakeContextSizedToRows(t *testing.T) {
	ctx := NewContext(2)
	rows := make([][]any, 10)
	for i := range rows {
		rows[i] = []any{int64(i)}
	}
	r := Parallelize(ctx, rows, 2)
	if got, err := TakeContext(context.Background(), r, 10_000); err != nil || len(got) != 10 || cap(got) > 16 {
		t.Fatalf("TakeContext = %d rows (cap %d), %v; want 10 rows in a slice sized for them", len(got), cap(got), err)
	}
	var before, after runtime.MemStats
	const runs = 50
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		TakeContext(context.Background(), r, 10_000)
	}
	runtime.ReadMemStats(&after)
	// A 10 000-slot result would be 240 000 bytes a call.
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > 8<<10 {
		t.Fatalf("TakeContext(10 rows, n=10 000) allocates %d B a call", perCall)
	}

	batches := Parallelize(ctx, []recordBatch{{3}, {3}, {3}}, 2)
	if got, err := TakeContext(context.Background(), batches, 5); err != nil || len(got) != 2 {
		t.Fatalf("TakeContext over batches = %v, %v; want the 2 batches that hold 5 records", got, err)
	}
}
