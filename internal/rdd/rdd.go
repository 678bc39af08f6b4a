// Package rdd is a from-scratch, in-process reproduction of Spark's
// Resilient Distributed Dataset engine (paper §2.1 and [39]): lazily
// evaluated, partitioned collections with functional transformations,
// lineage-based fault recovery, hash shuffles for wide dependencies,
// explicit caching, broadcast values, and a structured, cancellable task
// executor with capped exponential-backoff retries and speculative
// execution of stragglers. Partitions run on goroutines instead of cluster
// nodes; everything else — laziness, lineage, narrow-vs-wide dependencies,
// shuffle materialization, the DAGScheduler's fail-fast job abort — follows
// the Spark model.
//
// Failure semantics: a compute panic or error is one failed task attempt,
// retried up to maxTaskAttempts with deterministic exponential backoff.
// The first terminal failure cancels all in-flight and pending sibling
// tasks and surfaces from actions as a *JobError; no panic crosses the
// package boundary. A job context (CollectContext and friends) threads
// into every task, so jobs can be cancelled or time out.
package rdd

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Context owns the executor and engine-wide metrics — the SparkContext of
// this mini engine.
type Context struct {
	parallelism int

	// registry holds every engine counter under the "rdd." scope; trace is
	// the in-memory event log of job/stage/task/shuffle spans (nil when
	// tracing is off — all append paths are nil-safe). jobSeq numbers
	// top-level actions so all spans of one action share a job id.
	registry *metrics.Registry
	trace    atomic.Pointer[metrics.TraceBuffer]
	jobSeq   atomic.Int64

	// executor counters, held as resolved registry handles so the hot path
	// stays a single atomic add; the accessor methods below preserve the
	// pre-registry API.
	tasksRun            *metrics.Counter
	taskRetries         *metrics.Counter
	recomputes          *metrics.Counter
	shuffleRecords      *metrics.Counter
	shuffleBytes        *metrics.Counter
	speculativeLaunches *metrics.Counter
	speculativeWins     *metrics.Counter
	// remoteFallbacks counts tasks a remote runner refused with
	// ErrRemoteFallback and that were computed locally instead; registered
	// under the "cluster." scope because it measures the cluster layer.
	remoteFallbacks *metrics.Counter
	// traceDropped counts spans the fixed-capacity trace ring evicted
	// unexported ("trace.dropped") so truncation is observable.
	traceDropped *metrics.Counter

	mu sync.Mutex
	// failureHook, when set, lets tests inject task failures: return an
	// error to fail the given attempt of a task. The executor retries up
	// to maxTaskAttempts.
	failureHook func(rddName string, partition, attempt int) error
	// latencyHook, when set, injects a per-attempt latency (a simulated
	// slow node); the sleep honors the job context, so cancelled jobs do
	// not wait it out.
	latencyHook func(rddName string, partition, attempt int) time.Duration

	// retry backoff: retry n waits min(backoffBase << (n-1), backoffMax),
	// scaled by a deterministic per-task jitter derived from backoffSeed so
	// simultaneous failures (a dead worker's whole task batch) do not retry
	// in lockstep.
	backoffBase time.Duration
	backoffMax  time.Duration
	backoffSeed uint64

	// remote execution hooks (see remote.go); nil = pure local execution.
	remoteRunner RemoteRunner
	shuffleSvc   ShuffleService
	shuffleScope string
	shuffleSeq   int

	// speculation: when a partition has run longer than specMultiplier
	// times the median completed-task time of its job (and longer than
	// specMin), a backup attempt is launched and the first finisher wins.
	specEnabled    bool
	specMultiplier float64
	specMin        time.Duration
}

const (
	maxTaskAttempts    = 4
	defaultBackoffBase = time.Millisecond
	defaultBackoffMax  = 50 * time.Millisecond
	defaultSpecMult    = 3.0
	defaultSpecMin     = 20 * time.Millisecond
	specCheckInterval  = time.Millisecond
)

// NewContext creates an execution context running at most parallelism
// concurrent tasks.
func NewContext(parallelism int) *Context {
	if parallelism < 1 {
		parallelism = 1
	}
	reg := metrics.NewRegistry()
	s := reg.Scoped("rdd")
	c := &Context{
		parallelism:         parallelism,
		registry:            reg,
		tasksRun:            s.Counter("tasks.run"),
		taskRetries:         s.Counter("tasks.retries"),
		recomputes:          s.Counter("cache.recomputes"),
		shuffleRecords:      s.Counter("shuffle.records"),
		shuffleBytes:        s.Counter("shuffle.bytes"),
		speculativeLaunches: s.Counter("speculation.launches"),
		speculativeWins:     s.Counter("speculation.wins"),
		remoteFallbacks:     reg.Scoped("cluster").Counter("fallback"),
		backoffBase:         defaultBackoffBase,
		backoffMax:          defaultBackoffMax,
		specMultiplier:      defaultSpecMult,
		specMin:             defaultSpecMin,
	}
	c.traceDropped = reg.Scoped("trace").Counter("dropped")
	tb := metrics.NewTraceBuffer(0)
	tb.SetDropCounter(c.traceDropped)
	c.trace.Store(tb)
	return c
}

// Parallelism returns the task concurrency.
func (c *Context) Parallelism() int { return c.parallelism }

// Metrics returns the engine-wide metrics registry shared by every
// subsystem that hangs off this context.
func (c *Context) Metrics() *metrics.Registry { return c.registry }

// Trace returns the span buffer — the in-memory event log — or nil when
// tracing is disabled.
func (c *Context) Trace() *metrics.TraceBuffer { return c.trace.Load() }

// SetTracing enables or disables span collection. Disabling drops the
// buffered spans; counters are unaffected.
func (c *Context) SetTracing(enabled bool) {
	if enabled {
		if c.trace.Load() == nil {
			tb := metrics.NewTraceBuffer(0)
			tb.SetDropCounter(c.traceDropped)
			c.trace.Store(tb)
		}
	} else {
		c.trace.Store(nil)
	}
}

// jobIDKey carries the action's job id through job contexts so nested
// stages (shuffle map sides, broadcast builds) trace under the same job.
type jobIDKey struct{}

func jobIDFrom(jc context.Context) (int64, bool) {
	id, ok := jc.Value(jobIDKey{}).(int64)
	return id, ok
}

// beginJob tags jc with a fresh job id when it does not already carry one.
// The bool reports whether this call opened the job (i.e. is the top-level
// action and should emit the job span).
func (c *Context) beginJob(jc context.Context) (context.Context, int64, bool) {
	if jc == nil {
		jc = context.Background()
	}
	if id, ok := jobIDFrom(jc); ok {
		return jc, id, false
	}
	id := c.jobSeq.Add(1)
	return context.WithValue(jc, jobIDKey{}, id), id, true
}

// TasksRun returns the number of task executions (including retries).
func (c *Context) TasksRun() int64 { return c.tasksRun.Load() }

// TaskRetries returns how many task attempts failed and were retried.
func (c *Context) TaskRetries() int64 { return c.taskRetries.Load() }

// RemoteFallbacks returns how many tasks fell back to local compute after
// a remote runner refused them with ErrRemoteFallback.
func (c *Context) RemoteFallbacks() int64 { return c.remoteFallbacks.Load() }

// Recomputes returns how many cached partitions were rebuilt from lineage
// after being dropped.
func (c *Context) Recomputes() int64 { return c.recomputes.Load() }

// ShuffleRecords returns the number of records moved through shuffles.
func (c *Context) ShuffleRecords() int64 { return c.shuffleRecords.Load() }

// ShuffleBytes returns the estimated (sampled) bytes moved through
// shuffles; zero when the record type cannot report sizes.
func (c *Context) ShuffleBytes() int64 { return c.shuffleBytes.Load() }

// SpeculativeLaunches returns how many backup task attempts were started
// for suspected stragglers.
func (c *Context) SpeculativeLaunches() int64 { return c.speculativeLaunches.Load() }

// SpeculativeWins returns how many backup attempts finished before their
// straggling primary.
func (c *Context) SpeculativeWins() int64 { return c.speculativeWins.Load() }

// SetFailureHook installs (or clears, with nil) the fault-injection hook.
func (c *Context) SetFailureHook(hook func(rddName string, partition, attempt int) error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failureHook = hook
}

// SetLatencyHook installs (or clears, with nil) the latency-injection hook
// used to simulate slow nodes for straggler/speculation studies.
func (c *Context) SetLatencyHook(hook func(rddName string, partition, attempt int) time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.latencyHook = hook
}

// SetBackoff overrides the retry backoff schedule: retry n waits
// min(base << (n-1), max). Non-positive arguments keep the defaults.
func (c *Context) SetBackoff(base, max time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if base > 0 {
		c.backoffBase = base
	}
	if max > 0 {
		c.backoffMax = max
	}
}

// SetSpeculation configures straggler mitigation: when enabled, a
// partition running longer than multiplier × the job's median completed
// task time (and longer than min) gets a backup attempt; the first
// finisher wins. Non-positive multiplier/min keep the defaults.
func (c *Context) SetSpeculation(enabled bool, multiplier float64, min time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.specEnabled = enabled
	if multiplier > 0 {
		c.specMultiplier = multiplier
	}
	if min > 0 {
		c.specMin = min
	}
}

func (c *Context) checkFailure(name string, partition, attempt int) error {
	c.mu.Lock()
	hook := c.failureHook
	c.mu.Unlock()
	if hook == nil {
		return nil
	}
	return hook(name, partition, attempt)
}

func (c *Context) checkLatency(name string, partition, attempt int) time.Duration {
	c.mu.Lock()
	hook := c.latencyHook
	c.mu.Unlock()
	if hook == nil {
		return 0
	}
	return hook(name, partition, attempt)
}

// backoffFor returns the wait before retry n (1-based) of one task: the
// capped exponential min(base << (n-1), max), jittered into [d/2, d] by a
// hash of (seed, task identity, retry). The jitter is fully deterministic
// — the same seed reproduces the same schedule — but decorrelates tasks
// that fail at the same instant, so a worker death failing a whole batch
// does not hammer the survivors with synchronized retries.
func (c *Context) backoffFor(name string, partition, retry int) time.Duration {
	c.mu.Lock()
	base, max, seed := c.backoffBase, c.backoffMax, c.backoffSeed
	c.mu.Unlock()
	d := base
	for i := 1; i < retry && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if half := d / 2; half > 0 {
		h := fnvHash(fmt.Sprintf("%d|%s|%d|%d", seed, name, partition, retry))
		d = half + time.Duration(h%uint64(half+1))
	}
	return d
}

func (c *Context) speculation() (bool, float64, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.specEnabled, c.specMultiplier, c.specMin
}

// RDD is a lazily evaluated, partitioned collection. Each RDD is defined by
// a compute function that rebuilds any partition from its lineage, so a
// lost (dropped) cached partition is recoverable by recomputation — the
// fault-tolerance story of the paper's §2.1.
type RDD[T any] struct {
	ctx     *Context
	name    string
	numPart int
	// compute rebuilds partition p from lineage under a job context.
	compute func(jc context.Context, p int) ([]T, error)

	// cache state; nil when not cached.
	cacheMu   sync.Mutex
	cached    bool
	cacheData []*[]T // per-partition; nil entry = not yet materialized
	dropped   []bool // per-partition; true = lost after materialization
}

// Ctx returns the owning context.
func (r *RDD[T]) Ctx() *Context { return r.ctx }

// Name returns the debug name.
func (r *RDD[T]) Name() string { return r.name }

// NumPartitions returns the partition count.
func (r *RDD[T]) NumPartitions() int { return r.numPart }

func newRDD[T any](ctx *Context, name string, numPart int, compute func(jc context.Context, p int) ([]T, error)) *RDD[T] {
	return &RDD[T]{ctx: ctx, name: name, numPart: numPart, compute: compute}
}

// Parallelize distributes a slice across numPartitions partitions.
func Parallelize[T any](ctx *Context, data []T, numPartitions int) *RDD[T] {
	if numPartitions < 1 {
		numPartitions = ctx.parallelism
	}
	n := len(data)
	return newRDD(ctx, "parallelize", numPartitions, func(_ context.Context, p int) ([]T, error) {
		lo := n * p / numPartitions
		hi := n * (p + 1) / numPartitions
		out := make([]T, hi-lo)
		copy(out, data[lo:hi])
		return out, nil
	})
}

// FromPartitions builds an RDD from pre-partitioned data.
func FromPartitions[T any](ctx *Context, parts [][]T) *RDD[T] {
	return newRDD(ctx, "fromPartitions", len(parts), func(_ context.Context, p int) ([]T, error) {
		return parts[p], nil
	})
}

// Generate builds an RDD whose partitions are produced on demand by gen —
// the hook data sources and synthetic workload generators use, so large
// inputs need not exist in memory up front. A panic in gen is one failed
// task attempt (retried); use GenerateCtx for generators that should
// observe cancellation or report errors directly.
func Generate[T any](ctx *Context, name string, numPartitions int, gen func(p int) []T) *RDD[T] {
	return newRDD(ctx, name, numPartitions, func(_ context.Context, p int) ([]T, error) {
		return gen(p), nil
	})
}

// GenerateCtx builds an RDD whose generator receives the job context and
// may return an error — the constructor for sources that do I/O (and so
// can fail transiently or block) or that must stop promptly when the job
// is cancelled. Returned errors count as failed task attempts and are
// retried like any other task failure.
func GenerateCtx[T any](ctx *Context, name string, numPartitions int, gen func(jc context.Context, p int) ([]T, error)) *RDD[T] {
	return newRDD(ctx, name, numPartitions, gen)
}

// partition computes (or serves from cache) one partition.
func (r *RDD[T]) partition(jc context.Context, p int) ([]T, error) {
	return r.partitionAttempt(jc, p, 1)
}

// partitionAttempt is partition with an explicit first-attempt number —
// speculative backups run with attempts numbered from maxTaskAttempts+1 so
// fault-injection hooks can tell primary and backup attempts apart.
func (r *RDD[T]) partitionAttempt(jc context.Context, p, firstAttempt int) ([]T, error) {
	if r.isCached() {
		r.cacheMu.Lock()
		if r.cacheData != nil && r.cacheData[p] != nil {
			data := *r.cacheData[p]
			r.cacheMu.Unlock()
			return data, nil
		}
		wasDropped := r.dropped != nil && r.dropped[p]
		r.cacheMu.Unlock()
		if wasDropped {
			// Lineage recovery: the partition existed and was lost.
			r.ctx.recomputes.Add(1)
		}
		data, err := r.runTask(jc, p, firstAttempt)
		if err != nil {
			return nil, err
		}
		r.cacheMu.Lock()
		if r.cached {
			if r.cacheData == nil {
				r.cacheData = make([]*[]T, r.numPart)
				r.dropped = make([]bool, r.numPart)
			}
			r.cacheData[p] = &data
			r.dropped[p] = false
		}
		r.cacheMu.Unlock()
		return data, nil
	}
	return r.runTask(jc, p, firstAttempt)
}

func (r *RDD[T]) isCached() bool {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	return r.cached
}

// runTask executes the compute function as a retryable task: each failed
// attempt (error or recovered panic) waits a deterministic, capped
// exponential backoff and retries, up to maxTaskAttempts. Cancellation and
// nested terminal JobErrors short-circuit the retry loop.
func (r *RDD[T]) runTask(jc context.Context, p, firstAttempt int) ([]T, error) {
	jobID, _ := jobIDFrom(jc)
	tb := r.ctx.Trace()
	var lastErr error
	var lastWorker string
	for retry := 0; retry < maxTaskAttempts; retry++ {
		attempt := firstAttempt + retry
		if retry > 0 {
			if err := sleepCtx(jc, r.ctx.backoffFor(r.name, p, retry)); err != nil {
				return nil, err
			}
		} else if err := jc.Err(); err != nil {
			return nil, err
		}
		r.ctx.tasksRun.Add(1)
		attemptCtx, info := withTaskInfo(jc)
		start := time.Now()
		out, err := r.attemptOnce(attemptCtx, p, attempt)
		worker := info.get()
		if worker == "" {
			var we *WorkerError
			if errors.As(err, &we) {
				worker = we.Worker
			}
		}
		if tb != nil || traceSink(jc) != nil {
			span := metrics.Span{
				Kind:        metrics.SpanTask,
				Name:        r.name,
				Job:         jobID,
				Partition:   p,
				Attempt:     int32(attempt),
				Speculative: firstAttempt > maxTaskAttempts,
				Worker:      worker,
				Start:       metrics.Since(start),
				DurNS:       time.Since(start).Nanoseconds(),
				Records:     records(out),
			}
			if err != nil {
				span.Err = err.Error()
			}
			r.ctx.emitSpan(jc, span)
		}
		if err == nil {
			return out, nil
		}
		if terminalErr(err) {
			return nil, err
		}
		lastErr = &TaskError{RDDName: r.name, Partition: p, Attempt: attempt, Worker: worker, Cause: err}
		lastWorker = worker
		r.ctx.taskRetries.Add(1)
	}
	return nil, &JobError{RDDName: r.name, Partition: p, Attempts: maxTaskAttempts, Worker: lastWorker, Cause: lastErr}
}

// attemptOnce runs one attempt of a task, converting compute panics into
// errors so a panicking user function is retried instead of unwinding the
// whole job.
func (r *RDD[T]) attemptOnce(jc context.Context, p, attempt int) (out []T, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("panic in compute: %v", rec)
		}
	}()
	if err := r.ctx.checkFailure(r.name, p, attempt); err != nil {
		return nil, err
	}
	if d := r.ctx.checkLatency(r.name, p, attempt); d > 0 {
		if err := sleepCtx(jc, d); err != nil {
			return nil, err
		}
	}
	return r.compute(jc, p)
}

// Cache marks the RDD for in-memory materialization; partitions are stored
// on first computation and reused afterwards.
func (r *RDD[T]) Cache() *RDD[T] {
	r.cacheMu.Lock()
	r.cached = true
	r.cacheMu.Unlock()
	return r
}

// Unpersist drops all cached partitions.
func (r *RDD[T]) Unpersist() {
	r.cacheMu.Lock()
	r.cacheData = nil
	r.dropped = nil
	r.cached = false
	r.cacheMu.Unlock()
}

// DropCachedPartition simulates losing a cached partition (an executor
// death); a later access recomputes it from lineage.
func (r *RDD[T]) DropCachedPartition(p int) {
	r.cacheMu.Lock()
	if r.cacheData != nil && r.cacheData[p] != nil {
		r.cacheData[p] = nil
		r.dropped[p] = true
	}
	r.cacheMu.Unlock()
}

// runRecorder tracks completed-task durations for one job, feeding the
// speculation heuristic's median.
type runRecorder struct {
	mu   sync.Mutex
	durs []time.Duration
}

func (rec *runRecorder) record(d time.Duration) {
	rec.mu.Lock()
	rec.durs = append(rec.durs, d)
	rec.mu.Unlock()
}

// median returns the median completed duration; ok is false with fewer
// than two samples (no basis to call anything a straggler yet).
func (rec *runRecorder) median() (time.Duration, bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.durs) < 2 {
		return 0, false
	}
	sorted := append([]time.Duration(nil), rec.durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2], true
}

// runStage runs task(i) for every i in [0, n) on min(parallelism, n) worker
// goroutines that pull the next index from a shared counter, so a stack grows
// once per worker per stage, not once per task. It is fail-fast: the first
// error cancels the context the tasks run under and no further index is
// picked up. The workers belong to the stage, not to the Context: a reduce
// task materializes its shuffle's map side — a nested stage — from inside its
// own slot, which a shared fixed pool would deadlock on. queued is how long
// the stage had an index pending while every worker was busy (zero when
// n <= parallelism).
func (c *Context) runStage(jc context.Context, n int, task func(runCtx context.Context, i int) error) (queued time.Duration, err error) {
	runCtx, cancel := context.WithCancel(jc)
	defer cancel()
	workers := min(c.parallelism, n)
	var next, waited atomic.Int64 // waited: when the last index that had to wait was picked up
	var failOnce sync.Once
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for runCtx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if i >= workers {
					waited.Store(int64(time.Since(start)))
				}
				if terr := task(runCtx, i); terr != nil {
					failOnce.Do(func() { err = terr })
					cancel() // fail fast: tear down siblings, stop pick-ups
					return
				}
			}
		}()
	}
	wg.Wait()
	if err == nil {
		err = jc.Err()
	}
	return time.Duration(waited.Load()), err
}

// computeAll materializes all partitions on the stage runner, fail-fast: the
// first terminal task failure cancels all in-flight tasks and stops pending
// partitions being picked up, and the error is returned to the caller. With
// speculation enabled, partitions running far beyond the median completed
// time get a backup attempt, first finisher wins.
func (r *RDD[T]) computeAll(jc context.Context) ([][]T, error) {
	jc, jobID, _ := r.ctx.beginJob(jc)
	stageStart := time.Now()
	out := make([][]T, r.numPart)
	rec := &runRecorder{}
	queued, err := r.ctx.runStage(jc, r.numPart, func(runCtx context.Context, p int) (err error) {
		out[p], err = r.runPartition(runCtx, p, rec)
		return err
	})
	if r.ctx.Trace() != nil || traceSink(jc) != nil {
		span := metrics.Span{
			Kind:     metrics.SpanStage,
			Name:     r.name,
			Job:      jobID,
			Start:    metrics.Since(stageStart),
			QueuedNS: queued.Nanoseconds(),
			DurNS:    time.Since(stageStart).Nanoseconds(),
			Tasks:    r.numPart,
		}
		if err != nil {
			span.Err = err.Error()
		} else {
			for _, part := range out {
				span.Records += records(part)
			}
		}
		r.ctx.emitSpan(jc, span)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runPartition runs one partition of a job, with straggler speculation
// when enabled.
func (r *RDD[T]) runPartition(jc context.Context, p int, rec *runRecorder) ([]T, error) {
	enabled, mult, min := r.ctx.speculation()
	start := time.Now()
	if !enabled {
		data, err := r.partition(jc, p)
		if err == nil {
			rec.record(time.Since(start))
		}
		return data, err
	}

	type result struct {
		data   []T
		err    error
		backup bool
	}
	results := make(chan result, 2)
	launch := func(firstAttempt int, backup bool) {
		go func() {
			data, err := r.partitionAttempt(jc, p, firstAttempt)
			results <- result{data: data, err: err, backup: backup}
		}()
	}
	launch(1, false)
	pending := 1
	backupLaunched := false
	ticker := time.NewTicker(specCheckInterval)
	defer ticker.Stop()
	var firstFailure error
	for {
		select {
		case res := <-results:
			if res.err == nil {
				if res.backup {
					r.ctx.speculativeWins.Add(1)
				}
				rec.record(time.Since(start))
				return res.data, nil
			}
			pending--
			if firstFailure == nil {
				firstFailure = res.err
			}
			if pending == 0 {
				return nil, firstFailure
			}
		case <-ticker.C:
			if backupLaunched {
				continue
			}
			med, ok := rec.median()
			if !ok {
				continue
			}
			elapsed := time.Since(start)
			if elapsed >= min && float64(elapsed) >= mult*float64(med) {
				backupLaunched = true
				pending++
				r.ctx.speculativeLaunches.Add(1)
				// Backup attempts are numbered from maxTaskAttempts+1 so
				// hooks can distinguish them from the primary's attempts.
				launch(maxTaskAttempts+1, true)
			}
		}
	}
}

// Collect returns all elements, concatenated in partition order.
func (r *RDD[T]) Collect() ([]T, error) {
	return r.CollectContext(context.Background())
}

// emitJobSpan records the end-to-end span of one top-level action.
func (r *RDD[T]) emitJobSpan(jc context.Context, job int64, action string, start time.Time, parts [][]T, err error) {
	if r.ctx.Trace() == nil && traceSink(jc) == nil {
		return
	}
	span := metrics.Span{
		Kind:  metrics.SpanJob,
		Name:  action + ":" + r.name,
		Job:   job,
		Start: metrics.Since(start),
		DurNS: time.Since(start).Nanoseconds(),
	}
	for _, p := range parts {
		span.Records += records(p)
	}
	if err != nil {
		span.Err = err.Error()
	}
	r.ctx.emitSpan(jc, span)
}

// Batched is implemented by a pointer to an element that stands for several
// records — a task's output boxed a batch at a time — so spans count its
// records.
type Batched interface{ Records() int }

// records is how many records a partition holds: its elements, or their
// records when they are batches.
func records[T any](part []T) int64 {
	if _, ok := any((*T)(nil)).(Batched); !ok {
		return int64(len(part))
	}
	var n int64
	for i := range part {
		n += int64(any(&part[i]).(Batched).Records())
	}
	return n
}

// CollectContext is Collect under a job context: cancelling jc (or its
// deadline expiring) cancels the job's pending and in-flight tasks and
// returns the context's error.
func (r *RDD[T]) CollectContext(jc context.Context) ([]T, error) {
	jc, jobID, top := r.ctx.beginJob(jc)
	start := time.Now()
	parts, err := r.computeAll(jc)
	if top {
		r.emitJobSpan(jc, jobID, "collect", start, parts, err)
	}
	if err != nil {
		return nil, err
	}
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// CollectPartitionsContext materializes the RDD preserving partition
// boundaries — the adaptive executor's stage action. It shares
// CollectContext's retry, cancellation and tracing semantics; only the
// shape of the result differs.
func (r *RDD[T]) CollectPartitionsContext(jc context.Context) ([][]T, error) {
	jc, jobID, top := r.ctx.beginJob(jc)
	start := time.Now()
	parts, err := r.computeAll(jc)
	if top {
		r.emitJobSpan(jc, jobID, "stage", start, parts, err)
	}
	if err != nil {
		return nil, err
	}
	return parts, nil
}

// Count returns the number of records: elements, or the records of Batched
// ones.
func (r *RDD[T]) Count() (int64, error) {
	return r.CountContext(context.Background())
}

// CountContext is Count under a job context.
func (r *RDD[T]) CountContext(jc context.Context) (int64, error) {
	jc, jobID, top := r.ctx.beginJob(jc)
	start := time.Now()
	parts, err := r.computeAll(jc)
	if top {
		r.emitJobSpan(jc, jobID, "count", start, parts, err)
	}
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range parts {
		n += records(p)
	}
	return n, nil
}

// ForeachPartition runs f over each computed partition (computed in
// parallel, f applied in partition order).
func (r *RDD[T]) ForeachPartition(f func(p int, data []T)) error {
	return r.ForeachPartitionContext(context.Background(), f)
}

// ForeachPartitionContext is ForeachPartition under a job context.
func (r *RDD[T]) ForeachPartitionContext(jc context.Context, f func(p int, data []T)) error {
	jc, jobID, top := r.ctx.beginJob(jc)
	start := time.Now()
	parts, err := r.computeAll(jc)
	if top {
		r.emitJobSpan(jc, jobID, "foreach", start, parts, err)
	}
	if err != nil {
		return err
	}
	for p, data := range parts {
		f(p, data)
	}
	return nil
}
