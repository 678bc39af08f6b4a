package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// startCluster spins up a coordinator plus n in-process workers whose
// handlers come from mkHandlers (called once per worker with its index).
// In-process workers over real TCP exercise the full wire path; the
// multi-process harness in internal/experiments covers actual SIGKILL.
func startCluster(t *testing.T, n int, mkHandlers func(i int, w *Worker)) (*Coordinator, []*Worker, context.CancelFunc) {
	t.Helper()
	coord := NewCoordinator(CoordinatorConfig{
		HeartbeatTimeout:   500 * time.Millisecond,
		TaskTimeout:        10 * time.Second,
		BlacklistThreshold: 3,
		BlacklistCooldown:  200 * time.Millisecond,
	})
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("coordinator start: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	workers := make([]*Worker, n)
	for i := 0; i < n; i++ {
		w := NewWorker(WorkerConfig{
			ID:                fmt.Sprintf("w%d", i),
			CoordinatorAddr:   addr.String(),
			HeartbeatInterval: 100 * time.Millisecond,
		})
		if mkHandlers != nil {
			mkHandlers(i, w)
		}
		workers[i] = w
		go w.Run(ctx)
	}
	waitFor(t, 5*time.Second, func() bool { return coord.NumWorkers() == n })
	t.Cleanup(func() {
		cancel()
		coord.Close()
	})
	return coord, workers, cancel
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition not met within %v", timeout)
}

func echoHandler(i int, w *Worker) {
	w.Register("echo", func(ctx context.Context, task *Task) ([]byte, error) {
		return append([]byte(fmt.Sprintf("w%d:", i)), task.Payload...), nil
	})
}

func TestDispatchAndResult(t *testing.T) {
	coord, _, _ := startCluster(t, 3, echoHandler)
	for p := 0; p < 9; p++ {
		res, worker, err := coord.RunTask(context.Background(), "echo", p, []byte("hi"))
		if err != nil {
			t.Fatalf("task %d: %v", p, err)
		}
		if !strings.HasSuffix(string(res), ":hi") {
			t.Fatalf("task %d: result %q", p, res)
		}
		if worker == "" {
			t.Fatalf("task %d: empty worker id", p)
		}
	}
	if !coord.Available() {
		t.Fatal("cluster should be available")
	}
}

func TestPartitionAffinity(t *testing.T) {
	coord, _, _ := startCluster(t, 3, echoHandler)
	// The same hint must land on the same worker while membership is stable.
	_, first, err := coord.RunTask(context.Background(), "echo", 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_, again, err := coord.RunTask(context.Background(), "echo", 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("hint 5 moved from %s to %s with stable membership", first, again)
		}
	}
}

func TestNoWorkers(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{})
	if _, err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if coord.Available() {
		t.Fatal("empty cluster should not be available")
	}
	_, _, err := coord.RunTask(context.Background(), "echo", 0, nil)
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

func TestWorkerLossFailsInflightAndEvicts(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	coord, workers, _ := startCluster(t, 2, func(i int, w *Worker) {
		w.Register("stall", func(ctx context.Context, task *Task) ([]byte, error) {
			<-block
			return nil, nil
		})
	})
	done := make(chan error, 1)
	go func() {
		// Hint 0 with 2 sorted healthy workers ("w0","w1") → w0.
		_, _, err := coord.RunTask(context.Background(), "stall", 0, nil)
		done <- err
	}()
	waitFor(t, 2*time.Second, func() bool {
		for _, w := range coord.Workers() {
			if w.Inflight > 0 {
				return true
			}
		}
		return false
	})
	workers[0].Close() // simulate process death: connection drops
	err := <-done
	var lost *WorkerLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want WorkerLostError", err)
	}
	if lost.Worker != "w0" {
		t.Fatalf("lost worker = %q, want w0", lost.Worker)
	}
	waitFor(t, 2*time.Second, func() bool { return coord.NumWorkers() == 1 })
	once.Do(func() { close(block) })
}

func TestHeartbeatEviction(t *testing.T) {
	coord, workers, _ := startCluster(t, 2, echoHandler)
	// Kill a worker's connection without a goodbye: eviction must come from
	// the read-error path or, with a silent hang, the heartbeat janitor.
	workers[1].Close()
	waitFor(t, 3*time.Second, func() bool { return coord.NumWorkers() == 1 })
	infos := coord.Workers()
	if len(infos) != 1 || infos[0].ID != "w0" {
		t.Fatalf("surviving membership = %+v", infos)
	}
	// Work keeps flowing on the survivor.
	_, worker, err := coord.RunTask(context.Background(), "echo", 0, []byte("x"))
	if err != nil || worker != "w0" {
		t.Fatalf("post-eviction task: worker=%q err=%v", worker, err)
	}
}

func TestBlacklisting(t *testing.T) {
	coord, _, _ := startCluster(t, 2, func(i int, w *Worker) {
		w.Register("flaky", func(ctx context.Context, task *Task) ([]byte, error) {
			if i == 0 {
				return nil, fmt.Errorf("induced failure")
			}
			return []byte("ok"), nil
		})
	})
	// Hammer w0 (hint 0 → "w0" in sorted membership) until it blacklists.
	for i := 0; i < 3; i++ {
		coord.RunTask(context.Background(), "flaky", 0, nil)
	}
	waitFor(t, 2*time.Second, func() bool {
		for _, w := range coord.Workers() {
			if w.ID == "w0" && w.Banned {
				return true
			}
		}
		return false
	})
	// While banned, hint 0 re-routes to the remaining healthy worker.
	res, worker, err := coord.RunTask(context.Background(), "flaky", 0, nil)
	if err != nil || string(res) != "ok" || worker != "w1" {
		t.Fatalf("banned re-route: res=%q worker=%q err=%v", res, worker, err)
	}
	// After the cooldown the worker returns to rotation.
	waitFor(t, 2*time.Second, func() bool {
		for _, w := range coord.Workers() {
			if w.ID == "w0" && !w.Banned {
				return true
			}
		}
		return false
	})
}

func TestFallbackError(t *testing.T) {
	coord, _, _ := startCluster(t, 1, func(i int, w *Worker) {
		w.Register("nope", func(ctx context.Context, task *Task) ([]byte, error) {
			return nil, Fallback(fmt.Errorf("cannot run this"))
		})
	})
	_, _, err := coord.RunTask(context.Background(), "nope", 0, nil)
	if !IsFallback(err) {
		t.Fatalf("err = %v, want fallback", err)
	}
	// Unknown kinds are also fallback, not retryable.
	_, _, err = coord.RunTask(context.Background(), "no-such-kind", 0, nil)
	if !IsFallback(err) {
		t.Fatalf("unknown kind err = %v, want fallback", err)
	}
}

func TestHandlerPanicIsRetryableError(t *testing.T) {
	coord, _, _ := startCluster(t, 1, func(i int, w *Worker) {
		w.Register("boom", func(ctx context.Context, task *Task) ([]byte, error) {
			panic("kaboom")
		})
	})
	_, _, err := coord.RunTask(context.Background(), "boom", 0, nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeRetryable {
		t.Fatalf("err = %v, want retryable RemoteError", err)
	}
	if !strings.Contains(re.Message, "kaboom") {
		t.Fatalf("panic message lost: %q", re.Message)
	}
	// The worker survived the panic.
	if coord.NumWorkers() != 1 {
		t.Fatal("worker died on handler panic")
	}
}

func TestShuffleBlocksAcrossWorkers(t *testing.T) {
	_, workers, _ := startCluster(t, 3, echoHandler)
	ctx := context.Background()
	// w0 publishes a shuffle; w2 fetches a bucket it does not hold locally.
	if err := workers[0].Shuffle().Publish(ctx, "q1/shuffle-0", [][]byte{[]byte("b0"), []byte("b1")}); err != nil {
		t.Fatalf("publish: %v", err)
	}
	var data []byte
	var ok bool
	waitFor(t, 2*time.Second, func() bool {
		var err error
		data, ok, err = workers[2].Shuffle().FetchBucket(ctx, "q1/shuffle-0", 1)
		return err == nil && ok
	})
	if string(data) != "b1" {
		t.Fatalf("fetched %q, want b1", data)
	}
	// A bucket nobody advertises reports not-found, not an error.
	_, ok, err := workers[2].Shuffle().FetchBucket(ctx, "no-such-shuffle", 0)
	if err != nil || ok {
		t.Fatalf("missing shuffle: ok=%v err=%v", ok, err)
	}
}

func TestShuffleFetchAfterOwnerDeath(t *testing.T) {
	coord, workers, _ := startCluster(t, 3, echoHandler)
	ctx := context.Background()
	if err := workers[1].Shuffle().Publish(ctx, "q2/shuffle-0", [][]byte{[]byte("only")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		addrs, err := workers[0].Locate(ctx, "q2/shuffle-0")
		return err == nil && len(addrs) == 1
	})
	workers[1].Close()
	waitFor(t, 2*time.Second, func() bool { return coord.NumWorkers() == 2 })
	// The advertisement died with the worker: fetch reports not-found so
	// the shuffle layer recomputes from lineage instead of hanging.
	_, ok, err := workers[0].Shuffle().FetchBucket(ctx, "q2/shuffle-0", 0)
	if err != nil || ok {
		t.Fatalf("dead owner fetch: ok=%v err=%v", ok, err)
	}
}

func TestFrameFaultDropAndCorrupt(t *testing.T) {
	coord, _, _ := startCluster(t, 2, echoHandler)
	// Drop every heartbeat from w1: the janitor must evict it even though
	// the TCP connection stays open.
	coord.SetFrameFaultHook(func(workerID string, frameType byte) FrameFault {
		if workerID == "w1" && frameType == fHeartbeat {
			return FrameDrop
		}
		return FramePass
	})
	waitFor(t, 3*time.Second, func() bool { return coord.NumWorkers() == 1 })
	coord.SetFrameFaultHook(nil)
	// Corrupt w0's next task result: the decode fails, w0 is evicted, and
	// the in-flight task fails as worker-lost (retryable upstream).
	coord.SetFrameFaultHook(func(workerID string, frameType byte) FrameFault {
		if frameType == fTaskResult {
			return FrameCorrupt
		}
		return FramePass
	})
	_, _, err := coord.RunTask(context.Background(), "echo", 0, []byte("x"))
	var lost *WorkerLostError
	if !errors.As(err, &lost) {
		t.Fatalf("corrupt-result err = %v, want WorkerLostError", err)
	}
}

func TestWorkerReplacementRegistration(t *testing.T) {
	coord, _, cancel := startCluster(t, 1, echoHandler)
	cancel() // kill the first incarnation's ctx
	waitFor(t, 2*time.Second, func() bool { return coord.NumWorkers() == 0 })
	// A restarted worker reuses its id; the coordinator replaces the entry.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	w := NewWorker(WorkerConfig{ID: "w0", CoordinatorAddr: coord.Addr(), HeartbeatInterval: 100 * time.Millisecond})
	echoHandler(0, w)
	go w.Run(ctx2)
	waitFor(t, 2*time.Second, func() bool { return coord.NumWorkers() == 1 })
	res, worker, err := coord.RunTask(context.Background(), "echo", 0, []byte("back"))
	if err != nil || worker != "w0" || !strings.HasSuffix(string(res), ":back") {
		t.Fatalf("replacement: res=%q worker=%q err=%v", res, worker, err)
	}
}

func TestBlockStoreEviction(t *testing.T) {
	s := NewBlockStore(100)
	s.Put("a/0", make([]byte, 60))
	s.Put("b/0", make([]byte, 60)) // pushes past 100: group a evicts
	if _, ok := s.Get("a/0"); ok {
		t.Fatal("group a should have been evicted")
	}
	if _, ok := s.Get("b/0"); !ok {
		t.Fatal("group b (being written) must survive")
	}
	if s.Bytes() != 60 {
		t.Fatalf("bytes = %d, want 60", s.Bytes())
	}
	// Overwrites replace, not accumulate.
	s.Put("b/0", make([]byte, 10))
	if s.Bytes() != 10 {
		t.Fatalf("bytes after overwrite = %d, want 10", s.Bytes())
	}
	s.DropGroup("b")
	if s.NumBlocks() != 0 || s.Bytes() != 0 {
		t.Fatalf("after drop: blocks=%d bytes=%d", s.NumBlocks(), s.Bytes())
	}
	// A key put three times (a retried map task) is one key of its group,
	// and evicting the group drops its block once.
	for _, n := range []int{30, 50, 40} {
		s.Put("c/0", make([]byte, n))
	}
	if grp := s.groups["c"]; len(grp.keys) != 1 || grp.bytes != 40 || s.Bytes() != 40 {
		t.Fatalf("after three puts of one key: keys=%v group bytes=%d bytes=%d", grp.keys, grp.bytes, s.Bytes())
	}
	s.Put("d/0", make([]byte, 70)) // pushes past 100: group c evicts
	if _, ok := s.Get("c/0"); ok || s.NumBlocks() != 1 || s.Bytes() != 70 || s.groups["c"] != nil {
		t.Fatalf("after evicting c: blocks=%d bytes=%d", s.NumBlocks(), s.Bytes())
	}
}

func TestCoordinatorCloseFailsTasks(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	coord, _, _ := startCluster(t, 1, func(i int, w *Worker) {
		w.Register("stall", func(ctx context.Context, task *Task) ([]byte, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		})
	})
	done := make(chan error, 1)
	go func() {
		_, _, err := coord.RunTask(context.Background(), "stall", 0, nil)
		done <- err
	}()
	waitFor(t, 2*time.Second, func() bool {
		ws := coord.Workers()
		return len(ws) == 1 && ws[0].Inflight > 0
	})
	coord.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("task survived coordinator close")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("task hung across coordinator close")
	}
}
