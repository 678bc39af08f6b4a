package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frame"
)

// Handler executes one task kind on a worker. The returned bytes travel
// back to the coordinator as the task result. Returning a *FallbackError
// tells the dispatching side to run the task locally instead; any other
// error is retryable.
type Handler func(ctx context.Context, task *Task) ([]byte, error)

// Task is one unit of dispatched work as seen by a worker handler.
type Task struct {
	ID      uint64
	Kind    string
	Payload []byte
}

// FallbackError wraps a cause that makes a task un-executable on this
// worker (unknown kind, un-plannable query, mismatched plan shape); the
// coordinator side degrades to local execution instead of retrying.
type FallbackError struct{ Cause error }

func (e *FallbackError) Error() string { return e.Cause.Error() }
func (e *FallbackError) Unwrap() error { return e.Cause }

// Fallback marks err as non-retryable-but-recoverable: run locally.
func Fallback(err error) error { return &FallbackError{Cause: err} }

// WorkerConfig tunes one worker process.
type WorkerConfig struct {
	// ID identifies the worker; "" lets the coordinator assign one.
	ID string
	// CoordinatorAddr is the coordinator's listen address.
	CoordinatorAddr string
	// HeartbeatInterval paces liveness frames. 0 = 1s. Keep it well under
	// the coordinator's HeartbeatTimeout.
	HeartbeatInterval time.Duration
	// MaxConcurrent bounds simultaneously executing handlers. 0 = 4.
	MaxConcurrent int
	// BlockStoreBytes bounds the shuffle block store. 0 = 256 MB.
	BlockStoreBytes int64
}

// Worker is one executor process: it registers with the coordinator,
// heartbeats, runs dispatched tasks through registered handlers, stores
// its shuffle map outputs in a BlockStore, and serves them to peers over
// its own block listener.
type Worker struct {
	cfg      WorkerConfig
	handlers map[string]Handler
	store    *BlockStore

	mu      sync.Mutex
	conn    net.Conn
	writeMu sync.Mutex
	blockLn net.Listener
	id      string
	closed  bool
	running map[uint64]context.CancelFunc
	locates map[uint64]chan []string
	wg      sync.WaitGroup

	reqSeq  atomic.Uint64
	beatSeq atomic.Uint64
}

// NewWorker builds a worker; register handlers, then call Run.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	return &Worker{
		cfg:      cfg,
		handlers: make(map[string]Handler),
		store:    NewBlockStore(cfg.BlockStoreBytes),
		running:  make(map[uint64]context.CancelFunc),
		locates:  make(map[uint64]chan []string),
	}
}

// Register installs the handler for one task kind (before Run).
func (w *Worker) Register(kind string, h Handler) {
	w.handlers[kind] = h
}

// Blocks returns the worker's shuffle block store.
func (w *Worker) Blocks() *BlockStore { return w.store }

// ID returns the coordinator-confirmed worker id ("" before Run).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

func (w *Worker) send(frameType byte, payload ...[]byte) error {
	w.mu.Lock()
	conn := w.conn
	w.mu.Unlock()
	if conn == nil {
		return ErrClosed
	}
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	return frame.Write(conn, frameType, payload...)
}

// Run connects to the coordinator, registers, and serves until ctx is
// cancelled or the coordinator connection dies. It blocks; run it in a
// goroutine (or as a process main). Returning nil means a clean shutdown.
func (w *Worker) Run(ctx context.Context) error {
	blockLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("cluster: worker block listener: %w", err)
	}
	defer blockLn.Close()
	go func() {
		for {
			conn, err := blockLn.Accept()
			if err != nil {
				return
			}
			go serveBlocks(conn, w.store)
		}
	}()

	conn, err := net.DialTimeout("tcp", w.cfg.CoordinatorAddr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("cluster: worker dial: %w", err)
	}
	defer conn.Close()

	regPayload := encodeRegister(registerMsg{
		ID:        w.cfg.ID,
		BlockAddr: blockLn.Addr().String(),
		PID:       int64(os.Getpid()),
	})
	if err := frame.Write(conn, fRegister, regPayload); err != nil {
		return fmt.Errorf("cluster: worker register: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	ft, payload, err := frame.Read(conn)
	if err != nil {
		return fmt.Errorf("cluster: worker register ack: %w", err)
	}
	if ft != fRegisterOK {
		return fmt.Errorf("cluster: worker register: unexpected frame type %d", ft)
	}
	id, err := decodeString(payload)
	if err != nil {
		return fmt.Errorf("cluster: worker register ack: %w", err)
	}
	conn.SetReadDeadline(time.Time{})

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	w.conn = conn
	w.blockLn = blockLn
	w.id = id
	w.mu.Unlock()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Heartbeats: liveness to the coordinator, and the ctx watchdog that
	// closes the connection (unblocking the read loop) on cancellation.
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(w.cfg.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-runCtx.Done():
				w.send(fGoodbye, encodeString("context cancelled"))
				conn.Close()
				return
			case <-t.C:
				if err := w.send(fHeartbeat, encodeUvarint(w.beatSeq.Add(1))); err != nil {
					return
				}
			}
		}
	}()

	sem := make(chan struct{}, w.cfg.MaxConcurrent)
	readErr := w.readLoop(runCtx, conn, sem)
	cancel()
	w.wg.Wait()
	if ctx.Err() != nil {
		return nil
	}
	return readErr
}

func (w *Worker) readLoop(ctx context.Context, conn net.Conn, sem chan struct{}) error {
	for {
		ft, payload, err := frame.Read(conn)
		if err != nil {
			return fmt.Errorf("cluster: worker connection lost: %w", err)
		}
		switch ft {
		case fTask:
			m, err := decodeTask(payload)
			if err != nil {
				return fmt.Errorf("cluster: worker: corrupt task frame: %w", err)
			}
			taskCtx, cancel := context.WithCancel(ctx)
			w.mu.Lock()
			w.running[m.TaskID] = cancel
			w.mu.Unlock()
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				defer func() {
					cancel()
					w.mu.Lock()
					delete(w.running, m.TaskID)
					w.mu.Unlock()
				}()
				sem <- struct{}{}
				defer func() { <-sem }()
				w.execute(taskCtx, m)
			}()
		case fCancel:
			taskID, err := decodeUvarint(payload)
			if err != nil {
				return fmt.Errorf("cluster: worker: corrupt cancel frame: %w", err)
			}
			w.mu.Lock()
			cancel := w.running[taskID]
			w.mu.Unlock()
			if cancel != nil {
				cancel()
			}
		case fLocated:
			m, err := decodeLocated(payload)
			if err != nil {
				return fmt.Errorf("cluster: worker: corrupt located frame: %w", err)
			}
			w.mu.Lock()
			ch := w.locates[m.ReqID]
			delete(w.locates, m.ReqID)
			w.mu.Unlock()
			if ch != nil {
				ch <- m.Addrs
			}
		case fGoodbye:
			return nil
		default:
			return fmt.Errorf("cluster: worker: unexpected frame type %d", ft)
		}
	}
}

// execute runs one task through its handler, converting panics and errors
// into task-error frames. A panicking handler must not kill the worker:
// the panic becomes a retryable remote error, mirroring the in-process
// executor's recover behavior.
func (w *Worker) execute(ctx context.Context, m taskMsg) {
	var result []byte
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("task panic: %v", r)
			}
		}()
		h, ok := w.handlers[m.Kind]
		if !ok {
			err = Fallback(fmt.Errorf("unknown task kind %q", m.Kind))
			return
		}
		result, err = h(ctx, &Task{ID: m.TaskID, Kind: m.Kind, Payload: m.Payload})
	}()
	if ctx.Err() != nil && err != nil {
		// Cancelled (coordinator gave up or shutdown): no one is waiting.
		return
	}
	if err != nil {
		code := CodeRetryable
		var fe *FallbackError
		if errors.As(err, &fe) {
			code = CodeFallback
		}
		w.send(fTaskError, encodeTaskError(taskErrorMsg{TaskID: m.TaskID, Code: code, Message: err.Error()}))
		return
	}
	w.send(fTaskResult, taskResultHead(m.TaskID, len(result)), result) // the result is framed where it lies
}

// Advertise tells the coordinator this worker's block store holds blocks
// under key (a shuffle id); peers' Locate calls will then return this
// worker's block address.
func (w *Worker) Advertise(key string) error {
	return w.send(fAdvertise, encodeString(key))
}

// Locate asks the coordinator which peer block servers hold key. The
// returned addresses exclude this worker. An empty slice means no live
// peer advertises the key.
func (w *Worker) Locate(ctx context.Context, key string) ([]string, error) {
	reqID := w.reqSeq.Add(1)
	ch := make(chan []string, 1)
	w.mu.Lock()
	w.locates[reqID] = ch
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.locates, reqID)
		w.mu.Unlock()
	}()
	if err := w.send(fLocate, encodeLocate(locateMsg{ReqID: reqID, Key: key})); err != nil {
		return nil, err
	}
	timer := time.NewTimer(5 * time.Second)
	defer timer.Stop()
	select {
	case addrs := <-ch:
		return addrs, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-timer.C:
		return nil, fmt.Errorf("cluster: locate %q: timeout", key)
	}
}

// Close shuts the worker down (also triggered by cancelling Run's ctx).
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	conn := w.conn
	ln := w.blockLn
	w.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if ln != nil {
		ln.Close()
	}
	return nil
}

// ShuffleService adapts a worker's block store + peer fetch path to the
// rdd layer's shuffle hooks: map tasks Publish their encoded buckets,
// reduce tasks FetchBucket from whichever worker produced them. A failed
// fetch (dead peer, evicted block) reports not-found, and the shuffle
// layer falls back to map-side recompute — worker loss costs recompute
// time, never correctness.
type ShuffleService struct {
	w *Worker
}

// Shuffle returns the worker's shuffle service.
func (w *Worker) Shuffle() *ShuffleService { return &ShuffleService{w: w} }

// Publish stores the encoded buckets of one shuffle's map output locally
// and advertises the shuffle to the coordinator.
func (s *ShuffleService) Publish(ctx context.Context, shuffleID string, buckets [][]byte) error {
	for i, b := range buckets {
		s.w.store.Put(fmt.Sprintf("%s/%d", shuffleID, i), b)
	}
	return s.w.Advertise(shuffleID)
}

// FetchBucket retrieves one bucket of a shuffle: local store first, then
// every advertised peer. ok=false (with nil error) means the bucket is
// nowhere to be found and the caller should recompute it from lineage.
func (s *ShuffleService) FetchBucket(ctx context.Context, shuffleID string, bucket int) ([]byte, bool, error) {
	key := fmt.Sprintf("%s/%d", shuffleID, bucket)
	if b, ok := s.w.store.Get(key); ok {
		return b, true, nil
	}
	addrs, err := s.w.Locate(ctx, shuffleID)
	if err != nil {
		return nil, false, err
	}
	for _, addr := range addrs {
		if b, err := FetchBlock(addr, key, 5*time.Second); err == nil {
			return b, true, nil
		}
	}
	return nil, false, nil
}
