package cluster

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frame"
	"repro/internal/metrics"
)

// CoordinatorConfig tunes membership and placement.
type CoordinatorConfig struct {
	// HeartbeatTimeout evicts a worker whose last heartbeat (or any other
	// frame) is older than this. 0 = 5s.
	HeartbeatTimeout time.Duration
	// TaskTimeout bounds one dispatched task's execution; a worker that
	// holds a task longer is treated as lost (hung process). 0 = 2m.
	TaskTimeout time.Duration
	// BlacklistThreshold is the consecutive-failure count after which a
	// worker stops receiving tasks for BlacklistCooldown. 0 = 3.
	BlacklistThreshold int
	// BlacklistCooldown is how long a blacklisted worker sits out. 0 = 5s.
	BlacklistCooldown time.Duration
	// Registry receives cluster metrics under the "cluster." scope (nil =
	// private registry).
	Registry *metrics.Registry
}

// FrameFault is a chaos-injection decision about one inbound frame.
type FrameFault int

const (
	// FramePass delivers the frame unchanged.
	FramePass FrameFault = iota
	// FrameDrop silently discards the frame (a lossy network).
	FrameDrop
	// FrameCorrupt models a checksum failure (a bit flip in transit, caught
	// by the frame CRC): the frame never reaches the decoder and the
	// connection is treated as compromised — the worker is evicted and its
	// in-flight tasks fail as worker-lost.
	FrameCorrupt
)

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	id        string
	blockAddr string
	pid       int64
	conn      net.Conn
	writeMu   sync.Mutex

	mu        sync.Mutex
	lastSeen  time.Time
	inflight  map[uint64]chan taskOutcome
	failures  int       // consecutive task failures (blacklisting input)
	banUntil  time.Time // blacklisted while now < banUntil
	evicted   bool
	evictedAt string // reason, for diagnostics
}

type taskOutcome struct {
	payload []byte
	err     error
}

func (w *workerState) send(frameType byte, payload []byte) error {
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	return frame.Write(w.conn, frameType, payload)
}

// WorkerInfo is a snapshot row of cluster membership.
type WorkerInfo struct {
	ID        string
	BlockAddr string
	PID       int64
	Inflight  int
	Failures  int
	Banned    bool
}

// Coordinator accepts worker registrations, tracks membership via
// heartbeats, dispatches tasks with blacklisting-aware placement, and
// maintains the shuffle-block location registry. It is the cluster-mode
// DAGScheduler backend: RunTask failures caused by dying workers surface
// as retryable errors that the rdd executor's existing retry machinery
// absorbs.
type Coordinator struct {
	cfg CoordinatorConfig

	ln      net.Listener
	mu      sync.Mutex
	workers map[string]*workerState
	// shuffles maps a shuffle id to the worker ids that advertised its
	// blocks; evicting a worker removes its advertisements.
	shuffles map[string]map[string]bool
	closed   bool
	wg       sync.WaitGroup

	taskSeq   atomic.Uint64
	workerSeq atomic.Int64

	faultMu   sync.Mutex
	faultHook func(workerID string, frameType byte) FrameFault

	// metrics
	mRegistered *metrics.Counter
	mEvicted    *metrics.Counter
	mHeartbeats *metrics.Counter
	mDispatched *metrics.Counter
	mCompleted  *metrics.Counter
	mFailed     *metrics.Counter
	mLost       *metrics.Counter
	mBlacklists *metrics.Counter
	mDropped    *metrics.Counter
	mCorrupted  *metrics.Counter
	mAdvertised *metrics.Counter
	scope       *metrics.Scope
}

// NewCoordinator builds a coordinator; call Start to listen.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 5 * time.Second
	}
	if cfg.TaskTimeout <= 0 {
		cfg.TaskTimeout = 2 * time.Minute
	}
	if cfg.BlacklistThreshold <= 0 {
		cfg.BlacklistThreshold = 3
	}
	if cfg.BlacklistCooldown <= 0 {
		cfg.BlacklistCooldown = 5 * time.Second
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := reg.Scoped("cluster")
	return &Coordinator{
		cfg:         cfg,
		workers:     make(map[string]*workerState),
		shuffles:    make(map[string]map[string]bool),
		mRegistered: s.Counter("workers.registered"),
		mEvicted:    s.Counter("workers.evicted"),
		mHeartbeats: s.Counter("heartbeats"),
		mDispatched: s.Counter("tasks.dispatched"),
		mCompleted:  s.Counter("tasks.completed"),
		mFailed:     s.Counter("tasks.failed"),
		mLost:       s.Counter("tasks.worker_lost"),
		mBlacklists: s.Counter("workers.blacklisted"),
		mDropped:    s.Counter("frames.dropped"),
		mCorrupted:  s.Counter("frames.corrupt"),
		mAdvertised: s.Counter("shuffle.advertised"),
		scope:       s,
	}
}

// SetFrameFaultHook installs (or clears, with nil) the chaos hook consulted
// for every inbound worker frame.
func (c *Coordinator) SetFrameFaultHook(hook func(workerID string, frameType byte) FrameFault) {
	c.faultMu.Lock()
	c.faultHook = hook
	c.faultMu.Unlock()
}

func (c *Coordinator) frameFault(workerID string, frameType byte) FrameFault {
	c.faultMu.Lock()
	hook := c.faultHook
	c.faultMu.Unlock()
	if hook == nil {
		return FramePass
	}
	return hook(workerID, frameType)
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and serves
// worker registrations; it returns the bound address.
func (c *Coordinator) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ln.Close()
		return nil, ErrClosed
	}
	c.ln = ln
	c.mu.Unlock()
	c.wg.Add(2)
	go c.acceptLoop(ln)
	go c.janitor()
	return ln.Addr(), nil
}

// Addr returns the listen address ("" before Start).
func (c *Coordinator) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Close stops the coordinator: the listener closes, every worker gets a
// goodbye frame, and all in-flight tasks fail with worker-lost errors.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ln := c.ln
	var ws []*workerState
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	c.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, w := range ws {
		w.send(fGoodbye, encodeString("coordinator shutting down"))
		c.evict(w, "coordinator shutdown")
	}
	c.wg.Wait()
	return nil
}

func (c *Coordinator) acceptLoop(ln net.Listener) {
	defer c.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handleConn(conn)
		}()
	}
}

// janitor evicts workers whose last frame is older than the heartbeat
// timeout — the deadline-driven membership the protocol's liveness rests
// on when a peer hangs without closing its connection.
func (c *Coordinator) janitor() {
	defer c.wg.Done()
	interval := c.cfg.HeartbeatTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for range t.C {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		var stale []*workerState
		now := time.Now()
		for _, w := range c.workers {
			w.mu.Lock()
			if now.Sub(w.lastSeen) > c.cfg.HeartbeatTimeout {
				stale = append(stale, w)
			}
			w.mu.Unlock()
		}
		c.mu.Unlock()
		for _, w := range stale {
			c.evict(w, "heartbeat timeout")
		}
	}
}

// handleConn serves one worker connection: registration, then the frame
// loop. Any read error, protocol violation or corrupt frame evicts the
// worker — in-flight tasks fail as worker-lost and retry elsewhere.
func (c *Coordinator) handleConn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	ft, payload, err := frame.Read(conn)
	if err != nil || ft != fRegister {
		conn.Close()
		return
	}
	reg, err := decodeRegister(payload)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	id := reg.ID
	if id == "" {
		id = fmt.Sprintf("worker-%d", c.workerSeq.Add(1))
	}
	w := &workerState{
		id:        id,
		blockAddr: reg.BlockAddr,
		pid:       reg.PID,
		conn:      conn,
		lastSeen:  time.Now(),
		inflight:  make(map[uint64]chan taskOutcome),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	if old, ok := c.workers[id]; ok {
		// Replacement registration under the same id (a restarted worker):
		// the old incarnation is dead by definition.
		c.mu.Unlock()
		c.evict(old, "replaced by new registration")
		c.mu.Lock()
	}
	c.workers[id] = w
	c.mu.Unlock()
	c.mRegistered.Inc()
	if err := w.send(fRegisterOK, encodeString(id)); err != nil {
		c.evict(w, "registration ack failed")
		return
	}
	c.readLoop(w)
}

func (c *Coordinator) readLoop(w *workerState) {
	for {
		ft, payload, err := frame.Read(w.conn)
		if err != nil {
			c.evict(w, fmt.Sprintf("connection lost: %v", err))
			return
		}
		switch c.frameFault(w.id, ft) {
		case FrameDrop:
			c.mDropped.Inc()
			continue
		case FrameCorrupt:
			c.mCorrupted.Inc()
			c.evict(w, "corrupt frame")
			return
		}
		w.mu.Lock()
		w.lastSeen = time.Now()
		w.mu.Unlock()
		switch ft {
		case fHeartbeat:
			if _, err := decodeUvarint(payload); err != nil {
				c.evict(w, "corrupt heartbeat")
				return
			}
			c.mHeartbeats.Inc()
		case fTaskResult:
			m, err := decodeTaskResult(payload)
			if err != nil {
				c.evict(w, "corrupt task result")
				return
			}
			c.deliver(w, m.TaskID, taskOutcome{payload: m.Payload})
		case fTaskError:
			m, err := decodeTaskError(payload)
			if err != nil {
				c.evict(w, "corrupt task error")
				return
			}
			c.deliver(w, m.TaskID, taskOutcome{err: &RemoteError{Worker: w.id, Code: m.Code, Message: m.Message}})
		case fAdvertise:
			key, err := decodeString(payload)
			if err != nil {
				c.evict(w, "corrupt advertisement")
				return
			}
			c.mu.Lock()
			set := c.shuffles[key]
			if set == nil {
				set = make(map[string]bool)
				c.shuffles[key] = set
			}
			set[w.id] = true
			c.mu.Unlock()
			c.mAdvertised.Inc()
		case fLocate:
			m, err := decodeLocate(payload)
			if err != nil {
				c.evict(w, "corrupt locate")
				return
			}
			addrs := c.locate(m.Key, w.id)
			if err := w.send(fLocated, encodeLocated(locatedMsg{ReqID: m.ReqID, Addrs: addrs})); err != nil {
				c.evict(w, "locate reply failed")
				return
			}
		case fGoodbye:
			reason, _ := decodeString(payload)
			c.evict(w, "worker said goodbye: "+reason)
			return
		default:
			c.evict(w, fmt.Sprintf("unexpected frame type %d", ft))
			return
		}
	}
}

// locate returns the block addresses of live workers advertising key,
// excluding the asking worker (it would have served itself locally).
func (c *Coordinator) locate(key, askerID string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var addrs []string
	for id := range c.shuffles[key] {
		if id == askerID {
			continue
		}
		if w, ok := c.workers[id]; ok && w.blockAddr != "" {
			addrs = append(addrs, w.blockAddr)
		}
	}
	sort.Strings(addrs)
	return addrs
}

// deliver routes a task outcome to its waiter and updates the worker's
// consecutive-failure count (the blacklisting input).
func (c *Coordinator) deliver(w *workerState, taskID uint64, out taskOutcome) {
	w.mu.Lock()
	ch := w.inflight[taskID]
	delete(w.inflight, taskID)
	if ch != nil {
		if out.err != nil {
			w.failures++
			if w.failures >= c.cfg.BlacklistThreshold {
				w.banUntil = time.Now().Add(c.cfg.BlacklistCooldown)
				w.failures = 0
				c.mBlacklists.Inc()
			}
		} else {
			w.failures = 0
		}
	}
	w.mu.Unlock()
	if ch != nil {
		ch <- out
	}
}

// evict removes a worker: closes its connection, fails every in-flight
// task with a WorkerLostError (retryable — the rdd executor re-runs them
// elsewhere), and drops its shuffle advertisements so reduce-side fetches
// stop being routed to a dead block server.
func (c *Coordinator) evict(w *workerState, reason string) {
	w.mu.Lock()
	if w.evicted {
		w.mu.Unlock()
		return
	}
	w.evicted = true
	w.evictedAt = reason
	pending := w.inflight
	w.inflight = make(map[uint64]chan taskOutcome)
	w.mu.Unlock()

	w.conn.Close()
	c.mu.Lock()
	if cur, ok := c.workers[w.id]; ok && cur == w {
		delete(c.workers, w.id)
	}
	for key, set := range c.shuffles {
		if set[w.id] {
			delete(set, w.id)
			if len(set) == 0 {
				delete(c.shuffles, key)
			}
		}
	}
	c.mu.Unlock()
	c.mEvicted.Inc()
	lost := &WorkerLostError{Worker: w.id, Reason: reason}
	for _, ch := range pending {
		c.mLost.Inc()
		ch <- taskOutcome{err: lost}
	}
}

// NumWorkers returns the live worker count.
func (c *Coordinator) NumWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// Workers returns a membership snapshot sorted by id.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	ws := make([]*workerState, 0, len(c.workers))
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	c.mu.Unlock()
	now := time.Now()
	out := make([]WorkerInfo, 0, len(ws))
	for _, w := range ws {
		w.mu.Lock()
		out = append(out, WorkerInfo{
			ID:        w.id,
			BlockAddr: w.blockAddr,
			PID:       w.pid,
			Inflight:  len(w.inflight),
			Failures:  w.failures,
			Banned:    now.Before(w.banUntil),
		})
		w.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Available reports whether at least one healthy, non-blacklisted worker
// is registered.
func (c *Coordinator) Available() bool {
	_, err := c.pick(0)
	return err == nil
}

// pick chooses a worker for a task: healthy workers sorted by id, with a
// partition-affinity preference (hint modulo the healthy count) so
// repeated queries place the same partition on the same worker and reuse
// its memoized shuffle state; ties and unavailable preferences fall back
// to the least-loaded worker.
func (c *Coordinator) pick(hint int) (*workerState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	now := time.Now()
	healthy := make([]*workerState, 0, len(c.workers))
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := c.workers[id]
		w.mu.Lock()
		ok := !w.evicted && !now.Before(w.banUntil)
		w.mu.Unlock()
		if ok {
			healthy = append(healthy, w)
		}
	}
	if len(healthy) == 0 {
		return nil, ErrNoWorkers
	}
	if hint >= 0 {
		return healthy[hint%len(healthy)], nil
	}
	best := healthy[0]
	bestLoad := best.load()
	for _, w := range healthy[1:] {
		if l := w.load(); l < bestLoad {
			best, bestLoad = w, l
		}
	}
	return best, nil
}

func (w *workerState) load() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.inflight)
}

// RunTask dispatches one task to a placement-chosen worker and waits for
// its outcome. hint ≥ 0 requests partition affinity; pass -1 for
// least-loaded placement. The returned worker id identifies where the
// task ran (or died) for error reporting and trace spans. Worker loss
// mid-task returns a *WorkerLostError; handler failures return a
// *RemoteError; no workers returns ErrNoWorkers.
func (c *Coordinator) RunTask(ctx context.Context, kind string, hint int, payload []byte) ([]byte, string, error) {
	w, err := c.pick(hint)
	if err != nil {
		return nil, "", err
	}
	res, err := c.runOn(ctx, w, kind, payload)
	return res, w.id, err
}

// Pick returns the id of the worker the coordinator would place a task
// with the given affinity hint on (hint < 0 = least-loaded). Callers that
// must run setup on a worker before dispatching to it (session init) pick
// first, prepare, then RunOnWorker.
func (c *Coordinator) Pick(hint int) (string, error) {
	w, err := c.pick(hint)
	if err != nil {
		return "", err
	}
	return w.id, nil
}

// RunOnWorker dispatches a task to a specific live worker by id — the
// session-sync path uses it to initialize exactly the worker about to
// receive query tasks.
func (c *Coordinator) RunOnWorker(ctx context.Context, workerID, kind string, payload []byte) ([]byte, error) {
	c.mu.Lock()
	w, ok := c.workers[workerID]
	c.mu.Unlock()
	if !ok {
		return nil, &WorkerLostError{Worker: workerID, Reason: "not registered"}
	}
	return c.runOn(ctx, w, kind, payload)
}

func (c *Coordinator) runOn(ctx context.Context, w *workerState, kind string, payload []byte) ([]byte, error) {
	taskID := c.taskSeq.Add(1)
	ch := make(chan taskOutcome, 1)
	w.mu.Lock()
	if w.evicted {
		w.mu.Unlock()
		return nil, &WorkerLostError{Worker: w.id, Reason: w.evictedAt}
	}
	w.inflight[taskID] = ch
	w.mu.Unlock()

	c.mDispatched.Inc()
	c.scope.Counter("tasks.worker." + w.id).Inc()
	if err := w.send(fTask, encodeTask(taskMsg{TaskID: taskID, Kind: kind, Payload: payload})); err != nil {
		c.evict(w, fmt.Sprintf("task send failed: %v", err))
		// evict delivered (or will deliver) the worker-lost outcome; make
		// sure we don't leave the entry behind if send raced eviction.
		w.mu.Lock()
		delete(w.inflight, taskID)
		w.mu.Unlock()
		return nil, &WorkerLostError{Worker: w.id, Reason: "task send failed"}
	}

	timer := time.NewTimer(c.cfg.TaskTimeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		if out.err != nil {
			c.mFailed.Inc()
			return nil, out.err
		}
		c.mCompleted.Inc()
		return out.payload, nil
	case <-ctx.Done():
		w.mu.Lock()
		delete(w.inflight, taskID)
		w.mu.Unlock()
		w.send(fCancel, encodeUvarint(taskID)) // best effort
		return nil, ctx.Err()
	case <-timer.C:
		// A worker that sits on a task past the deadline is as good as
		// dead: evict it so its other tasks re-run elsewhere too.
		c.evict(w, "task timeout (hung worker)")
		return nil, &WorkerLostError{Worker: w.id, Reason: "task timeout"}
	}
}
