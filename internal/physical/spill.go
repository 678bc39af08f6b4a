package physical

import (
	"errors"
	"sync"

	"repro/internal/columnar"
	"repro/internal/memory"
	"repro/internal/row"
)

// spillBlockRows is how many rows one spill block holds; blocks are the
// unit of streaming reads when spilled state is merged back.
const spillBlockRows = 256

// spillState is what the blocking operators' task-local states (the sort
// buffer, the reducer's group table) share under a memory budget: a
// reservation in the query's pool for the state they buffer, the mutex that
// lets the pool's victim callback flush that state from any goroutine, the
// spill directory and the spill statistics. The owner supplies flush and
// buffers through add. The only lock order is mu -> pool, and Acquire is
// never called with mu held. Without a pool cons stays nil and the owner
// skips all of it: no lock, no reservation call.
type spillState struct {
	ctx  *ExecContext
	op   string
	cons *memory.Consumer
	// flush writes the buffered state to spill files (writeRun) and drops it,
	// returning the bytes written: 0 when nothing was buffered. Called with
	// mu held.
	flush func() (int64, error)

	mu       sync.Mutex
	reserved int64  // bytes reserved for the state flush would write
	prefix   string // spill directory, reserved by the first flush
	err      error  // first failure of a pool-driven flush, returned by the next add
	closed   bool
	bytes    int64 // spilled so far
	runs     int64 // flushes that wrote something
}

func (s *spillState) init(ctx *ExecContext, op string, flush func() (int64, error)) {
	s.ctx, s.op, s.flush = ctx, op, flush
	if ctx.Pool != nil && ctx.SpillFS != nil {
		s.cons = ctx.Pool.NewConsumer(op, s.poolSpill)
	}
}

// poolSpill is the memory pool's victim callback; it may run on any
// goroutine while the owning task is between additions.
func (s *spillState) poolSpill() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	freed, err := s.spillLocked()
	if err != nil && s.err == nil {
		s.err = err
	}
	return freed
}

// spillLocked flushes the buffered state as one spill event and releases its
// reservation, returning the bytes released. Caller holds s.mu.
func (s *spillState) spillLocked() (int64, error) {
	if s.closed {
		return 0, nil
	}
	n, err := s.flush()
	if err != nil || n == 0 {
		return 0, err
	}
	s.runs++
	s.bytes += n
	s.ctx.Pool.RecordSpill(n)
	freed := s.reserved
	s.reserved = 0
	s.cons.Release(freed)
	return freed, nil
}

// add reserves n bytes, then has put buffer the addition under the lock and
// say how many of the bytes it needed; the rest is released. An exhausted
// pool (every other consumer already spilled) makes the owner spill itself
// first, then forces the irreducible working set — the addition in hand —
// through Grow.
func (s *spillState) add(n int64, put func() int64) error {
	err := s.cons.Acquire(n)
	if errors.Is(err, memory.ErrNoMemory) {
		s.mu.Lock()
		_, err = s.spillLocked()
		s.mu.Unlock()
		if err == nil {
			s.cons.Grow(n)
		}
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	if err = s.err; err == nil {
		used := put()
		s.reserved, n = s.reserved+used, n-used
	}
	s.mu.Unlock()
	s.cons.Release(n)
	return err
}

// writeRun appends rows to the spill file name in the state's directory as
// encoded blocks of spillBlockRows, returning its path and the blocks and
// bytes written. Caller holds s.mu.
func (s *spillState) writeRun(name string, rows []row.Row) (path string, blocks int, bytes int64, err error) {
	if s.prefix == "" {
		s.prefix = s.ctx.newSpillPrefix(s.op)
	}
	path = s.prefix + "/" + name
	for off := 0; off < len(rows); off += spillBlockRows {
		enc, err := columnar.EncodeBlock(rows[off:min(off+spillBlockRows, len(rows))])
		if err != nil {
			return path, 0, 0, err
		}
		if err := s.ctx.SpillFS.AppendBlock(path, enc); err != nil {
			return path, 0, 0, err
		}
		bytes += int64(len(enc))
		blocks++
	}
	return path, blocks, bytes, nil
}

// Stats returns the bytes spilled and the number of spill events.
func (s *spillState) Stats() (bytes int64, runs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes, s.runs
}

// Close releases the memory reservation and deletes the spill files; tasks
// defer it so retries, panics and cancellation all clean up. A victim
// callback already on its way finds the state closed and writes nothing.
func (s *spillState) Close() {
	s.mu.Lock()
	prefix := s.prefix
	s.prefix, s.reserved, s.closed = "", 0, true
	s.mu.Unlock()
	if s.cons != nil {
		s.cons.Free()
	}
	if prefix != "" {
		s.ctx.releaseSpillPrefix(prefix)
	}
}
