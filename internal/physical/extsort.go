package physical

import (
	"container/heap"
	"fmt"

	"repro/internal/columnar"
	"repro/internal/dfs"
	"repro/internal/row"
)

// External merge sort: the disk-backed sort under SortExec. Rows accumulate
// in an in-memory buffer whose bytes are reserved from the query's memory
// pool (spillState); when a reservation fails (or the pool picks this sorter
// as its largest victim) the buffer is sorted — an index sort over its keys,
// each evaluated once per row, ties broken by position (sortOrder.sort) — and
// written to the spill DFS as one run, and the reservation is released.
// Finishing k-way merges the spilled runs with the final in-memory run through
// a heap that breaks comparison ties by run index — runs are created in input
// order, so the merged output is exactly the stable sort of the input.
type externalSorter struct {
	spillState
	order *sortOrder
	buf   []row.Row  // guarded by mu under a budget
	runs  []spillRun // likewise
}

type spillRun struct {
	path   string
	blocks int
}

// newExternalSorter creates a sorter; without a memory pool on ctx it is an
// in-memory sort: one buffer, no lock, no reservation.
func newExternalSorter(ctx *ExecContext, op string, order *sortOrder) *externalSorter {
	s := &externalSorter{order: order}
	s.init(ctx, op, s.flushRun)
	return s
}

// flushRun sorts and writes the current buffer as one run (spillState.flush).
func (s *externalSorter) flushRun() (int64, error) {
	if len(s.buf) == 0 {
		return 0, nil
	}
	path, blocks, bytes, err := s.writeRun(fmt.Sprintf("run%d", len(s.runs)), s.order.sort(s.buf))
	if err != nil {
		return 0, err
	}
	s.runs = append(s.runs, spillRun{path: path, blocks: blocks})
	s.buf = nil
	return bytes, nil
}

// Add appends rows. With nothing reserved, a first Add adopts the caller's
// slice, clipped so that a later Add reallocates rather than write into the
// caller's memory (a memoized map side, say); under a budget rows are added
// one by one, each row's bytes reserved first.
func (s *externalSorter) Add(rows ...row.Row) error {
	if s.cons == nil {
		if len(s.buf) == 0 {
			s.buf = rows[:len(rows):len(rows)]
		} else {
			s.buf = append(s.buf, rows...)
		}
		return nil
	}
	for _, r := range rows {
		n := r.ObjectSize()
		if err := s.add(n, func() int64 { s.buf = append(s.buf, r); return n }); err != nil {
			return err
		}
	}
	return nil
}

// Finish returns the fully sorted input. With no spilled runs this is the
// in-memory run sort; otherwise the spilled runs and the final in-memory run
// are k-way merged.
func (s *externalSorter) Finish() ([]row.Row, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil, s.err
	}
	s.buf = s.order.sort(s.buf)
	if len(s.runs) == 0 {
		out := s.buf
		s.buf = nil
		return out, nil
	}
	total := len(s.buf)
	cursors := make([]*runCursor, 0, len(s.runs)+1)
	for i, run := range s.runs {
		cursors = append(cursors, &runCursor{fs: s.ctx.SpillFS, run: run, idx: i})
	}
	// The in-memory leftover is the newest run: highest tie-break index.
	cursors = append(cursors, &runCursor{rows: s.buf, idx: len(s.runs)})
	s.buf = nil

	h := &mergeHeap{cmp: s.order.compare}
	for _, c := range cursors {
		ok, err := c.advance()
		if err != nil {
			return nil, err
		}
		if ok {
			h.items = append(h.items, c)
		}
	}
	heap.Init(h)
	out := make([]row.Row, 0, total)
	for h.Len() > 0 {
		c := h.items[0]
		out = append(out, c.head)
		ok, err := c.advance()
		if err != nil {
			return nil, err
		}
		if ok {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out, nil
}

// runCursor streams one run: block-by-block from the spill DFS, or directly
// over the final in-memory run.
type runCursor struct {
	fs   *dfs.FileSystem
	run  spillRun
	idx  int // run index: the k-way merge's stability tie-break
	head row.Row

	rows  []row.Row // current decoded block (or the whole in-memory run)
	pos   int
	block int // next block to read
}

func (c *runCursor) advance() (bool, error) {
	for c.pos >= len(c.rows) {
		if c.fs == nil || c.block >= c.run.blocks {
			return false, nil
		}
		enc, err := c.fs.ReadBlock(c.run.path, c.block)
		if err != nil {
			return false, err
		}
		c.block++
		if c.rows, err = columnar.DecodeBlock(enc); err != nil {
			return false, err
		}
		c.pos = 0
	}
	c.head = c.rows[c.pos]
	c.pos++
	return true, nil
}

// mergeHeap orders cursors by their head row, breaking ties by run index so
// rows from earlier runs (earlier input) win — the invariant that makes the
// merged order equal the stable in-memory sort.
type mergeHeap struct {
	items []*runCursor
	cmp   func(a, b row.Row) int
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if c := h.cmp(a.head, b.head); c != 0 {
		return c < 0
	}
	return a.idx < b.idx
}
func (h *mergeHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x any)    { h.items = append(h.items, x.(*runCursor)) }
func (h *mergeHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

// sampleBounds picks numPartitions-1 boundary rows from a deterministic
// stride sample of the input (Spark's RangePartitioner sampling, made
// exact-deterministic for reproducibility).
func sampleBounds(parts [][]row.Row, numPartitions int, order *sortOrder) []row.Row {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	step := total / (numPartitions * 32)
	if step < 1 {
		step = 1
	}
	sample := make([]row.Row, 0, total/step+1)
	i := 0
	for _, p := range parts {
		for _, r := range p {
			if i%step == 0 {
				sample = append(sample, r)
			}
			i++
		}
	}
	sample = order.sort(sample)
	bounds := make([]row.Row, 0, numPartitions-1)
	for k := 1; k < numPartitions; k++ {
		b := sample[k*len(sample)/numPartitions]
		bounds = append(bounds, b)
	}
	return bounds
}
