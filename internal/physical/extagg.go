package physical

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/expr"
	"repro/internal/memory"
	"repro/internal/row"
)

// Grace hash aggregation: the disk-backed final-merge state under
// HashAggregateExec. Groups accumulate in an in-memory
// map whose bytes are reserved from the query's memory pool; when a
// reservation fails (or the pool picks this map as its largest victim)
// every group record is encoded and appended to one of aggSpillFanout
// hash-partitioned spill files, and the reservation is released. Finish
// re-reads each disk partition — a bounded ~1/fanout slice of the spilled
// state — merging buffers for keys flushed more than once, and returns all
// groups ordered by their first-seen sequence number: exactly the
// insertion order the in-memory path emits, so results are byte-identical
// at any budget.

// aggSpillFanout is the number of hash partitions a spilled aggregation
// map fans out to; each Finish-side merge holds ~1/fanout of the state.
const aggSpillFanout = 16

// aggState is one group's accumulated state: its first-seen sequence (the
// emission-order key), the grouping values and one buffer per aggregate.
type aggState struct {
	seq       int64
	groupVals row.Row
	buffers   []any
}

// spillableGroups is a key → aggState map that degrades to grace hash
// partitioning on disk under memory pressure. fns may be empty (DISTINCT:
// groups with no aggregation buffers). All methods are called by the
// owning task; the pool's spill callback may fire concurrently from any
// goroutine and is serialized through mu.
type spillableGroups struct {
	ctx  *ExecContext
	op   string
	fns  []expr.SpillableAggregate
	ords []int // 0..number of grouping keys, for key
	cons *memory.Consumer

	mu       sync.Mutex
	groups   map[string]*aggState
	seq      int64 // next first-seen sequence
	memBytes int64 // bytes reserved for the current map
	prefix   string
	blocks   [aggSpillFanout]int // blocks appended per spill partition
	spillErr error

	spilledBytes int64
	spillRuns    int64
}

func newSpillableGroups(ctx *ExecContext, op string, numKeys int, fns []expr.SpillableAggregate) *spillableGroups {
	g := &spillableGroups{ctx: ctx, op: op, fns: fns, ords: ordinalsUpTo(numKeys), groups: make(map[string]*aggState)}
	if ctx.SpillEnabled() {
		g.cons = ctx.Pool.NewConsumer(op, g.poolSpill)
	}
	return g
}

// key is the canonical map key of a group-values row, recomputed on disk
// reads so spilled records need not carry the string.
func (g *spillableGroups) key(gv row.Row) string { return row.GroupKey(gv, g.ords) }

// groupSize approximates one group's in-memory footprint: the grouping
// values plus a flat allowance per aggregation buffer. Buffer growth after
// insertion (COUNT DISTINCT sets) is not re-measured — the allowance keeps
// accounting cheap and the grace partitioning keeps merges bounded anyway.
func groupSize(gv row.Row, numFns int) int64 {
	return gv.ObjectSize() + 48*int64(numFns) + 64
}

// upsert folds one occurrence of the group gv into the map: apply runs under
// the internal mutex with the group's state, freshly created (NewBuffer
// per aggregate) if the group is absent.
func (g *spillableGroups) upsert(gv row.Row, apply func(st *aggState)) error {
	key := g.key(gv)
	g.mu.Lock()
	if g.spillErr != nil {
		err := g.spillErr
		g.mu.Unlock()
		return err
	}
	if st, ok := g.groups[key]; ok {
		apply(st)
		g.mu.Unlock()
		return nil
	}
	g.mu.Unlock()

	// New group: reserve before inserting. Acquire runs outside mu (it may
	// spill other consumers, which take their own mutexes); an exhausted
	// pool triggers a self-spill of the whole map, then the irreducible
	// one-group working set is forced through Grow.
	var n int64
	if g.cons != nil {
		n = groupSize(gv, len(g.fns))
		if err := g.cons.Acquire(n); err != nil {
			if !errors.Is(err, memory.ErrNoMemory) {
				return err
			}
			g.mu.Lock()
			err = g.spillLocked()
			g.mu.Unlock()
			if err != nil {
				return err
			}
			g.cons.Grow(n)
		}
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.spillErr != nil {
		return g.spillErr
	}
	// Only the owning task inserts; a concurrent pool spill can only have
	// emptied the map, so the key is still absent here.
	st := &aggState{seq: g.seq, groupVals: gv}
	g.seq++
	if len(g.fns) > 0 {
		st.buffers = make([]any, len(g.fns))
		for i, fn := range g.fns {
			st.buffers[i] = fn.NewBuffer()
		}
	}
	g.groups[key] = st
	g.memBytes += n
	apply(st)
	return nil
}

// poolSpill is the memory pool's victim callback.
func (g *spillableGroups) poolSpill() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	freed := g.memBytes
	if err := g.spillLocked(); err != nil {
		if g.spillErr == nil {
			g.spillErr = err
		}
		return 0
	}
	return freed
}

// spillLocked flushes every group to its hash partition's spill file and
// releases the map's reservation. Caller holds g.mu.
func (g *spillableGroups) spillLocked() error {
	if len(g.groups) == 0 {
		return nil
	}
	if g.prefix == "" {
		g.prefix = g.ctx.newSpillPrefix(g.op)
	}
	parts := make([][]row.Row, aggSpillFanout)
	for key, st := range g.groups {
		p := int(row.HashValue(key) % aggSpillFanout)
		parts[p] = append(parts[p], g.encodeState(st))
	}
	var runBytes int64
	for p, recs := range parts {
		if len(recs) == 0 {
			continue
		}
		path := fmt.Sprintf("%s/part%d", g.prefix, p)
		for off := 0; off < len(recs); off += spillBlockRows {
			end := off + spillBlockRows
			if end > len(recs) {
				end = len(recs)
			}
			enc, err := row.EncodeRows(recs[off:end])
			if err != nil {
				return err
			}
			if err := g.ctx.SpillFS.AppendBlock(path, enc); err != nil {
				return err
			}
			runBytes += int64(len(enc))
			g.blocks[p]++
		}
	}
	g.spillRuns++
	g.spilledBytes += runBytes
	g.ctx.Pool.RecordSpill(runBytes)
	g.groups = make(map[string]*aggState)
	freed := g.memBytes
	g.memBytes = 0
	g.cons.Release(freed)
	return nil
}

// encodeState flattens a group into a codec row:
// {seq, groupVals, {encoded buffer rows...}}.
func (g *spillableGroups) encodeState(st *aggState) row.Row {
	bufs := make(row.Row, len(g.fns))
	for i, fn := range g.fns {
		bufs[i] = fn.EncodeBuffer(st.buffers[i])
	}
	return row.Row{st.seq, st.groupVals, bufs}
}

func (g *spillableGroups) decodeState(rec row.Row) (*aggState, error) {
	if len(rec) != 3 {
		return nil, fmt.Errorf("physical: malformed spilled group record (%d fields)", len(rec))
	}
	st := &aggState{seq: rec[0].(int64), groupVals: rec[1].(row.Row)}
	bufs := rec[2].(row.Row)
	if len(bufs) != len(g.fns) {
		return nil, fmt.Errorf("physical: spilled group has %d buffers, want %d", len(bufs), len(g.fns))
	}
	if len(g.fns) > 0 {
		st.buffers = make([]any, len(g.fns))
		for i, fn := range g.fns {
			st.buffers[i] = fn.DecodeBuffer(bufs[i].(row.Row))
		}
	}
	return st, nil
}

// Stats returns the bytes spilled and the number of map flushes.
func (g *spillableGroups) Stats() (bytes int64, runs int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.spilledBytes, g.spillRuns
}

// Finish returns every group in first-seen order. With nothing spilled the
// in-memory map is sorted by sequence; otherwise the remainder is flushed
// and each disk partition is merged independently. Same-key records are
// merged in run order — the order their updates were applied — so
// order-sensitive buffers (FIRST) resolve exactly as in memory, and the
// minimum sequence restores each group's original first-seen position.
func (g *spillableGroups) Finish() ([]*aggState, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.spillErr != nil {
		return nil, g.spillErr
	}
	if g.prefix == "" {
		out := make([]*aggState, 0, len(g.groups))
		for _, st := range g.groups {
			out = append(out, st)
		}
		g.groups = nil
		sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
		return out, nil
	}
	if err := g.spillLocked(); err != nil {
		return nil, err
	}
	var out []*aggState
	for p := 0; p < aggSpillFanout; p++ {
		if g.blocks[p] == 0 {
			continue
		}
		path := fmt.Sprintf("%s/part%d", g.prefix, p)
		merged := make(map[string]*aggState)
		for b := 0; b < g.blocks[p]; b++ {
			enc, err := g.ctx.SpillFS.ReadBlock(path, b)
			if err != nil {
				return nil, err
			}
			recs, err := row.DecodeRows(enc)
			if err != nil {
				return nil, err
			}
			for _, rec := range recs {
				st, err := g.decodeState(rec)
				if err != nil {
					return nil, err
				}
				key := g.key(st.groupVals)
				ex, ok := merged[key]
				if !ok {
					merged[key] = st
					continue
				}
				if st.seq < ex.seq {
					ex.seq = st.seq
				}
				for i, fn := range g.fns {
					ex.buffers[i] = fn.Merge(ex.buffers[i], st.buffers[i])
				}
			}
		}
		for _, st := range merged {
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// Close releases the memory reservation and deletes the spill files; tasks
// defer it so retries, panics and cancellation all clean up.
func (g *spillableGroups) Close() {
	g.mu.Lock()
	prefix := g.prefix
	g.prefix = ""
	g.groups = nil
	g.memBytes = 0
	g.mu.Unlock()
	if g.cons != nil {
		g.cons.Free()
	}
	if prefix != "" {
		g.ctx.releaseSpillPrefix(prefix)
	}
}

// spillableFns returns the aggregates as SpillableAggregate implementations,
// or nil if any aggregate cannot spill (keeping that query in memory).
func spillableFns(fns []expr.AggregateFunc) []expr.SpillableAggregate {
	out := make([]expr.SpillableAggregate, len(fns))
	for i, fn := range fns {
		s, ok := fn.(expr.SpillableAggregate)
		if !ok {
			return nil
		}
		out[i] = s
	}
	return out
}
