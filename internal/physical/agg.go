package physical

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/types"
)

// HashAggregateExec is grouped aggregation's final merge over the presplit
// ExchangeExec of its partial blocks, which runs phase 1 (the map-side
// combine) — Spark SQL's partial/final Aggregate pairs.
// A result may embed aggregate functions in a larger expression (the
// DecimalAggregates rewrite's MakeDecimal(Sum(...))): each function keeps its
// state, and the expression is evaluated over [groups..., aggregates...].
type HashAggregateExec struct {
	PlanEstimate
	PlanMetrics
	Grouping []expr.Expression
	Aggs     []expr.Expression // Named result expressions
	Child    SparkPlan         // the presplit exchange of its partial blocks
}

func (h *HashAggregateExec) Children() []SparkPlan { return []SparkPlan{h.Child} }
func (h *HashAggregateExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *h
	c.Child = children[0]
	return &c
}
func (h *HashAggregateExec) Output() []*expr.AttributeReference { return namedAttrs(h.Aggs) }
func (h *HashAggregateExec) SimpleString() string {
	return fmt.Sprintf("HashAggregate keys=[%s] results=[%s]",
		exprListString(h.Grouping), exprListString(h.Aggs))
}
func (h *HashAggregateExec) String() string { return Format(h) }

// rowChunk is how many rows of a row input the transposer moves into lanes
// per call of the batch body it feeds.
const (
	rowChunk         = 1024
	partialWindow    = 4 * rowChunk           // rows a phase-1 task aggregates before it decides (partialAgg)
	partialMaxGroups = partialWindow * 9 / 10 // more groups than this in the window: stop probing
)

// transposer is the one row→lane edge, the inverse of expr.BoxValues: it
// moves the cells of rows into reused lanes, one per column its consumer
// marked used (nil for the rest). A row input reaches the batch sinks through
// it: the aggregate's phase 1, the hash joins' key kernels, a fused join's
// build lanes, TopK's result edge. Typed (under codegen) the lanes are class
// lanes, which native kernels and the specialized tables read lane-direct;
// boxed, they hold the cells themselves. The batch keeps its rows too, for
// the interpreter lifted to batches and any scalar fallback to read.
type transposer struct {
	batch   expr.VecBatch
	scratch expr.Scratch
	all     []int32
}

// newTransposer transposes rows of the given schema; a nil used marks every
// column used.
func newTransposer(attrs []*expr.AttributeReference, used []bool, typed bool) *transposer {
	t := &transposer{batch: expr.VecBatch{Cols: make([]*columnar.Vector, len(attrs))}}
	t.batch.Scratch = &t.scratch
	for c, a := range attrs {
		switch {
		case used != nil && !used[c]:
		case typed:
			t.batch.Cols[c] = expr.NewClassVector(a.DataType(), 0)
		default:
			t.batch.Cols[c] = columnar.NewAnyVector(a.DataType(), 0)
		}
	}
	return t
}

// load transposes rows into the lanes and returns them as a batch, with the
// selection of all its rows. The batch, the selection and whatever a kernel
// borrowed over the batch are overwritten by the next load.
func (t *transposer) load(rows []row.Row) (*expr.VecBatch, []int32) {
	for c, v := range t.batch.Cols {
		if v != nil {
			v.Reset(len(rows))
			for i, r := range rows {
				v.Set(i, r[c])
			}
		}
	}
	t.scratch.Reset()
	t.batch.Rows = rows
	if t.batch.N = len(rows); len(t.all) < len(rows) {
		t.all = identitySel(len(rows))
	}
	return &t.batch, t.all[:len(rows)]
}

// keyNative tells a join's group table which of its key vectors are typed:
// all of them (nil) when typed, none otherwise.
func keyNative(keys int, typed bool) []bool {
	if typed {
		return nil
	}
	return make([]bool, keys)
}

func (h *HashAggregateExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] { return boxedRows(h, ctx) }

// Results implements BatchTop: the reducers' results go to sink.
func (h *HashAggregateExec) Results(ctx *ExecContext, sink ResultSink) *rdd.RDD[expr.Arena] {
	blocks, k := exchangeOf(h.Child).partials(ctx)
	return h.finalMerge(ctx, h.EnableMetrics(ctx.Metrics), blocks, k, sink)
}

// partialAgg is a map task's partial aggregation, the one phase 1: its first
// partialWindow rows go into its table, and if they left more than
// partialMaxGroups groups (keys nearly distinct: a passed row is a shuffle
// record) every later row leaves as a one-row partial group. It decides once,
// from the task's rows alone (add splits a batch straddling the window). A
// key's first partial is still its first row, so rows and order do not change,
// but a DOUBLE SUM/AVG of a key spanning map tasks re-associates. A global
// aggregate or a shorter task never skips. All of the task's mutable state is
// here: one that never skips pays nothing for it.
type partialAgg struct {
	groupTable
	lanes    []expr.VecAggregator
	keys     []*columnar.Vector // the batch in hand's group keys
	probe    groupProbe
	newLanes func() []expr.VecAggregator
	window   int32        // rows still to aggregate before deciding; 0 once decided
	buckets  int32        // hash buckets the output is split into
	pass     *passThrough // set once the window said stop
}

// passThrough is a skipping task's output: the table's bucket set, one per passed batch, and the rows.
type passThrough struct {
	out  []aggBlock
	rows int
}

func newPartialAgg(keyTypes []types.DataType, native []bool, newLanes func() []expr.VecAggregator, buckets int) partialAgg {
	a := partialAgg{lanes: newLanes(), keys: make([]*columnar.Vector, len(keyTypes)), newLanes: newLanes, buckets: int32(buckets)}
	if a.init(keyTypes, native, 0); a.cmp != cmpGlobal {
		a.window = partialWindow
	}
	return a
}

// addBatch is the one phase-1 body, over a pipeline's batch or a row input's
// transposed chunk alike: it evaluates the group keys over the batch and folds
// its live rows into the state lanes.
func (a *partialAgg) addBatch(keyEvals []expr.VecEval, batch *expr.VecBatch, live []int32) {
	for i, ev := range keyEvals {
		a.keys[i] = ev(batch, live)
	}
	a.add(a.keys, live, func(lanes []expr.VecAggregator, sel, gidx []int32, n int) {
		for _, l := range lanes {
			l.Update(batch, sel, gidx, n)
		}
	})
}

// add aggregates the live rows of a batch whose group keys are vecs (lent
// until add returns); update folds rows sel into lanes, row sel[k] into group
// gidx[k] of n — once for the table's rows, once for any passed through.
func (a *partialAgg) add(vecs []*columnar.Vector, live []int32, update func(lanes []expr.VecAggregator, sel, gidx []int32, n int)) {
	a.probe.hashRows(vecs, live)
	if a.pass == nil {
		n, open := len(live), a.window > 0
		if open {
			n = min(n, int(a.window))
			a.window -= int32(n)
		}
		gidx := a.indexHashed(vecs, a.probe.hash, live[:n], a.probe.gidx[:0], true)
		stop := open && a.window == 0 && a.count() > partialMaxGroups
		if !stop { // the rest of a batch that closed the window
			gidx, n = a.indexHashed(vecs, a.probe.hash, live[n:], gidx, true), len(live)
		}
		a.probe.gidx = gidx
		update(a.lanes, live[:n], gidx, a.count())
		if stop { // the table is final
			a.pass = &passThrough{out: splitGroups(a.cols, a.hashes, a.lanes, int(a.buckets))}
		}
		if live = live[n:]; len(live) == 0 {
			return
		}
	}
	// One group a row: its key copied out of the lent vectors, its row hash
	// and a fresh state lane set.
	n, hashes := len(live), make([]uint64, len(live))
	for k, i := range live {
		hashes[k] = a.probe.hash[i]
	}
	keys := make([]*columnar.Vector, len(vecs))
	for j, v := range vecs {
		if c := a.cols[j]; v.Kind == c.Kind && !v.IsConst() {
			keys[j] = v.GatherInto(nil, live)
		} else { // boxed or constant: converted as the table stores it
			keys[j] = expr.NewClassVector(c.Type, n)
			keys[j].Reset(0)
			for _, i := range live {
				keys[j].Append(v, int(i))
			}
		}
	}
	lanes, ident := a.newLanes(), a.probe.gidx[:0]
	for k := range int32(n) {
		ident = append(ident, k) // group k is row live[k]
	}
	a.probe.gidx = ident
	update(lanes, live, ident, n)
	a.pass.out = append(a.pass.out, splitGroups(keys, hashes, lanes, int(a.buckets))...)
	a.pass.rows += n
}

// finish records the task on om and returns its map output: k bucket sets,
// block i bound for bucket i % buckets.
func (a *partialAgg) finish(om *OperatorMetrics, skipped *metrics.Counter) []aggBlock {
	om.RecordTable(a.count(), int(a.grows))
	if a.pass == nil {
		return splitGroups(a.cols, a.hashes, a.lanes, int(a.buckets))
	}
	if a.pass.rows > 0 {
		skipped.Add(1)
		if om != nil {
			om.Skipped.Add(1)
			om.Passed.Add(int64(a.pass.rows))
		}
	}
	return a.pass.out
}

func exprTypes(exprs []expr.Expression) []types.DataType {
	out := make([]types.DataType, len(exprs))
	for i, e := range exprs {
		out[i] = e.DataType()
	}
	return out
}

// finalMerge is phase 2: each reducer merges its range of buckets' blocks
// through the group tables phase 1 uses (aggMerge), evaluates the results as
// kernels over [key columns..., aggregate columns...] and hands them to sink.
// It folds its buckets one after another, and no group is in two, so the
// result is the same, in the same order, for every reducer count.
func (h *HashAggregateExec) finalMerge(ctx *ExecContext, om *OperatorMetrics, shuffled *rdd.RDD[aggBlock], k *aggSink, sink ResultSink) *rdd.RDD[expr.Arena] {
	keyTypes := exprTypes(h.Grouping)
	resultEvals := make([]expr.VecEval, len(k.results))
	for i, e := range k.results {
		resultEvals[i], _ = vecKernel(e, ctx.Codegen)
	}

	return rdd.MapPartitionsCtx(shuffled, func(_ context.Context, _ int, in []aggBlock) ([]expr.Arena, error) {
		start := time.Now()
		// The blocks' group counts sum to an upper bound: neither the table nor
		// its state lanes ever grow.
		hint := 0
		for _, b := range in {
			hint += len(b.sel)
		}
		m := newAggMerge(ctx, keyTypes, k.fns, k.newLanes, hint)
		defer m.Close()
		for _, b := range in {
			if err := m.merge(b); err != nil {
				return nil, err
			}
		}
		cols, n, err := m.finish() // [key columns..., aggregate result columns...]
		if err != nil {
			return nil, err
		}
		om.RecordTable(0, m.grows)
		om.RecordSpill(m.Stats())
		batch, sel := &expr.VecBatch{Cols: cols, N: n}, identitySel(n)
		out := make([]*columnar.Vector, len(resultEvals))
		for j, ev := range resultEvals {
			out[j] = ev(batch, sel)
		}
		om.RecordPartition(n, time.Since(start))
		return []expr.Arena{sink(out, sel)}, nil
	})
}

// ---------------------------------------------------------------------------
// The reducer

// aggTable is merged aggregation state: a group table and one state lane per
// aggregate over its groups.
type aggTable struct {
	groups *groupTable
	lanes  []expr.VecAggregator
	gidx   []int32
}

// fold merges one partial block into the table: the one merge body, run on
// the exchange's blocks and on blocks read back from the spill log alike.
func (t *aggTable) fold(b aggBlock) {
	t.gidx = t.groups.indexHashed(b.keys, b.hashes, b.sel, slices.Grow(t.gidx[:0], len(b.sel)), true)
	for j, l := range t.lanes {
		l.Merge(b.lanes[j], b.sel, t.gidx, t.groups.count())
	}
}

// aggMerge is one reducer's merge of partial blocks: an aggTable, plus — when
// the query has a memory pool — a reservation for it (spillState): one
// Acquire per incoming block for as many groups as the block could add, what
// its already-present groups did not need released after the fold. When the
// pool runs dry, or picks this reducer as its victim, the table is appended
// to the reducer's spill log as blocks of group records [key values...,
// encoded buffers...] in group order, and an empty table takes over. finish
// re-merges the log through the same fold into one table: a key's records
// meet in flush order, so order-sensitive state (FIRST, DOUBLE sums) resolves
// as it does in memory, and a key's first record is the first the log holds
// of it, so the table's first-seen order is the order an unspilled merge
// would have had — results are byte-identical at any budget. The re-merge is
// not reserved: its table is the reducer's output, which is materialized
// whatever the budget.
type aggMerge struct {
	spillState
	keyTypes   []types.DataType
	fns        []expr.AggregateFunc
	newLanes   func() []expr.VecAggregator
	groupBytes int64     // reserved per group
	cur        *aggTable // guarded by mu under a budget; nil once finished
	log        string    // spill file
	blocks     int       // blocks appended to it
	grows      int       // slot doublings of the tables retired so far
}

func newAggMerge(ctx *ExecContext, keyTypes []types.DataType, fns []expr.AggregateFunc,
	newLanes func() []expr.VecAggregator, hint int) *aggMerge {
	// A group is reserved as the boxed key row and buffers it would be: a flat
	// allowance per key and per aggregate, never re-measured (COUNT DISTINCT
	// sets grow).
	m := &aggMerge{keyTypes: keyTypes, fns: fns, newLanes: newLanes,
		groupBytes: 100 + 32*int64(len(keyTypes)) + 48*int64(len(fns))}
	m.init(ctx, "agg", m.flushTable)
	if m.cons != nil && ctx.Pool.Budget() > 0 {
		hint = min(hint, int(ctx.Pool.Budget()/m.groupBytes)) // more groups than that never share a table
	}
	m.cur = m.newTable(hint)
	return m
}

// newTable sizes the group table and reserves the state lanes for hint groups,
// so a table that holds no more never grows either.
func (m *aggMerge) newTable(hint int) *aggTable {
	t := &aggTable{groups: newGroupTable(m.keyTypes, nil, hint), lanes: m.newLanes()}
	for _, l := range t.lanes {
		l.Reserve(hint)
	}
	return t
}

// merge folds one of the exchange's blocks into the current table.
func (m *aggMerge) merge(b aggBlock) error {
	if m.cons == nil {
		m.cur.fold(b)
		return nil
	}
	return m.add(int64(len(b.sel))*m.groupBytes, func() int64 {
		before := m.cur.groups.count()
		m.cur.fold(b)
		return int64(m.cur.groups.count()-before) * m.groupBytes
	})
}

// flushTable appends the current table's groups to the spill log and starts
// an empty table (spillState.flush).
func (m *aggMerge) flushTable() (int64, error) {
	t := m.cur
	if t == nil || t.groups.count() == 0 {
		return 0, nil
	}
	// One block of boxed records at a time: this runs when memory is short.
	var bytes int64
	recs := make([]row.Row, 0, spillBlockRows)
	for g, n := 0, t.groups.count(); g < n; g++ {
		rec := make(row.Row, 0, len(m.keyTypes)+len(m.fns))
		for _, kc := range t.groups.cols {
			rec = append(rec, kc.Get(g))
		}
		for j, fn := range m.fns {
			rec = append(rec, fn.EncodeBuffer(t.lanes[j].Buffer(g)))
		}
		if recs = append(recs, rec); len(recs) == spillBlockRows || g == n-1 {
			log, blocks, wrote, err := m.writeRun("groups", recs)
			if err != nil {
				return 0, err
			}
			m.log, m.blocks, bytes, recs = log, m.blocks+blocks, bytes+wrote, recs[:0]
		}
	}
	m.grows += int(t.groups.grows)
	m.cur = m.newTable(0)
	return bytes, nil
}

// readBlock reads block i of the spill log back as a partial block.
func (m *aggMerge) readBlock(i int) (b aggBlock, err error) {
	enc, err := m.ctx.SpillFS.ReadBlock(m.log, i)
	if err != nil {
		return b, err
	}
	recs, err := columnar.DecodeBlock(enc)
	if err != nil {
		return b, err
	}
	n, nk := len(recs), len(m.keyTypes)
	b = aggBlock{keys: make([]*columnar.Vector, nk), hashes: make([]uint64, n), lanes: m.newLanes(), sel: identitySel(n)}
	for j, kt := range m.keyTypes {
		b.keys[j] = expr.NewClassVector(kt, n)
	}
	for i, rec := range recs {
		if len(rec) != nk+len(m.fns) {
			return b, fmt.Errorf("physical: spilled group record has %d fields, want %d+%d", len(rec), nk, len(m.fns))
		}
		h := row.NewHasher()
		for j, v := range rec[:nk] {
			b.keys[j].Set(i, v)
			h = h.Value(v)
		}
		b.hashes[i] = h.Sum()
		for j, fn := range m.fns {
			buf, ok := rec[nk+j].(row.Row)
			if !ok {
				return b, fmt.Errorf("physical: spilled %s buffer is %T, not a row", fn, rec[nk+j])
			}
			b.lanes[j].SetBuffer(i, fn.DecodeBuffer(buf))
		}
	}
	return b, nil
}

// finish returns the merged groups as [key columns..., aggregate result
// columns...] and their number, in first-seen order. With nothing spilled
// that is the current table; otherwise the remainder is flushed too and the
// whole log re-merged into the empty table that leaves.
func (m *aggMerge) finish() ([]*columnar.Vector, int, error) {
	if m.cons != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	if m.err != nil {
		return nil, 0, m.err
	}
	if m.blocks > 0 {
		if _, err := m.spillLocked(); err != nil {
			return nil, 0, err
		}
	}
	t := m.cur
	m.cur = nil // a victim callback from here on finds nothing to flush
	for i := 0; i < m.blocks; i++ {
		b, err := m.readBlock(i)
		if err != nil {
			return nil, 0, err
		}
		t.fold(b)
	}
	m.grows += int(t.groups.grows)
	cols, n := slices.Clone(t.groups.cols), t.groups.count()
	if len(cols) == 0 {
		n = 1 // a global aggregate's one reducer emits its row over an empty input too (SELECT count(*) FROM empty => 0)
	}
	for _, l := range t.lanes {
		cols = append(cols, l.Result(n))
	}
	return cols, n, nil
}

// splitAggregates extracts the distinct aggregate functions from the result
// expressions (still unbound: bindFns binds them to an input schema) and
// rewrites the result expressions over the synthetic row layout
// [group0..groupG-1, agg0..aggN-1].
func splitAggregates(grouping, aggs []expr.Expression) ([]expr.AggregateFunc, []expr.Expression) {
	var fns []expr.AggregateFunc
	rewrite := func(e expr.Expression) expr.Expression {
		return expr.TransformDown(e, func(x expr.Expression) (expr.Expression, bool) {
			// Whole-expression match against a grouping expression.
			for gi, g := range grouping {
				if expr.Equivalent(x, g) {
					return &expr.BoundReference{
						Ordinal: gi,
						Type:    g.DataType(),
						Null:    g.Nullable(),
					}, true
				}
			}
			if fn, ok := x.(expr.AggregateFunc); ok {
				idx := slices.IndexFunc(fns, func(f expr.AggregateFunc) bool { return expr.Equivalent(f, fn) })
				if idx < 0 {
					idx = len(fns)
					fns = append(fns, fn)
				}
				return &expr.BoundReference{
					Ordinal: len(grouping) + idx,
					Type:    fn.DataType(),
					Null:    fn.Nullable(),
				}, true
			}
			return nil, false
		})
	}

	results := make([]expr.Expression, len(aggs))
	for i, e := range aggs {
		// Strip the top-level alias; naming lives in Output().
		if a, ok := e.(*expr.Alias); ok {
			results[i] = rewrite(a.Child)
		} else {
			results[i] = rewrite(e)
		}
	}
	return fns, results
}

func bindFns(fns []expr.AggregateFunc, input []*expr.AttributeReference) []expr.AggregateFunc {
	out := make([]expr.AggregateFunc, len(fns))
	for i, fn := range fns {
		out[i] = bind(fn, input).(expr.AggregateFunc)
	}
	return out
}
