package physical

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/types"
)

// HashAggregateExec implements grouped aggregation as two hash phases with
// a shuffle between them — partial aggregation per input partition (the
// map-side combine), a hash exchange on the grouping key, and a final merge
// phase — mirroring Spark SQL's partial/final Aggregate pairs.
//
// Aggregate output expressions may embed aggregate functions inside larger
// expressions (e.g. the DecimalAggregates rewrite produces
// MakeDecimal(Sum(...))): execution extracts every AggregateFunc subtree,
// maintains one buffer per function, and evaluates the surrounding
// expression over [groupValues..., aggResults...] at the end.
type HashAggregateExec struct {
	PlanEstimate
	PlanMetrics
	FusionNote
	AdaptiveNote
	Grouping []expr.Expression
	Aggs     []expr.Expression // Named result expressions
	Child    SparkPlan
	// Partitions, when positive, caps the exchange's reducer count below
	// the session default (chosen by the planner from the estimated input
	// size).
	Partitions int
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

// rowChunk is how many input rows a row-at-a-time operator transposes into
// key vectors per group-table call.
const rowChunk = 1024

// keyChunk is how the row-at-a-time operators (aggregation phase 1, the hash
// joins' build and probe) reach the group tables the batch operators use: it
// evaluates the keys of up to rowChunk rows into one reused vector per key.
// Typed — with codegen — the vectors are class lanes, so the specialized
// tables hash raw integers and strings and skip per-row key-string
// allocation: the "avoids expensive allocation of key-value pairs"
// specialization the paper credits for the Figure 9 DataFrame win. The
// interpreted baseline keeps the evaluators' boxed values and, with them, the
// generic table.
type keyChunk struct {
	evals []func(row.Row) any
	types []types.DataType
	typed bool
	vecs  []*columnar.Vector
	ident []int32
}

// newKeyChunk sizes the chunk vectors for an input of the given row count.
func newKeyChunk(evals []func(row.Row) any, keyTypes []types.DataType, typed bool, rows int) *keyChunk {
	n := min(rowChunk, rows)
	c := &keyChunk{evals: evals, types: keyTypes, typed: typed,
		vecs: make([]*columnar.Vector, len(evals)), ident: identitySel(n)}
	newVec := columnar.NewAnyVector
	if typed {
		newVec = expr.NewClassVector
	}
	for j, t := range keyTypes {
		c.vecs[j] = newVec(t, n)
	}
	return c
}

// keyTable builds the group table that indexes a keyChunk's vectors.
func keyTable(keyTypes []types.DataType, typed bool, sizeHint int) *groupTable {
	var native []bool
	if !typed {
		native = make([]bool, len(keyTypes))
	}
	return newGroupTable(keyTypes, native, sizeHint)
}

// load evaluates the keys of rows (at most rowChunk of them) and returns the
// key vectors with the selection of every row; both are overwritten by the
// next load.
func (c *keyChunk) load(rows []row.Row) ([]*columnar.Vector, []int32) {
	for j, ev := range c.evals {
		v := c.vecs[j]
		v.Reset(len(rows))
		for i, r := range rows {
			v.Set(i, ev(r))
		}
	}
	return c.vecs, c.ident[:len(rows)]
}

func (h *HashAggregateExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] { return boxedRows(h, ctx) }

// Results implements BatchTop: the reducers' results go to sink.
func (h *HashAggregateExec) Results(ctx *ExecContext, sink ResultSink) *rdd.RDD[expr.Arena] {
	input := h.Child.Output()

	// Bind grouping expressions.
	groupEvals := make([]func(row.Row) any, len(h.Grouping))
	for i, g := range h.Grouping {
		groupEvals[i] = ctx.evaluator(bind(g, input))
	}
	// Extract aggregate functions (bound to input) and build result
	// expressions over the synthetic [groups..., aggValues...] row.
	unbound, resultExprs := h.splitAggregates()
	fns := bindFns(unbound, input)
	newLanes := func() []expr.VecAggregator {
		lanes := make([]expr.VecAggregator, len(fns))
		for i, fn := range fns {
			lanes[i] = expr.NewBoxedAggregator(fn)
		}
		return lanes
	}
	keyTypes := h.keyTypes()
	numPart := h.reducers(ctx)
	om := h.EnableMetrics(ctx.Metrics)

	// Phase 1: partial aggregation per partition, emitting the same columnar
	// blocks as the fused phase 1 (with boxed state lanes). Rows are probed a
	// key chunk at a time.
	blocks := rdd.MapPartitions(h.Child.Execute(ctx), func(_ int, in []row.Row) []aggBlock {
		keys := newKeyChunk(groupEvals, keyTypes, ctx.Codegen, len(in))
		groups := keyTable(keyTypes, ctx.Codegen, 0)
		lanes := newLanes()
		var probe groupProbe
		for off := 0; off < len(in); off += rowChunk {
			rows := in[off:min(off+rowChunk, len(in))]
			kvecs, all := keys.load(rows)
			gidx := groups.indexBatch(kvecs, all, &probe, true)
			for i, r := range rows {
				for _, l := range lanes {
					l.(*expr.BoxedAggregator).UpdateRow(int(gidx[i]), r)
				}
			}
		}
		om.RecordTable(groups.count(), groups.grows)
		return splitGroups(groups, lanes, numPart)
	})

	return h.finalMerge(ctx, om, blocks, numPart, fns, newLanes, resultExprs, sink)
}

func (h *HashAggregateExec) keyTypes() []types.DataType { return exprTypes(h.Grouping) }

func exprTypes(exprs []expr.Expression) []types.DataType {
	out := make([]types.DataType, len(exprs))
	for i, e := range exprs {
		out[i] = e.DataType()
	}
	return out
}

// reducers is the exchange's reduce partition count: the session default
// capped by the planner's / adaptive override; a global aggregation collapses
// to one partition.
func (h *HashAggregateExec) reducers(ctx *ExecContext) int {
	if len(h.Grouping) == 0 {
		return 1
	}
	return max(1, effectiveParts(ctx.ShufflePartitions, h.Partitions))
}

// finalMerge is phase 2, shared by the row-at-a-time and fused phase-1
// implementations: exchange the partial blocks (already split by reducer, so
// the exchange only transposes them), merge state lanes into state lanes per
// reducer through the same group tables phase 1 uses (aggMerge), evaluate the
// result expressions as vector kernels over [key columns..., aggregate result
// columns...], and hand the result columns to sink, the result edge. newLanes
// must build the accumulators the same way phase 1 did.
func (h *HashAggregateExec) finalMerge(ctx *ExecContext, om *OperatorMetrics, blocks *rdd.RDD[aggBlock], numPart int,
	fns []expr.AggregateFunc, newLanes func() []expr.VecAggregator, resultExprs []expr.Expression, sink ResultSink) *rdd.RDD[expr.Arena] {
	shuffled := rdd.ExchangePresplit(blocks, numPart, aggBlock.groups)
	keyTypes := h.keyTypes()
	resultEvals := make([]expr.VecEval, len(resultExprs))
	for i, e := range resultExprs {
		if resultEvals[i] = expr.VecFromScalar(e.Eval, e.DataType()); ctx.Codegen {
			resultEvals[i], _ = expr.CompileVec(e)
		}
	}

	return rdd.MapPartitionsCtx(shuffled, func(_ context.Context, _ int, in []aggBlock) ([]expr.Arena, error) {
		start := time.Now()
		// The blocks' group counts sum to an upper bound: the table never grows.
		hint := 0
		for _, b := range in {
			hint += len(b.sel)
		}
		m := newAggMerge(ctx, keyTypes, fns, newLanes, hint)
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
	t.gidx = t.groups.indexHashed(b.keys, b.hashes, b.sel, t.gidx[:0], true)
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

func (m *aggMerge) newTable(hint int) *aggTable {
	return &aggTable{groups: newGroupTable(m.keyTypes, nil, hint), lanes: m.newLanes()}
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
	m.grows += t.groups.grows
	m.cur = m.newTable(0)
	return bytes, nil
}

// readBlock reads block i of the spill log back as a partial block.
func (m *aggMerge) readBlock(i int) (b aggBlock, err error) {
	enc, err := m.ctx.SpillFS.ReadBlock(m.log, i)
	if err != nil {
		return b, err
	}
	recs, err := row.DecodeRows(enc)
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
	m.grows += t.groups.grows
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
func (h *HashAggregateExec) splitAggregates() ([]expr.AggregateFunc, []expr.Expression) {
	var fns []expr.AggregateFunc

	// Grouping expressions map to synthetic ordinals by structural match.
	groupRefs := make([]expr.Expression, len(h.Grouping))
	copy(groupRefs, h.Grouping)

	rewrite := func(e expr.Expression) expr.Expression {
		return expr.TransformDown(e, func(x expr.Expression) (expr.Expression, bool) {
			// Whole-expression match against a grouping expression.
			for gi, g := range groupRefs {
				if expr.Equivalent(x, g) {
					return &expr.BoundReference{
						Ordinal: gi,
						Type:    g.DataType(),
						Null:    g.Nullable(),
					}, true
				}
			}
			if fn, ok := x.(expr.AggregateFunc); ok {
				key := fn.String()
				idx := slices.IndexFunc(fns, func(f expr.AggregateFunc) bool { return f.String() == key })
				if idx < 0 {
					idx = len(fns)
					fns = append(fns, fn)
				}
				return &expr.BoundReference{
					Ordinal: len(h.Grouping) + idx,
					Type:    fn.DataType(),
					Null:    fn.Nullable(),
				}, true
			}
			return nil, false
		})
	}

	results := make([]expr.Expression, len(h.Aggs))
	for i, e := range h.Aggs {
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
