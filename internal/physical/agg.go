package physical

import (
	"context"
	"fmt"
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

func (h *HashAggregateExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
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

	return h.finalMerge(ctx, om, blocks, numPart, fns, newLanes, resultExprs)
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
// reducer through the same group tables phase 1 uses, evaluate the result
// expressions as vector kernels over [key columns..., aggregate result
// columns...], and box each output row exactly once. newLanes must build the
// accumulators the same way phase 1 did. Keeping one implementation here is
// what guarantees the fused path inherits the grace-partitioned spill
// behavior (and its tests) unchanged.
func (h *HashAggregateExec) finalMerge(ctx *ExecContext, om *OperatorMetrics, blocks *rdd.RDD[aggBlock], numPart int,
	fns []expr.AggregateFunc, newLanes func() []expr.VecAggregator, resultExprs []expr.Expression) *rdd.RDD[row.Row] {
	shuffled := rdd.ExchangePresplit(blocks, numPart, aggBlock.groups)
	keyTypes := h.keyTypes()
	resultEvals := make([]expr.VecEval, len(resultExprs))
	for i, e := range resultExprs {
		if resultEvals[i] = expr.VecFromScalar(e.Eval, e.DataType()); ctx.Codegen {
			resultEvals[i], _ = expr.CompileVec(e)
		}
	}
	// Under a memory budget (and when every aggregate can round-trip its
	// buffer through the spill codec — all built-ins can) the merge state is
	// a grace hash aggregation that partitions itself to disk instead of
	// growing unbounded.
	fnsS := spillableFns(fns)
	spill := ctx.SpillEnabled() && fnsS != nil

	return rdd.MapPartitionsCtx(shuffled, func(_ context.Context, p int, in []aggBlock) ([]row.Row, error) {
		start := time.Now()
		var cols []*columnar.Vector // [key columns..., aggregate result columns...]
		var n int
		if spill && len(in) > 0 { // nothing to merge needs no budget (and is the empty global case below)
			var err error
			if cols, n, err = h.mergeSpilling(ctx, om, in, fnsS); err != nil {
				return nil, err
			}
		} else {
			// The blocks' group counts sum to an upper bound: the table never grows.
			hint := 0
			for _, b := range in {
				hint += len(b.sel)
			}
			groups := newGroupTable(keyTypes, nil, hint)
			lanes := newLanes()
			var gidx []int32
			for _, b := range in {
				gidx = groups.indexHashed(b.keys, b.hashes, b.sel, gidx[:0], true)
				for j, l := range lanes {
					l.Merge(b.lanes[j], b.sel, gidx, groups.count())
				}
			}
			// A global aggregate over an empty input still emits one row
			// (SELECT count(*) FROM empty => 0).
			if n = groups.count(); n == 0 && len(h.Grouping) == 0 && p == 0 {
				n = 1
			}
			om.RecordTable(0, groups.grows)
			cols = append(cols, groups.cols...)
			for _, l := range lanes {
				cols = append(cols, l.Result(n))
			}
		}
		out := boxResultRows(cols, n, resultEvals)
		om.RecordPartition(len(out), time.Since(start))
		return out, nil
	})
}

// mergeSpilling is the reducer under a memory budget: each partial group is
// read through its boxed per-group view (key values, scalar buffers) into
// the grace hash aggregation, whose first-seen-ordered states load back into
// columns — so spilling, emission order and byte-identity at any budget are
// spillableGroups' own.
func (h *HashAggregateExec) mergeSpilling(ctx *ExecContext, om *OperatorMetrics, in []aggBlock, fns []expr.SpillableAggregate) ([]*columnar.Vector, int, error) {
	g := newSpillableGroups(ctx, "agg", len(h.Grouping), fns)
	defer g.Close()
	for _, b := range in {
		for _, i := range b.sel {
			gv := make(row.Row, len(b.keys))
			for j, kc := range b.keys {
				gv[j] = kc.Get(int(i))
			}
			err := g.upsert(gv, func(st *aggState) {
				for j, fn := range fns {
					st.buffers[j] = fn.Merge(st.buffers[j], b.lanes[j].Buffer(int(i)))
				}
			})
			if err != nil {
				return nil, 0, err
			}
		}
	}
	states, err := g.Finish()
	if err != nil {
		return nil, 0, err
	}
	om.RecordSpill(g.Stats())
	cols := make([]*columnar.Vector, 0, len(h.Grouping)+len(fns))
	for j, t := range h.keyTypes() {
		kc := expr.NewClassVector(t, len(states))
		for i, st := range states {
			kc.Set(i, st.groupVals[j])
		}
		cols = append(cols, kc)
	}
	for j, fn := range fns {
		rc := expr.NewClassVector(fn.DataType(), len(states))
		for i, st := range states {
			rc.Set(i, fn.Result(st.buffers[j]))
		}
		cols = append(cols, rc)
	}
	return cols, len(states), nil
}

// boxResultRows evaluates the result expressions over the n merged groups
// and materializes the operator's output rows — the one place aggregation
// boxes a row. The rows share one backing array (capacity-clipped, so an
// append to one never reaches the next).
func boxResultRows(cols []*columnar.Vector, n int, resultEvals []expr.VecEval) []row.Row {
	batch := &expr.VecBatch{Cols: cols, N: n}
	sel := identitySel(n)
	w := len(resultEvals)
	outCols := make([]*columnar.Vector, w)
	for j, ev := range resultEvals {
		outCols[j] = ev(batch, sel)
	}
	flat := make([]any, n*w)
	out := make([]row.Row, n)
	for i := range out {
		r := flat[i*w : (i+1)*w : (i+1)*w]
		for j, c := range outCols {
			r[j] = c.Get(i)
		}
		out[i] = r
	}
	return out
}

// splitAggregates extracts the distinct aggregate functions from the result
// expressions (still unbound: bindFns binds them to an input schema) and
// rewrites the result expressions over the synthetic row layout
// [group0..groupG-1, agg0..aggN-1].
func (h *HashAggregateExec) splitAggregates() ([]expr.AggregateFunc, []expr.Expression) {
	var fns []expr.AggregateFunc
	fnKeys := make(map[string]int)

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
				idx, seen := fnKeys[key]
				if !seen {
					idx = len(fns)
					fnKeys[key] = idx
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
