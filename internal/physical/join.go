package physical

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/types"
)

// Join execution. The planner extracts equi-join keys from the join
// condition; the residual (non-equi) condition is evaluated on each
// candidate pair. Broadcast-vs-shuffled selection is the planner's
// cost-based decision (paper §4.3.3).

// EquiJoin is what the equi-join operators (broadcast hash, shuffled hash)
// both carry: the two inputs, the key pairs the planner extracted
// from the join condition, the join type and the residual condition.
type EquiJoin struct {
	Left, Right         SparkPlan
	LeftKeys, RightKeys []expr.Expression
	Type                plan.JoinType
	Residual            expr.Expression
}

func (j *EquiJoin) Children() []SparkPlan { return []SparkPlan{j.Left, j.Right} }

// sides are the join's probe and build inputs and keys, the right side
// building when buildRight.
func (j *EquiJoin) sides(buildRight bool) (probe, build SparkPlan, probeKeys, buildKeys []expr.Expression) {
	if buildRight {
		return j.Left, j.Right, j.LeftKeys, j.RightKeys
	}
	return j.Right, j.Left, j.RightKeys, j.LeftKeys
}

func (j *EquiJoin) Output() []*expr.AttributeReference {
	return joinOutput(j.Type, j.Left.Output(), j.Right.Output())
}

// joinOutput computes the output attributes for a join type.
func joinOutput(t plan.JoinType, left, right []*expr.AttributeReference) []*expr.AttributeReference {
	switch t {
	case plan.LeftSemiJoin:
		return left
	case plan.LeftOuterJoin:
		return append(append([]*expr.AttributeReference{}, left...), nullable(right)...)
	case plan.RightOuterJoin:
		return append(nullable(left), right...)
	case plan.FullOuterJoin:
		return append(nullable(left), nullable(right)...)
	default:
		return append(append([]*expr.AttributeReference{}, left...), right...)
	}
}

func nullable(attrs []*expr.AttributeReference) []*expr.AttributeReference {
	out := make([]*expr.AttributeReference, len(attrs))
	for i, a := range attrs {
		out[i] = a.WithNullable(true)
	}
	return out
}

// bindKeys binds a join side's key expressions to its input as row
// evaluators, for the shuffled join's exchange hash (keyHash). Equality says
// NaN = NaN and -0.0 = 0.0 while hashes read the bits, so floating-point keys
// are canonicalized here, as joinKernels does for the tables.
func bindKeys(ctx *ExecContext, keys []expr.Expression, input []*expr.AttributeReference) []func(row.Row) any {
	out := make([]func(row.Row) any, len(keys))
	for i, k := range keys {
		ev := ctx.evaluator(bind(k, input))
		if columnar.KindOf(k.DataType()) == columnar.KindFloat64 {
			raw := ev
			ev = func(r row.Row) any { return canonFloat(raw(r)) }
		}
		out[i] = ev
	}
	return out
}

// canonF64 is the one representative of the float64s equality calls equal.
func canonF64(x float64) float64 {
	if x == 0 {
		return 0
	} else if x != x {
		return math.NaN()
	}
	return x
}

func canonFloat(v any) any {
	switch x := v.(type) {
	case float64:
		return canonF64(x)
	case float32:
		return float32(canonF64(float64(x)))
	}
	return v
}

// keyHash is the join exchanges' partitioning hash: the engine's
// process-independent value hash over the evaluated keys. A NULL key matches
// nothing, so where it lands is irrelevant: 0.
func keyHash(evals []func(row.Row) any) func(row.Row) uint64 {
	return func(r row.Row) uint64 {
		h := row.NewHasher()
		for _, ev := range evals {
			v := ev(r)
			if v == nil {
				return 0
			}
			h = h.Value(v)
		}
		return h.Sum()
	}
}

// residualPred binds the residual condition over the concatenated
// (left ++ right) row; nil condition means always true.
func residualPred(ctx *ExecContext, cond expr.Expression, left, right []*expr.AttributeReference) func(l, r row.Row) bool {
	if cond == nil {
		return func(l, r row.Row) bool { return true }
	}
	input := append(append([]*expr.AttributeReference{}, left...), right...)
	pred := ctx.predicate(bind(cond, input))
	nl := len(left)
	return func(l, r row.Row) bool {
		joined := make(row.Row, nl+len(r))
		copy(joined, l)
		copy(joined[nl:], r)
		return pred(joined)
	}
}

func concatRows(l, r row.Row) row.Row {
	out := make(row.Row, len(l)+len(r))
	copy(out, l)
	copy(out[len(l):], r)
	return out
}

func nullRow(n int) row.Row { return make(row.Row, n) }

// BroadcastHashJoinExec collects the build side once, broadcasts the hash
// table, and streams the probe side with no shuffle — chosen when the build
// side's estimated size is under the broadcast threshold (paper §4.3.3,
// "for relations that are known to be small, Spark SQL uses a broadcast
// join, using a peer-to-peer broadcast facility available in Spark").
type BroadcastHashJoinExec struct {
	PlanEstimate
	PlanMetrics
	FusionNote
	EquiJoin
	// BuildRight marks which side is collected (true = right).
	BuildRight bool
}

func (j *BroadcastHashJoinExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *j
	c.Left, c.Right = children[0], children[1]
	return &c
}
func (j *BroadcastHashJoinExec) SimpleString() string {
	side := "left"
	if j.BuildRight {
		side = "right"
	}
	return fmt.Sprintf("BroadcastHashJoin %s build=%s keys=[%s]=[%s]",
		j.Type, side, exprListString(j.LeftKeys), exprListString(j.RightKeys))
}
func (j *BroadcastHashJoinExec) String() string { return Format(j) }

// probeSide is the input a broadcast join streams; buildSide the one it
// collects into the hash table.
func (j *BroadcastHashJoinExec) probeSide() SparkPlan {
	probe, _, _, _ := j.sides(j.BuildRight)
	return probe
}
func (j *BroadcastHashJoinExec) buildSide() SparkPlan {
	_, build, _, _ := j.sides(j.BuildRight)
	return build
}

// withProbeSide is the join over a different probe input.
func (j *BroadcastHashJoinExec) withProbeSide(p SparkPlan) *BroadcastHashJoinExec {
	c := *j
	if c.BuildRight {
		c.Left = p
	} else {
		c.Right = p
	}
	return &c
}

func (j *BroadcastHashJoinExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	om := j.EnableMetrics(ctx.Metrics)
	// Build one side, stream the other (right-outer joins stream the right).
	hj := newHashJoin(ctx, om, &j.EquiJoin, j.BuildRight, ctx.Codegen)
	table := broadcastStage(exchangeOf(j.buildSide()), ctx, om, hj.build)
	return rdd.MapPartitionsCtx(j.probeSide().Execute(ctx), func(jc context.Context, _ int, in []row.Row) ([]row.Row, error) {
		t, err := table.Value(jc)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		out := hj.probe(t, in)
		om.RecordPartition(len(out), time.Since(start))
		return out, nil
	}).Reads(table)
}

// hashJoin is a hash join bound for execution — what the broadcast, shuffled
// and fused operators share: both sides' key kernels, the output layout, and
// the build and probe steps over a joinTable.
type hashJoin struct {
	jt plan.JoinType
	om *OperatorMetrics
	// Each side's key kernels run over its input's batches — a row input's
	// transposed lanes holding the columns the keys read (probeReads,
	// buildReads) — a floating-point key canonicalized.
	probeKeys, buildKeys   []expr.VecEval
	probeIn, buildIn       []*expr.AttributeReference
	probeReads, buildReads []bool
	codegen                bool // native kernels over class lanes; false = the interpreter over boxed lanes
	// keyTypes (the build keys') types the key vectors of both sides: the
	// analyzer has made the two sides of every key equality one type.
	keyTypes  []types.DataType
	typed     bool     // every probe key typed: the specialized tables; false = the generic table
	fallbacks []string // the probe keys on the boxed scalar fallback
	// An output row is width cells: the probe row's at probeAt, the build
	// row's at buildAt (left cells first).
	width, probeAt, buildAt int
	residual                func(row.Row) bool // over the joined row; nil = none
}

// newHashJoin binds j to build the side buildRight names and probe from the
// other, and tells EXPLAIN ANALYZE which group table the build side will use:
// a specialized one when every probe key kernel is typed, whichever join.
func newHashJoin(ctx *ExecContext, om *OperatorMetrics, j *EquiJoin, buildRight, codegen bool) *hashJoin {
	probe, build, probeKeys, buildKeys := j.sides(buildRight)
	probeOut, buildOut := probe.Output(), build.Output()
	h := &hashJoin{jt: j.Type, om: om, codegen: codegen, keyTypes: exprTypes(buildKeys),
		probeIn: probeOut, buildIn: buildOut, probeReads: make([]bool, len(probeOut)), buildReads: make([]bool, len(buildOut)),
		width: len(probeOut) + len(buildOut), buildAt: len(probeOut)}
	h.probeKeys, h.typed, h.fallbacks = joinKernels(probeKeys, probeOut, codegen)
	h.buildKeys, _, _ = joinKernels(buildKeys, buildOut, codegen)
	for i := range probeKeys {
		markBoundRefs(bind(probeKeys[i], probeOut), h.probeReads)
		markBoundRefs(bind(buildKeys[i], buildOut), h.buildReads)
	}
	left, right := probeOut, buildOut
	if !buildRight {
		h.probeAt, h.buildAt = len(buildOut), 0
		left, right = buildOut, probeOut
	}
	if j.Residual != nil {
		h.residual = ctx.predicate(bind(j.Residual, append(append([]*expr.AttributeReference{}, left...), right...)))
	}
	if om != nil {
		om.Table = keyCmpFor(h.keyTypes, keyNative(len(h.keyTypes), h.typed)).String()
	}
	return h
}

// build indexes the build rows, the columns their keys read transposed a
// chunk at a time: a row join's probe copies rows.
func (h *hashJoin) build(rows []row.Row) *joinTable {
	chunk := newTransposer(h.buildIn, h.buildReads, h.codegen)
	kvecs := make([]*columnar.Vector, len(h.buildKeys))
	t := h.index(len(rows), func(lo, hi int) ([]*columnar.Vector, int) {
		b, all := chunk.load(rows[lo:hi])
		return evalKeys(h.buildKeys, kvecs, b, all), lo
	})
	t.rows = rows
	return t
}

// probe streams one partition of probe rows through the table, a transposed
// chunk at a time: probe rows in input order, each one's matches in
// build-collect order, then (FULL OUTER) the build rows nothing matched.
func (h *hashJoin) probe(t *joinTable, in []row.Row) []row.Row {
	var rows []row.Row // the chunk being probed
	p := h.newProbe(t, func(i int, dst row.Row) { copy(dst, rows[i]) })
	chunk := newTransposer(h.probeIn, h.probeReads, h.codegen)
	kvecs := make([]*columnar.Vector, len(h.probeKeys))
	for off := 0; off < len(in); off += rowChunk {
		rows = in[off:min(off+rowChunk, len(in))]
		b, all := chunk.load(rows)
		p.batch(evalKeys(h.probeKeys, kvecs, b, all), all)
	}
	return p.finish()
}

// evalKeys runs key kernels over the live rows of a batch into vecs.
func evalKeys(evals []expr.VecEval, vecs []*columnar.Vector, b *expr.VecBatch, live []int32) []*columnar.Vector {
	for i, ev := range evals {
		vecs[i] = ev(b, live)
	}
	return vecs
}

// ShuffledHashJoinExec joins two hash exchanges of its sides on the join
// keys bucket by bucket — the general path when neither side is small enough
// to broadcast.
type ShuffledHashJoinExec struct {
	PlanEstimate
	PlanMetrics
	EquiJoin
}

func (j *ShuffledHashJoinExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *j
	c.Left, c.Right = children[0], children[1]
	return &c
}
func (j *ShuffledHashJoinExec) SimpleString() string {
	return fmt.Sprintf("ShuffledHashJoin %s keys=[%s]=[%s]", j.Type, exprListString(j.LeftKeys), exprListString(j.RightKeys))
}
func (j *ShuffledHashJoinExec) String() string { return Format(j) }

// buildsRight says which side builds: the right, except under RIGHT OUTER,
// which preserves the right rows: there the roles swap.
func (j *ShuffledHashJoinExec) buildsRight() bool { return j.Type != plan.RightOuterJoin }

func (j *ShuffledHashJoinExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	om := j.EnableMetrics(ctx.Metrics)
	hj := newHashJoin(ctx, om, &j.EquiJoin, j.buildsRight(), ctx.Codegen)
	probe, build, _, _ := j.sides(j.buildsRight())
	return zipBuckets(ctx, exchangeOf(probe), exchangeOf(build), j.Type, func(ps, bs []row.Row) []row.Row {
		start := time.Now()
		if om != nil {
			om.RecordBuild(len(bs), rowsSize(bs))
		}
		out := hj.probe(hj.build(bs), ps)
		om.RecordPartition(len(out), time.Since(start))
		return out
	})
}

// NestedLoopJoinExec handles joins without equi-keys by collecting the
// right side and testing every pair — the fallback the paper's §7.2 range-
// join research motivates replacing.
type NestedLoopJoinExec struct {
	PlanEstimate
	PlanMetrics
	Left, Right SparkPlan
	Type        plan.JoinType
	Cond        expr.Expression
}

func (j *NestedLoopJoinExec) Children() []SparkPlan { return []SparkPlan{j.Left, j.Right} }
func (j *NestedLoopJoinExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *j
	c.Left, c.Right = children[0], children[1]
	return &c
}
func (j *NestedLoopJoinExec) Output() []*expr.AttributeReference {
	return joinOutput(j.Type, j.Left.Output(), j.Right.Output())
}
func (j *NestedLoopJoinExec) SimpleString() string {
	return fmt.Sprintf("NestedLoopJoin %s %v", j.Type, j.Cond)
}
func (j *NestedLoopJoinExec) String() string { return Format(j) }

func (j *NestedLoopJoinExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	leftOut, rightOut := j.Left.Output(), j.Right.Output()
	match := residualPred(ctx, j.Cond, leftOut, rightOut)
	nRight := len(rightOut)
	t := j.Type
	om := j.EnableMetrics(ctx.Metrics)
	build := broadcastStage(exchangeOf(j.Right), ctx, om, func(rows []row.Row) []row.Row { return rows })
	return rdd.MapPartitionsCtx(j.Left.Execute(ctx), func(jc context.Context, _ int, in []row.Row) ([]row.Row, error) {
		rightRows, err := build.Value(jc)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var out []row.Row
		for _, l := range in {
			matched := false
			for _, r := range rightRows {
				if match(l, r) {
					matched = true
					if t == plan.LeftSemiJoin {
						break
					}
					out = append(out, concatRows(l, r))
				}
			}
			switch {
			case t == plan.LeftSemiJoin && matched:
				out = append(out, l)
			case !matched && t == plan.LeftOuterJoin:
				out = append(out, concatRows(l, nullRow(nRight)))
			}
		}
		om.RecordPartition(len(out), time.Since(start))
		return out, nil
	}).Reads(build)
}
