package physical

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
)

// rowsSize sums the approximate in-memory size of a materialized build
// side, for the joins' build-bytes metric.
func rowsSize(rows []row.Row) int64 {
	var n int64
	for _, r := range rows {
		n += r.ObjectSize()
	}
	return n
}

// lazyBuild memoizes a per-query build-side materialization (broadcast
// hash table, collected rows, interval tree, ...) that runs as a nested
// job inside the first probe task — so build-side failures and
// cancellation flow through the task path instead of panicking at
// plan-build time.
type lazyBuild[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (b *lazyBuild[T]) get(jc context.Context, build func(context.Context) (T, error)) (T, error) {
	b.once.Do(func() { b.val, b.err = build(jc) })
	return b.val, b.err
}

// Join execution. The planner extracts equi-join keys from the join
// condition; the residual (non-equi) condition is evaluated on each
// candidate pair. Broadcast-vs-shuffled selection is the planner's
// cost-based decision (paper §4.3.3).

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

// keyFunc builds the grouping key of a row under bound key evaluators.
func keyFunc(evals []func(row.Row) any) func(row.Row) (string, bool) {
	ords := make([]int, len(evals))
	for i := range ords {
		ords[i] = i
	}
	return func(r row.Row) (string, bool) {
		kv := make(row.Row, len(evals))
		for i, ev := range evals {
			v := ev(r)
			if v == nil {
				return "", false // NULL keys never match in equi-joins
			}
			kv[i] = v
		}
		return row.GroupKey(kv, ords), true
	}
}

func bindKeys(ctx *ExecContext, keys []expr.Expression, input []*expr.AttributeReference) []func(row.Row) any {
	out := make([]func(row.Row) any, len(keys))
	for i, k := range keys {
		out[i] = ctx.evaluator(bind(k, input))
	}
	return out
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
	AdaptiveNote
	Left, Right         SparkPlan
	LeftKeys, RightKeys []expr.Expression
	Type                plan.JoinType
	Residual            expr.Expression
	// BuildRight marks which side is collected (true = right).
	BuildRight bool
}

func (j *BroadcastHashJoinExec) Children() []SparkPlan { return []SparkPlan{j.Left, j.Right} }
func (j *BroadcastHashJoinExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *j
	c.Left, c.Right = children[0], children[1]
	return &c
}
func (j *BroadcastHashJoinExec) Output() []*expr.AttributeReference {
	return joinOutput(j.Type, j.Left.Output(), j.Right.Output())
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
	if j.BuildRight {
		return j.Left
	}
	return j.Right
}
func (j *BroadcastHashJoinExec) buildSide() SparkPlan {
	if j.BuildRight {
		return j.Right
	}
	return j.Left
}
func (j *BroadcastHashJoinExec) probeBuildKeys() (probe, build []expr.Expression) {
	if j.BuildRight {
		return j.LeftKeys, j.RightKeys
	}
	return j.RightKeys, j.LeftKeys
}

// sides orders (probe, build) as the join's (left, right).
func (j *BroadcastHashJoinExec) sides(probe, build SparkPlan) (left, right SparkPlan) {
	if j.BuildRight {
		return probe, build
	}
	return build, probe
}

func (j *BroadcastHashJoinExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	leftOut, rightOut := j.Left.Output(), j.Right.Output()
	match := residualPred(ctx, j.Residual, leftOut, rightOut)
	om := j.EnableMetrics(ctx.Metrics)

	// Build one side, stream the other (right-outer joins stream the right).
	probePlan, buildPlan := j.probeSide(), j.buildSide()
	probeKeys, buildKeys := j.probeBuildKeys()
	probeKey := keyFunc(bindKeys(ctx, probeKeys, probePlan.Output()))
	buildKey := keyFunc(bindKeys(ctx, buildKeys, buildPlan.Output()))
	appendProbe, nBuild := appendProbeRight, len(rightOut)
	if !j.BuildRight {
		appendProbe, nBuild = appendProbeLeft, len(leftOut)
	}
	build := buildPlan.Execute(ctx)
	lazy := &lazyBuild[map[string][]row.Row]{}
	return rdd.MapPartitionsCtx(probePlan.Execute(ctx), func(jc context.Context, _ int, in []row.Row) ([]row.Row, error) {
		table, err := lazy.get(jc, func(jc context.Context) (map[string][]row.Row, error) {
			rows, err := build.CollectContext(jc)
			if err != nil {
				return nil, err
			}
			if om != nil {
				om.RecordBuild(len(rows), rowsSize(rows))
			}
			return buildHashTable(rows, buildKey), nil
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var out []row.Row
		for _, r := range in {
			out = appendProbe(out, r, table, probeKey, match, j.Type, nBuild)
		}
		om.RecordPartition(len(out), time.Since(start))
		return out, nil
	})
}

func buildHashTable(rows []row.Row, key func(row.Row) (string, bool)) map[string][]row.Row {
	t := make(map[string][]row.Row, len(rows))
	for _, r := range rows {
		if k, ok := key(r); ok {
			t[k] = append(t[k], r)
		}
	}
	return t
}

// appendProbeRight joins probe row l (left) against a right-side hash table.
func appendProbeRight(out []row.Row, l row.Row, table map[string][]row.Row,
	probeKey func(row.Row) (string, bool), match func(l, r row.Row) bool,
	t plan.JoinType, nRight int) []row.Row {
	matched := false
	if k, ok := probeKey(l); ok {
		for _, r := range table[k] {
			if match(l, r) {
				matched = true
				if t == plan.LeftSemiJoin {
					return append(out, l)
				}
				out = append(out, concatRows(l, r))
			}
		}
	}
	if !matched && t == plan.LeftOuterJoin {
		out = append(out, concatRows(l, nullRow(nRight)))
	}
	return out
}

// appendProbeLeft joins probe row r (right) against a left-side hash table.
func appendProbeLeft(out []row.Row, r row.Row, table map[string][]row.Row,
	probeKey func(row.Row) (string, bool), match func(l, r row.Row) bool,
	t plan.JoinType, nLeft int) []row.Row {
	matched := false
	if k, ok := probeKey(r); ok {
		for _, l := range table[k] {
			if match(l, r) {
				matched = true
				out = append(out, concatRows(l, r))
			}
		}
	}
	if !matched && t == plan.RightOuterJoin {
		out = append(out, concatRows(nullRow(nLeft), r))
	}
	return out
}

// ShuffledHashJoinExec hash-partitions both sides on the join keys and
// joins partition-by-partition — the general path when neither side is
// small enough to broadcast.
type ShuffledHashJoinExec struct {
	PlanEstimate
	PlanMetrics
	AdaptiveNote
	Left, Right         SparkPlan
	LeftKeys, RightKeys []expr.Expression
	Type                plan.JoinType
	Residual            expr.Expression
	// Partitions, when positive, caps the exchange's reducer count below
	// the session default (chosen by the planner from the estimated input
	// size).
	Partitions int
	// SkewSplits, when set (length = the exchange's effective reducer
	// count), splits reduce partition i into SkewSplits[i] contiguous
	// probe-side chunks, each joined against that partition's full build
	// bucket as its own task. Chunk outputs concatenated in (partition,
	// chunk) order are byte-identical to the unsplit join for the probe-
	// order-preserving types (Inner/Cross/LeftOuter/LeftSemi); the
	// adaptive driver never splits the others.
	SkewSplits []int
}

func (j *ShuffledHashJoinExec) Children() []SparkPlan { return []SparkPlan{j.Left, j.Right} }
func (j *ShuffledHashJoinExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *j
	c.Left, c.Right = children[0], children[1]
	return &c
}
func (j *ShuffledHashJoinExec) Output() []*expr.AttributeReference {
	return joinOutput(j.Type, j.Left.Output(), j.Right.Output())
}
func (j *ShuffledHashJoinExec) SimpleString() string {
	s := fmt.Sprintf("ShuffledHashJoin %s keys=[%s]=[%s]",
		j.Type, exprListString(j.LeftKeys), exprListString(j.RightKeys))
	if j.Partitions > 0 {
		s += fmt.Sprintf(" parts=%d", j.Partitions)
	}
	return s
}
func (j *ShuffledHashJoinExec) String() string { return Format(j) }

func (j *ShuffledHashJoinExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	leftOut, rightOut := j.Left.Output(), j.Right.Output()
	leftKey := keyFunc(bindKeys(ctx, j.LeftKeys, leftOut))
	rightKey := keyFunc(bindKeys(ctx, j.RightKeys, rightOut))
	match := residualPred(ctx, j.Residual, leftOut, rightOut)
	n := ctx.ShufflePartitions
	if j.Partitions > 0 && j.Partitions < n {
		n = j.Partitions
	}

	leftShuf := rdd.PartitionByHashCodec(j.Left.Execute(ctx), n, func(r row.Row) uint64 {
		k, ok := leftKey(r)
		if !ok {
			return 0
		}
		return row.HashValue(k)
	}, rowShuffleCodec)
	rightShuf := rdd.PartitionByHashCodec(j.Right.Execute(ctx), n, func(r row.Row) uint64 {
		k, ok := rightKey(r)
		if !ok {
			return 0
		}
		return row.HashValue(k)
	}, rowShuffleCodec)

	nLeft, nRight := len(leftOut), len(rightOut)
	t := j.Type
	om := j.EnableMetrics(ctx.Metrics)
	probe := func(ls, rs []row.Row) []row.Row {
		start := time.Now()
		if om != nil {
			om.RecordBuild(len(rs), rowsSize(rs))
		}
		table := buildHashTable(rs, rightKey)
		var out []row.Row
		rightMatched := make(map[string][]bool)
		if t == plan.FullOuterJoin {
			for k, rows := range table {
				rightMatched[k] = make([]bool, len(rows))
			}
			// NULL-key right rows never enter the hash table but must
			// still appear null-extended in a full outer join.
			for _, r := range rs {
				if _, ok := rightKey(r); !ok {
					out = append(out, concatRows(nullRow(nLeft), r))
				}
			}
		}
		for _, l := range ls {
			matched := false
			if k, ok := leftKey(l); ok {
				for i, r := range table[k] {
					if match(l, r) {
						matched = true
						if t == plan.LeftSemiJoin {
							break
						}
						if t == plan.FullOuterJoin {
							rightMatched[k][i] = true
						}
						out = append(out, concatRows(l, r))
					}
				}
			}
			switch {
			case t == plan.LeftSemiJoin && matched:
				out = append(out, l)
			case !matched && (t == plan.LeftOuterJoin || t == plan.FullOuterJoin):
				out = append(out, concatRows(l, nullRow(nRight)))
			}
		}
		if t == plan.RightOuterJoin {
			// Re-probe from the right for unmatched right rows.
			ltable := buildHashTable(ls, leftKey)
			out = out[:0]
			for _, r := range rs {
				out = appendProbeLeft(out, r, ltable, rightKey, match, t, nLeft)
			}
		}
		if t == plan.FullOuterJoin {
			for k, rows := range table {
				for i, r := range rows {
					if !rightMatched[k][i] {
						out = append(out, concatRows(nullRow(nLeft), r))
					}
				}
			}
		}
		om.RecordPartition(len(out), time.Since(start))
		return out
	}

	if refs := skewChunks(j.SkewSplits, n, t); refs != nil {
		// Skew-split execution: each chunk of an oversized probe bucket
		// joins against that bucket's full build side as its own task, so
		// one hot key no longer serializes behind a single reducer. The
		// memoized shuffles compute their map sides once; chunks fetch.
		return rdd.GenerateCtx(ctx.RDD, "skewjoin", len(refs), func(jc context.Context, q int) ([]row.Row, error) {
			ref := refs[q]
			ls, err := leftShuf.PartitionContext(jc, ref.part)
			if err != nil {
				return nil, err
			}
			rs, err := rightShuf.PartitionContext(jc, ref.part)
			if err != nil {
				return nil, err
			}
			lo := len(ls) * ref.idx / ref.of
			hi := len(ls) * (ref.idx + 1) / ref.of
			return probe(ls[lo:hi], rs), nil
		})
	}

	zipped, err := rdd.ZipPartitions(leftShuf, rightShuf, func(_ int, ls, rs []row.Row) []row.Row {
		return probe(ls, rs)
	})
	if err != nil {
		// Both sides are hash-partitioned to n above; unequal counts here
		// are a planner bug, not a runtime task failure.
		panic(err)
	}
	return zipped
}

// chunkRef addresses one probe-side chunk of one reduce partition.
type chunkRef struct {
	part, idx, of int
}

// skewChunks expands a per-partition split vector into the ordered chunk
// list, or nil when splitting does not apply (no splits, a count mismatch
// from a diverged config, or a join type whose reduce output is not
// probe-input-ordered).
func skewChunks(splits []int, n int, t plan.JoinType) []chunkRef {
	if len(splits) != n || !skewSplittable(t) {
		return nil
	}
	any := false
	total := 0
	for _, s := range splits {
		if s < 1 {
			return nil
		}
		if s > 1 {
			any = true
		}
		total += s
	}
	if !any {
		return nil
	}
	refs := make([]chunkRef, 0, total)
	for p, s := range splits {
		for c := 0; c < s; c++ {
			refs = append(refs, chunkRef{part: p, idx: c, of: s})
		}
	}
	return refs
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
	build := j.Right.Execute(ctx)
	lazy := &lazyBuild[[]row.Row]{}
	nRight := len(rightOut)
	t := j.Type
	om := j.EnableMetrics(ctx.Metrics)
	return rdd.MapPartitionsCtx(j.Left.Execute(ctx), func(jc context.Context, _ int, in []row.Row) ([]row.Row, error) {
		rightRows, err := lazy.get(jc, func(jc context.Context) ([]row.Row, error) {
			rows, err := build.CollectContext(jc)
			if err != nil {
				return nil, err
			}
			if om != nil {
				om.RecordBuild(len(rows), rowsSize(rows))
			}
			return rows, nil
		})
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
	})
}
