package physical

import (
	"context"

	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
)

// Cut from join.go before exchanges were plan nodes: the joins repartition
// and collect their own inputs.

func (j *BroadcastHashJoinExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	om := j.EnableMetrics(ctx.Metrics)
	hj := newHashJoin(ctx, om, &j.EquiJoin, j.BuildRight, ctx.Codegen)
	table := BuildStage(j.buildSide().Execute(ctx), om, hj.build)
	return rdd.MapPartitionsCtx(j.probeSide().Execute(ctx), func(jc context.Context, _ int, in []row.Row) ([]row.Row, error) {
		t, err := table.Value(jc)
		return hj.probe(t, in), err
	}).Reads(table)
}

func (j *ShuffledHashJoinExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	buildRight := j.Type != plan.RightOuterJoin
	n := effectiveParts(ctx.ShufflePartitions, j.Partitions)
	probePlan, buildPlan, probeKeys, buildKeys := j.sides(buildRight)
	probeShuf := rdd.PartitionByHashCodec(probePlan.Execute(ctx), n, keyHash(bindKeys(ctx, probeKeys, probePlan.Output())), rowShuffleCodec)
	buildShuf := rdd.PartitionByHashCodec(buildPlan.Execute(ctx), n, keyHash(bindKeys(ctx, buildKeys, buildPlan.Output())), rowShuffleCodec)
	return zip(probeShuf, buildShuf)
}

func (j *NestedLoopJoinExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	build := BuildStage(j.Right.Execute(ctx), nil, func(rows []row.Row) []row.Row { return rows })
	return probeAll(j.Left.Execute(ctx), build)
}
