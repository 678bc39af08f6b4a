package physical

import (
	"context"

	"repro/internal/rdd"
	"repro/internal/row"
)

// SortMergeJoinExec, cut to its declaration and its zip: a second shuffled
// join beside ShuffledHashJoinExec. The name in this comment is not reported.
type SortMergeJoinExec struct {
	EquiJoin
}

func (j *SortMergeJoinExec) SimpleString() string {
	return j.describe("SortMergeJoin", 0)
}

func (j *SortMergeJoinExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	leftShuf, rightShuf := j.shuffle(ctx)
	zipped, _ := rdd.ZipPartitionsCtx(leftShuf, rightShuf, func(_ context.Context, _ int, ls, rs []row.Row) ([]row.Row, error) {
		return merge(ls, rs), nil
	})
	return zipped
}
