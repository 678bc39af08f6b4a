package physical

import (
	"repro/internal/rdd"
	"repro/internal/row"
)

// Cut from vecjoin.go before exchanges were plan nodes: a fused join collects
// its own build side.

func (f *FusedBroadcastJoinExec) buildStage(ctx *ExecContext, hj *hashJoin, out []*expr.AttributeReference, keep []bool) *rdd.Stage[*joinTable] {
	j := f.Join
	return BuildStage(j.buildSide().Execute(ctx), hj.om, func(rows []row.Row) *joinTable {
		return hj.indexLanes(newTransposer(out, keep, true).load(rows))
	})
}
