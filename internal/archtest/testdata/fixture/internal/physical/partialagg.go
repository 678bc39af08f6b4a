package physical

import "repro/internal/rdd"

// Cut from agg.go before exchanges were plan nodes: the aggregate exchanges
// its own partial blocks.

func (h *HashAggregateExec) finalMerge(ctx *ExecContext, blocks *rdd.RDD[aggBlock]) *rdd.RDD[aggBlock] {
	return rdd.ExchangePresplit(blocks, h.buckets(ctx), h.reducers(ctx), aggBlock.groups)
}
