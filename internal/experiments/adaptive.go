package experiments

import (
	"fmt"
	"strings"
	"time"

	sparksql "repro"
	"repro/internal/datagen"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/types"
)

// Ablation: adaptive query execution (stage-graph re-planning from
// runtime statistics). The workload joins an RDD-backed fact table —
// whose size the planner cannot estimate — against a tiny dim side
// under a memory budget. Blind to the input sizes, the static planner
// picks a shuffled hash join and shuffles both sides; the adaptive driver
// materializes the join's inputs at the exchange barrier, observes a
// few-KB build side, and promotes the join to broadcast-hash, skipping
// the exchange. The fact keys come either uniform or Zipf(2)-distributed
// (the majority of rows on one key), so the same study doubles as the
// skewed-join ablation.
type AdaptiveStudy struct {
	// FactRows is the probe-side size; Keys the dim-side cardinality.
	FactRows int64
	Keys     int64
	// MemoryBudget runs both plans under a query memory pool, which caps the
	// broadcast limit at half of it.
	MemoryBudget int64
}

// NewAdaptiveStudy sizes the workload.
func NewAdaptiveStudy(factRows int64) *AdaptiveStudy {
	return &AdaptiveStudy{FactRows: factRows, Keys: 256, MemoryBudget: 64 << 20}
}

// adaptiveStudyQuery aggregates the join so the collect cost is a
// single row and the measurement isolates join execution.
const adaptiveStudyQuery = "SELECT SUM(f.v + d.v) FROM fact f JOIN dim d ON f.k = d.k"

func (s *AdaptiveStudy) context(adaptive, skewed bool) (*sparksql.Context, error) {
	cfg := sparksql.DefaultConfig()
	// Fixed counts so plans do not depend on the host's core count;
	// pipeline collapse off because fused pipelines are opaque to the
	// re-planner.
	cfg.Parallelism = 4
	cfg.ShufflePartitions = 8
	cfg.PipelineCollapse = false
	cfg.Vectorized = false
	cfg.Fusion = false
	cfg.Adaptive = adaptive
	cfg.MemoryBudget = s.MemoryBudget
	ctx := sparksql.NewContextWithConfig(cfg)

	schema := types.StructType{}.
		Add("k", types.Long, false).
		Add("v", types.Long, false)
	fact := make([]row.Row, s.FactRows)
	for i := range fact {
		var k int64
		if skewed {
			k = datagen.ZipfKey(7, int64(i), s.Keys, 2.0)
		} else {
			k = int64(i) % s.Keys
		}
		fact[i] = row.Row{k, int64(i)}
	}
	fdf, err := ctx.CreateDataFrameFromRDD(schema, rdd.Parallelize(ctx.RDDContext(), fact, 4))
	if err != nil {
		return nil, err
	}
	fdf.RegisterTempTable("fact")

	dim := make([]row.Row, s.Keys)
	for i := range dim {
		dim[i] = row.Row{int64(i), int64(i) * 3}
	}
	ddf, err := ctx.CreateDataFrameFromRDD(schema, rdd.Parallelize(ctx.RDDContext(), dim, 2))
	if err != nil {
		return nil, err
	}
	ddf.RegisterTempTable("dim")
	return ctx, nil
}

// Run executes the study query once in a fresh context and returns the
// collect wall time plus the formatted result.
func (s *AdaptiveStudy) Run(adaptive, skewed bool) (time.Duration, string, error) {
	ctx, err := s.context(adaptive, skewed)
	if err != nil {
		return 0, "", err
	}
	df, err := ctx.SQL(adaptiveStudyQuery)
	if err != nil {
		return 0, "", err
	}
	start := time.Now()
	rows, err := df.Collect()
	if err != nil {
		return 0, "", err
	}
	return time.Since(start), formatRows(rows), nil
}

// Verify checks the study is sound before anything is timed: adaptive
// and static answers agree on both workloads, and the adaptive plan
// really is promoted (EXPLAIN ANALYZE shows the broadcast switch).
func (s *AdaptiveStudy) Verify() error {
	for _, skewed := range []bool{false, true} {
		_, static, err := s.Run(false, skewed)
		if err != nil {
			return err
		}
		_, adaptive, err := s.Run(true, skewed)
		if err != nil {
			return err
		}
		if static != adaptive {
			return fmt.Errorf("adaptive study: results diverge (skewed=%v):\n%s\n-- vs --\n%s",
				skewed, static, adaptive)
		}
	}
	ctx, err := s.context(true, true)
	if err != nil {
		return err
	}
	df, err := ctx.SQL(adaptiveStudyQuery)
	if err != nil {
		return err
	}
	ea, err := df.ExplainAnalyze()
	if err != nil {
		return err
	}
	if !strings.Contains(ea, "-> BroadcastHashJoin") {
		return fmt.Errorf("adaptive study: plan was not promoted to broadcast:\n%s", ea)
	}
	return nil
}
