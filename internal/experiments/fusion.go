package experiments

import (
	"fmt"

	sparksql "repro"
	"repro/internal/datagen"
	"repro/internal/row"
)

// Ablation: whole-stage fusion over the columnar cache. Three engines hold
// the same cached rankings table. The row engine materializes a boxed row at
// every operator boundary; the vectorized engine runs the scan→filter
// pipeline batch-at-a-time but still hands boxed rows to the aggregate and
// join operators above it; the fused engine runs scan→filter→aggregate-update
// (and scan→filter→join-probe) over batches end to end, with
// type-specialized group and probe tables. A hand-written loop over typed
// slices is the native ceiling for the aggregate shape.
type FusionStudy struct {
	RowCtx   *sparksql.Context // Vectorized off
	VecCtx   *sparksql.Context // Vectorized on, Fusion off
	FusedCtx *sparksql.Context // Vectorized on, Fusion on
	N        int64

	urls      []string
	ranks     []int32
	durations []int32
}

// FusedAggQuery aggregates the cached Q1 shape: the scan and pageRank filter
// of AMPLab Q1 (its least-selective variant, so the aggregate sees real
// volume) feeding a grouped aggregate over the 99 distinct durations.
func FusedAggQuery() string {
	return "SELECT avgDuration, count(*), sum(pageRank), avg(pageRank) " +
		"FROM rankings WHERE pageRank > 1 GROUP BY avgDuration"
}

// FusedKeyedAggQuery is the Q2a shape the low-cardinality query above cannot
// stand in for: a string-function key with ~10^5 groups (every pageURL's
// numeric suffix is distinct), where the cost is the group table, the
// partial -> final exchange and the result rows rather than the scan. It is
// gated on running the native string table, not merely on "fused: true".
func FusedKeyedAggQuery() string {
	return "SELECT SUBSTR(pageURL, 5, 9), SUM(pageRank) FROM rankings GROUP BY SUBSTR(pageURL, 5, 9)"
}

// FusedJoinQuery probes a sparse broadcast dimension (every fifth duration)
// from the same pipeline shape: most probe rows miss, which is exactly where
// the fused probe wins — missed rows are never materialized.
func FusedJoinQuery() string {
	return "SELECT r.pageURL, d.bucket FROM rankings r " +
		"JOIN durdim d ON r.avgDuration = d.avgDuration WHERE r.pageRank > 1"
}

// FusedJoinShapes are the probes BenchmarkFusedJoinProbe and benchrunner time
// row-vs-fused: the sparse inner join above, then one join per admission
// condition the Fuse rule once had and no longer has — a three-column key
// (the generic group table), LEFT SEMI, and a residual over the joined row —
// each of which ran the row join over the vectorized pipeline before.
var FusedJoinShapes = []struct{ Name, Query string }{
	{"inner", FusedJoinQuery()},
	{"generic-key", "SELECT r.pageURL, d.bucket FROM rankings r JOIN durdim d " +
		"ON r.avgDuration = d.avgDuration AND r.pageRank % 2 = d.parity AND SUBSTR(r.pageURL, 1, 4) = d.prefix WHERE r.pageRank > 1"},
	{"left-semi", "SELECT r.pageURL FROM rankings r LEFT SEMI JOIN durdim d " +
		"ON r.avgDuration = d.avgDuration WHERE r.pageRank > 1"},
	{"residual", "SELECT r.pageURL, d.bucket FROM rankings r JOIN durdim d " +
		"ON r.avgDuration = d.avgDuration AND r.pageRank < d.avgDuration WHERE r.pageRank > 1"},
}

// NewFusionStudy builds and caches n rankings rows (plus a sparse duration
// dimension) under all three engines.
func NewFusionStudy(n int64) (*FusionStudy, error) {
	s := &FusionStudy{N: n}
	rows := make([]row.Row, n)
	s.urls = make([]string, n)
	s.ranks = make([]int32, n)
	s.durations = make([]int32, n)
	for i := int64(0); i < n; i++ {
		r := datagen.RankingRow(42, i)
		rows[i] = r
		s.urls[i] = r[0].(string)
		s.ranks[i] = r[1].(int32)
		s.durations[i] = r[2].(int32)
	}
	dimSchema := sparksql.StructType{}.
		Add("avgDuration", sparksql.IntType, false).
		Add("bucket", sparksql.StringType, false).
		Add("parity", sparksql.IntType, false).
		Add("prefix", sparksql.StringType, false)
	var dimRows []row.Row
	for d := int32(5); d <= 99; d += 5 {
		dimRows = append(dimRows, row.Row{d, fmt.Sprintf("bucket%02d", d/10), d / 5 % 2, "url_"})
	}
	mk := func(vectorized, fusion bool) (*sparksql.Context, error) {
		cfg := sparksql.DefaultConfig()
		cfg.Vectorized = vectorized
		cfg.Fusion = fusion
		ctx := sparksql.NewContextWithConfig(cfg)
		df, err := ctx.CreateDataFrame(datagen.RankingsSchema(), rows)
		if err != nil {
			return nil, err
		}
		if _, err := df.Cache(); err != nil {
			return nil, err
		}
		df.RegisterTempTable("rankings")
		ddf, err := ctx.CreateDataFrame(dimSchema, dimRows)
		if err != nil {
			return nil, err
		}
		if _, err := ddf.Cache(); err != nil {
			return nil, err
		}
		ddf.RegisterTempTable("durdim")
		return ctx, nil
	}
	var err error
	if s.RowCtx, err = mk(false, false); err != nil {
		return nil, err
	}
	if s.VecCtx, err = mk(true, false); err != nil {
		return nil, err
	}
	if s.FusedCtx, err = mk(true, true); err != nil {
		return nil, err
	}
	return s, nil
}

// RunRow / RunVec / RunFused execute a query on the respective engine.
func (s *FusionStudy) RunRow(q string) (int64, error)   { return RunSQL(s.RowCtx, q) }
func (s *FusionStudy) RunVec(q string) (int64, error)   { return RunSQL(s.VecCtx, q) }
func (s *FusionStudy) RunFused(q string) (int64, error) { return RunSQL(s.FusedCtx, q) }

// NativeAgg is the hand-written ceiling for the aggregate shape: one pass
// over typed slices into dense per-duration accumulators.
func (s *FusionStudy) NativeAgg() int64 {
	var counts [100]int64
	var sums [100]int64
	for i, rank := range s.ranks {
		if rank > 10 {
			d := s.durations[i]
			counts[d]++
			sums[d] += int64(rank)
		}
	}
	var groups int64
	for _, c := range counts {
		if c > 0 {
			groups++
		}
	}
	return groups
}

// NativeKeyedAgg is the hand-written ceiling for the keyed shape: one pass
// slicing each URL into a string-keyed map.
func (s *FusionStudy) NativeKeyedAgg() int64 {
	sums := make(map[string]int64, len(s.urls))
	for i, u := range s.urls {
		sums[u[4:13]] += int64(s.ranks[i])
	}
	return int64(len(sums))
}

// Verify asserts all three engines produce identical result sets for every
// shape (compared as sorted sets: emission order is the property suite's
// concern, in fusion_test.go), and that the aggregates match the native
// group counts.
func (s *FusionStudy) Verify() error {
	queries := []string{FusedAggQuery(), FusedKeyedAggQuery()}
	for _, shape := range FusedJoinShapes {
		queries = append(queries, shape.Query)
	}
	for _, q := range queries {
		rowRes, err := collectSorted(s.RowCtx, q)
		if err != nil {
			return err
		}
		vecRes, err := collectSorted(s.VecCtx, q)
		if err != nil {
			return err
		}
		fusedRes, err := collectSorted(s.FusedCtx, q)
		if err != nil {
			return err
		}
		if rowRes != vecRes {
			return fmt.Errorf("fusion: %q vectorized diverged from row path", q)
		}
		if rowRes != fusedRes {
			return fmt.Errorf("fusion: %q fused diverged from row path", q)
		}
	}
	aggRows, err := s.RunFused(FusedAggQuery())
	if err != nil {
		return err
	}
	if aggRows != s.NativeAgg() {
		return fmt.Errorf("fusion: fused agg %d groups, native %d", aggRows, s.NativeAgg())
	}
	keyedRows, err := s.RunFused(FusedKeyedAggQuery())
	if err != nil {
		return err
	}
	if keyedRows != s.NativeKeyedAgg() {
		return fmt.Errorf("fusion: fused keyed agg %d groups, native %d", keyedRows, s.NativeKeyedAgg())
	}
	return nil
}

// collectSorted runs a query and renders its rows in canonical sorted form.
func collectSorted(ctx *sparksql.Context, q string) (string, error) {
	df, err := ctx.SQL(q)
	if err != nil {
		return "", err
	}
	rows, err := df.Collect()
	if err != nil {
		return "", err
	}
	return formatRows(rows), nil
}

// FusedPlan returns the fused engine's EXPLAIN output for a query, so
// callers can assert fusion actually engaged — and on which group table —
// before timing it.
func (s *FusionStudy) FusedPlan(q string) (string, error) {
	df, err := s.FusedCtx.SQL(q)
	if err != nil {
		return "", err
	}
	return df.Explain()
}
