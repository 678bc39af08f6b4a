package experiments

import (
	"fmt"
	"time"

	sparksql "repro"
	"repro/internal/datagen"
	"repro/internal/row"
)

// Memory-budget ablation: what does bounding execution memory cost? Spark
// runs the same operators in memory when they fit and spills sorted runs /
// hash partitions to disk when they don't; this study runs a cached
// Q1-style aggregation and a large self-join at three budgets — unlimited,
// 10% of the data size and 1% of the data size — and reports runtime plus
// the spill traffic each budget forces. The aggregation's reducers reserve
// and spill; the shuffled join holds its reduce partitions unreserved, so a
// budget changes nothing about it. Results must be identical at every
// budget (the spill paths' byte-identical contract) and no spill file may
// survive a run.
type SpillStudy struct {
	// N is the rankings table size.
	N int64
	// DataBytes is the boxed in-memory size of the table, the reference
	// the fractional budgets are computed from.
	DataBytes int64
	rows      []row.Row
}

// SpillResult is one budget's measurements.
type SpillResult struct {
	Mode       string
	Budget     int64 // bytes; 0 = unlimited
	AggTime    time.Duration
	JoinTime   time.Duration
	SpillBytes int64 // encoded bytes written to the spill DFS
	SpillRuns  int64 // spill events across all operators
	aggText    string
	joinText   string
}

const (
	spillAggQuery = "SELECT pageRank, COUNT(*), SUM(avgDuration), AVG(avgDuration) FROM rankings GROUP BY pageRank"
	// A key-unique self-join: every row matches exactly once, so the
	// output is N rows and the join state — not the result — dominates
	// memory.
	spillJoinQuery = "SELECT a.pageURL, a.pageRank, b.avgDuration FROM rankings a JOIN rankings b ON a.pageURL = b.pageURL"
)

// NewSpillStudy generates the rankings table and measures its boxed size.
func NewSpillStudy(n int64) (*SpillStudy, error) {
	s := &SpillStudy{N: n, rows: make([]row.Row, n)}
	for i := int64(0); i < n; i++ {
		s.rows[i] = datagen.RankingRow(42, i)
		s.DataBytes += s.rows[i].ObjectSize()
	}
	return s, nil
}

// Context builds an engine at the given budget with the rankings table
// registered and cached (the aggregation scans the columnar cache, like
// the paper's warmed benchmarks).
func (s *SpillStudy) Context(budget int64) (*sparksql.Context, error) {
	cfg := sparksql.DefaultConfig()
	cfg.MemoryBudget = budget
	ctx := sparksql.NewContextWithConfig(cfg)
	df, err := ctx.CreateDataFrame(datagen.RankingsSchema(), s.rows)
	if err != nil {
		return nil, err
	}
	if _, err := df.Cache(); err != nil {
		return nil, err
	}
	df.RegisterTempTable("rankings")
	return ctx, nil
}

// Run measures all three budgets. Spill I/O keeps the DFS's default
// simulated disk cost, so the reported times include what spilling pays.
func (s *SpillStudy) Run() ([]SpillResult, error) {
	modes := []SpillResult{
		{Mode: "unlimited", Budget: 0},
		{Mode: "10% of data", Budget: s.DataBytes / 10},
		{Mode: "1% of data", Budget: s.DataBytes / 100},
	}
	for i := range modes {
		m := &modes[i]
		ctx, err := s.Context(m.Budget)
		if err != nil {
			return nil, err
		}
		collect := func(q string) (string, time.Duration, error) {
			best := time.Duration(1<<63 - 1)
			var text string
			for r := 0; r < 3; r++ {
				df, err := ctx.SQL(q)
				if err != nil {
					return "", 0, err
				}
				t0 := time.Now()
				rows, err := df.Collect()
				if err != nil {
					return "", 0, err
				}
				if d := time.Since(t0); d < best {
					best = d
				}
				text = formatRows(rows)
			}
			return text, best, nil
		}
		if m.aggText, m.AggTime, err = collect(spillAggQuery); err != nil {
			return nil, fmt.Errorf("spill study %s agg: %w", m.Mode, err)
		}
		if m.joinText, m.JoinTime, err = collect(spillJoinQuery); err != nil {
			return nil, fmt.Errorf("spill study %s join: %w", m.Mode, err)
		}
		reg := ctx.Metrics()
		m.SpillBytes = reg.Counter("memory.spill.bytes").Load()
		m.SpillRuns = reg.Counter("memory.spill.count").Load()
		if nf := ctx.SpillFS().NumFiles(); nf != 0 {
			return nil, fmt.Errorf("spill study %s: %d spill files leaked", m.Mode, nf)
		}
	}
	for _, m := range modes[1:] {
		if m.aggText != modes[0].aggText {
			return nil, fmt.Errorf("spill study %s: aggregation diverged from unlimited run", m.Mode)
		}
		if m.joinText != modes[0].joinText {
			return nil, fmt.Errorf("spill study %s: join diverged from unlimited run", m.Mode)
		}
	}
	// The aggregation's reducers fit in 10% of the data and the join
	// reserves nothing, so only the 1% budget spills.
	for _, m := range modes[:2] {
		if m.SpillBytes != 0 {
			return nil, fmt.Errorf("spill study %s: spilled %d bytes", m.Mode, m.SpillBytes)
		}
	}
	if m := modes[2]; m.SpillBytes == 0 {
		return nil, fmt.Errorf("spill study %s: budget %d forced no spilling", m.Mode, m.Budget)
	}
	return modes, nil
}
