// Benchmarks regenerating every figure of the paper's evaluation. Absolute
// numbers differ from the paper (different substrate, different scale); the
// *shape* — which system wins and by roughly what factor — is what these
// reproduce. See EXPERIMENTS.md for paper-vs-measured notes.
//
// Run: go test -bench=. -benchmem
package sparksql_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	sparksql "repro"
	"repro/internal/datagen"
	"repro/internal/datasource/colfile"
	"repro/internal/experiments"
)

// ---------------------------------------------------------------------------
// Figure 4: expression evaluation — interpreted vs codegen vs hand-written.

func BenchmarkFig4(b *testing.B) {
	f := experiments.NewFig4()
	var sink int64
	b.Run("Interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = f.Interpreted(int64(i))
		}
	})
	b.Run("Generated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = f.Generated(int64(i))
		}
	})
	b.Run("GeneratedUnboxed", func(b *testing.B) {
		for i := 0; i < b.N; i += experiments.Fig4BatchRows { // one call evaluates a batch
			sink = f.GeneratedUnboxed(int64(i))
		}
	})
	b.Run("HandWritten", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = f.HandWritten(int64(i))
		}
	})
	_ = sink
}

// ---------------------------------------------------------------------------
// Figure 8: AMPLab big data benchmark — Shark vs Spark SQL vs native.

const (
	fig8Rankings = 20_000
	fig8Visits   = 60_000
)

var (
	fig8Once  sync.Once
	fig8Data  *experiments.AMPLab
	fig8Shark *sparksql.Context
	fig8Spark *sparksql.Context
	fig8Err   error
)

func fig8Setup(b *testing.B) (*experiments.AMPLab, *sparksql.Context, *sparksql.Context) {
	b.Helper()
	fig8Once.Do(func() {
		dir, err := os.MkdirTemp("", "amplab")
		if err != nil {
			fig8Err = err
			return
		}
		fig8Data, fig8Err = experiments.NewAMPLab(dir, fig8Rankings, fig8Visits)
		if fig8Err != nil {
			return
		}
		fig8Shark, fig8Err = fig8Data.NewContext(true)
		if fig8Err != nil {
			return
		}
		fig8Spark, fig8Err = fig8Data.NewContext(false)
	})
	if fig8Err != nil {
		b.Fatal(fig8Err)
	}
	return fig8Data, fig8Shark, fig8Spark
}

func benchSQL(b *testing.B, ctx *sparksql.Context, query string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSQL(ctx, query); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	data, shark, spark := fig8Setup(b)

	for qi, x := range experiments.Q1Params {
		name := fmt.Sprintf("Q1%c", 'a'+qi)
		q := experiments.Q1(x)
		x := x
		b.Run(name+"/Shark", func(b *testing.B) { benchSQL(b, shark, q) })
		b.Run(name+"/SparkSQL", func(b *testing.B) { benchSQL(b, spark, q) })
		b.Run(name+"/Native", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				data.NativeQ1(x)
			}
		})
	}
	for qi, p := range experiments.Q2Params {
		name := fmt.Sprintf("Q2%c", 'a'+qi)
		q := experiments.Q2(p)
		p := p
		b.Run(name+"/Shark", func(b *testing.B) { benchSQL(b, shark, q) })
		b.Run(name+"/SparkSQL", func(b *testing.B) { benchSQL(b, spark, q) })
		b.Run(name+"/Native", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				data.NativeQ2(p)
			}
		})
	}
	for qi, cutoff := range experiments.Q3Params {
		name := fmt.Sprintf("Q3%c", 'a'+qi)
		q := experiments.Q3(cutoff)
		days := experiments.Q3Cutoffs[qi]
		b.Run(name+"/Shark", func(b *testing.B) { benchSQL(b, shark, q) })
		b.Run(name+"/SparkSQL", func(b *testing.B) { benchSQL(b, spark, q) })
		b.Run(name+"/Native", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				data.NativeQ3(days)
			}
		})
	}
	b.Run("Q4/Shark", func(b *testing.B) { benchSQL(b, shark, experiments.Q4Query) })
	b.Run("Q4/SparkSQL", func(b *testing.B) { benchSQL(b, spark, experiments.Q4Query) })
	b.Run("Q4/Native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			data.NativeQ4()
		}
	})
}

// ---------------------------------------------------------------------------
// Figure 9: aggregation — Python-style vs Scala-style vs DataFrame.

const (
	fig9N    = 300_000
	fig9Keys = 10_000
)

func BenchmarkFig9(b *testing.B) {
	f := experiments.NewFig9(fig9N, fig9Keys)
	b.Run("PythonRDD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.RunPython()
		}
	})
	b.Run("ScalaRDD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.RunScala()
		}
	})
	b.Run("DataFrame", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.RunDataFrame(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Figure 10: two-stage pipeline — separate engines vs integrated DataFrame.

const fig10Messages = 30_000

func BenchmarkFig10(b *testing.B) {
	f := experiments.NewFig10(fig10Messages)
	b.Run("SeparateSQLThenSpark", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.RunSeparate(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("IntegratedDataFrame", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.RunIntegrated(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md).

// Codegen on/off over the same plan (beyond Fig 4's micro view: a whole
// query).
func BenchmarkAblationCodegen(b *testing.B) {
	_, shark, spark := fig8Setup(b)
	q := experiments.Q2(8)
	b.Run("CodegenOff", func(b *testing.B) { benchSQL(b, shark, q) })
	b.Run("CodegenOn", func(b *testing.B) { benchSQL(b, spark, q) })
}

// Filter pushdown into the columnar file on/off.
func BenchmarkAblationPushdown(b *testing.B) {
	data, _, _ := fig8Setup(b)
	q := experiments.Q1(1000) // selective: pushdown skips row groups

	mk := func(pushdown bool) *sparksql.Context {
		cfg := sparksql.DefaultConfig()
		cfg.SourcePushdown = pushdown
		ctx := sparksql.NewContextWithConfig(cfg)
		df, err := ctx.Read().ColFile(data.RankingsPath)
		if err != nil {
			b.Fatal(err)
		}
		df.RegisterTempTable("rankings")
		return ctx
	}
	off := mk(false)
	on := mk(true)
	b.Run("PushdownOff", func(b *testing.B) { benchSQL(b, off, q) })
	b.Run("PushdownOn", func(b *testing.B) { benchSQL(b, on, q) })
}

// Broadcast vs shuffled hash join for the Q3 join.
func BenchmarkAblationJoin(b *testing.B) {
	data, _, _ := fig8Setup(b)
	q := experiments.Q3(experiments.Q3Params[0])

	mk := func(threshold int64) *sparksql.Context {
		cfg := sparksql.DefaultConfig()
		cfg.BroadcastThreshold = threshold
		ctx := sparksql.NewContextWithConfig(cfg)
		for name, path := range map[string]string{
			"rankings": data.RankingsPath, "uservisits": data.VisitsPath,
		} {
			df, err := ctx.Read().ColFile(path)
			if err != nil {
				b.Fatal(err)
			}
			df.RegisterTempTable(name)
		}
		return ctx
	}
	shuffled := mk(1) // nothing broadcasts
	broadcast := mk(1 << 30)
	// Warm both engines so a single cold iteration can't skew the ratio.
	if _, err := experiments.RunSQL(shuffled, q); err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.RunSQL(broadcast, q); err != nil {
		b.Fatal(err)
	}
	b.Run("ShuffledHashJoin", func(b *testing.B) { benchSQL(b, shuffled, q) })
	b.Run("BroadcastHashJoin", func(b *testing.B) { benchSQL(b, broadcast, q) })
}

// Columnar cache vs re-running the scan, plus the footprint ratio.
func BenchmarkAblationCache(b *testing.B) {
	study, err := experiments.NewCacheStudy(50_000)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("cache footprint: columnar=%dB objects=%dB ratio=%.1fx",
		study.Info.ColumnarBytes, study.Info.ObjectBytes,
		float64(study.Info.ObjectBytes)/float64(study.Info.ColumnarBytes))
	b.Run("ObjectCacheScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := study.ScanAggregateObjectCache(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CachedColumnarScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := study.ScanAggregate(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Vectorized vs row-at-a-time vs hand-written native over the cached
// Figure 8 Q1 shape (filter + project on the columnar cache).
func BenchmarkAblationVectorized(b *testing.B) {
	study, err := experiments.NewVectorizedStudy(200_000)
	if err != nil {
		b.Fatal(err)
	}
	x := experiments.Q1Params[0] // pageRank > 1000, the selective Q1a shape
	b.Run("RowAtATime", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := study.RunRow(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Vectorized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := study.RunVec(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Native", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			sink = study.RunNative(x)
		}
		_ = sink
	})
}

// Whole-stage fusion: the cached Q1 pipeline feeding a grouped aggregate,
// with the sink running row-at-a-time, above an (unfused) vectorized
// pipeline, and fused into the batch loop with type-specialized group
// tables. The native subbenchmark is the hand-written ceiling.
func BenchmarkFusedAggregate(b *testing.B) {
	study, err := experiments.NewFusionStudy(200_000)
	if err != nil {
		b.Fatal(err)
	}
	// Q1: the low-cardinality cached-Q1 shape; Q2a: a string-function key
	// with ~10^5 groups, where the table, exchange and result rows dominate.
	for _, shape := range []struct {
		name   string
		q      string
		native func() int64
	}{
		{"Q1", experiments.FusedAggQuery(), study.NativeAgg},
		{"Q2a", experiments.FusedKeyedAggQuery(), study.NativeKeyedAgg},
	} {
		for _, bc := range []struct {
			name string
			run  func(string) (int64, error)
		}{
			{"RowAtATime", study.RunRow},
			{"Vectorized", study.RunVec},
			{"Fused", study.RunFused},
		} {
			b.Run(shape.name+"/"+bc.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bc.run(shape.q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(shape.name+"/Native", func(b *testing.B) {
			var sink int64
			for i := 0; i < b.N; i++ {
				sink = shape.native()
			}
			_ = sink
		})
	}
}

// Whole-stage fusion of the broadcast-join probe: the same pipeline probing
// a sparse broadcast dimension, where the fused probe reads keys off the
// column vectors and only materializes matching rows — for the inner join and
// for each shape that used to keep the row join above the vectorized pipeline
// (which is what the Vectorized engine still runs).
func BenchmarkFusedJoinProbe(b *testing.B) {
	study, err := experiments.NewFusionStudy(200_000)
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range experiments.FusedJoinShapes {
		for _, bc := range []struct {
			name string
			run  func(string) (int64, error)
		}{
			{"RowAtATime", study.RunRow},
			{"Vectorized", study.RunVec},
			{"Fused", study.RunFused},
		} {
			b.Run(shape.Name+"/"+bc.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bc.run(shape.Query); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// The result edge: what Collect allocates per result row when a batch top
// ends the plan — Q1c over a 50 000-row colfile (a vectorized pipeline) and
// Q2a over a cached 50 000-row uservisits (a fused aggregate's reducers). A
// row's values are boxed once, in the task that produced them, and its header
// is cut once: B/row and allocs/row track both.
func BenchmarkCollectEdge(b *testing.B) {
	const n = 50_000
	rankings, visits := make([]sparksql.Row, n), make([]sparksql.Row, n)
	for i := range rankings {
		rankings[i], visits[i] = datagen.RankingRow(5, int64(i)), datagen.UserVisitRow(5, int64(i), n)
	}
	path := filepath.Join(b.TempDir(), "rankings.gcf")
	if err := colfile.Write(path, datagen.RankingsSchema(), rankings, 8192); err != nil {
		b.Fatal(err)
	}
	ctx := sparksql.NewContext()
	rdf, err := ctx.Read().ColFile(path)
	if err != nil {
		b.Fatal(err)
	}
	rdf.RegisterTempTable("rankings")
	vdf, err := ctx.CreateDataFrame(datagen.UserVisitsSchema(), visits)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := vdf.Cache(); err != nil {
		b.Fatal(err)
	}
	vdf.RegisterTempTable("uservisits")
	for _, c := range []struct{ name, q string }{
		{"pipeline", experiments.Q1(experiments.Q1Params[2])},
		{"aggregate", experiments.Q2(experiments.Q2Params[0])},
	} {
		b.Run(c.name, func(b *testing.B) {
			df, err := ctx.SQL(c.q)
			if err != nil {
				b.Fatal(err)
			}
			rows, err := df.Collect()
			if err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				if _, err := df.Collect(); err != nil {
					b.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perRow := float64(b.N) * float64(len(rows))
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perRow, "B/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perRow, "allocs/row")
		})
	}
}

// Instrumentation overhead: the same cached Q1 scan with per-operator
// metrics on (the default) and off, on both execution paths. The on/off
// pairs should be indistinguishable — that is what justifies leaving
// metrics enabled by default.
func BenchmarkMetricsOverhead(b *testing.B) {
	study, err := experiments.NewMetricsOverheadStudy(200_000)
	if err != nil {
		b.Fatal(err)
	}
	x := experiments.Q1Params[0]
	for _, bc := range []struct {
		name string
		ctx  *sparksql.Context
	}{
		{"Row/MetricsOn", study.OnRow},
		{"Row/MetricsOff", study.OffRow},
		{"Vectorized/MetricsOn", study.OnVec},
		{"Vectorized/MetricsOff", study.OffVec},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := study.Run(bc.ctx, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Federation pushdown: time plus bytes over the simulated link.
func BenchmarkAblationFederation(b *testing.B) {
	fed, err := experiments.NewFederation(5_000, 20_000)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("PushdownOff", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			_, bytes, err = fed.Run(false)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(bytes), "link-bytes")
	})
	b.Run("PushdownOn", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			_, bytes, err = fed.Run(true)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(bytes), "link-bytes")
	})
}

// ---------------------------------------------------------------------------
// Cost-based join reordering: star-schema query with a selective dimension
// filter, reorder on vs off. With statistics the optimizer joins the fact
// table against the filtered (tiny) dimension first, shrinking the
// intermediate result; without reordering the plan follows query order and
// pays for a full fact-times-dim1 intermediate.

func joinReorderContext(b *testing.B, reorder bool) *sparksql.Context {
	b.Helper()
	cfg := sparksql.DefaultConfig()
	cfg.JoinReorder = reorder
	ctx := sparksql.NewContextWithConfig(cfg)

	fact := sparksql.StructType{}.
		Add("f_id", sparksql.LongType, false).
		Add("d1_k", sparksql.LongType, false).
		Add("d2_k", sparksql.LongType, false).
		Add("amount", sparksql.DoubleType, false)
	factRows := make([]sparksql.Row, 0, 100000)
	for i := int64(0); i < 100000; i++ {
		factRows = append(factRows, sparksql.Row{i, i % 50, i % 5000, float64(i%97) / 2})
	}
	dim1 := sparksql.StructType{}.
		Add("d1_k", sparksql.LongType, false).
		Add("d1_name", sparksql.StringType, false)
	dim1Rows := make([]sparksql.Row, 0, 50)
	for i := int64(0); i < 50; i++ {
		dim1Rows = append(dim1Rows, sparksql.Row{i, fmt.Sprintf("d1-%d", i)})
	}
	dim2 := sparksql.StructType{}.
		Add("d2_k", sparksql.LongType, false).
		Add("d2_name", sparksql.StringType, false)
	dim2Rows := make([]sparksql.Row, 0, 5000)
	for i := int64(0); i < 5000; i++ {
		// 50 distinct names: an equality filter keeps ~2% of the dimension.
		dim2Rows = append(dim2Rows, sparksql.Row{i, fmt.Sprintf("d2-%d", i%50)})
	}
	for name, in := range map[string]struct {
		schema sparksql.StructType
		rows   []sparksql.Row
	}{
		"fact": {fact, factRows}, "dim1": {dim1, dim1Rows}, "dim2": {dim2, dim2Rows},
	} {
		df, err := ctx.CreateDataFrame(in.schema, in.rows)
		if err != nil {
			b.Fatal(err)
		}
		df.RegisterTempTable(name)
		if _, err := ctx.SQL("ANALYZE TABLE " + name + " COMPUTE STATISTICS"); err != nil {
			b.Fatal(err)
		}
	}
	return ctx
}

func BenchmarkJoinReorder(b *testing.B) {
	q := `SELECT d1_name, SUM(amount) AS total
	      FROM fact
	      JOIN dim1 ON fact.d1_k = dim1.d1_k
	      JOIN dim2 ON fact.d2_k = dim2.d2_k
	      WHERE d2_name = 'd2-7'
	      GROUP BY d1_name`
	off := joinReorderContext(b, false)
	on := joinReorderContext(b, true)
	// Warm both engines so a cold first iteration can't skew the ratio.
	if _, err := experiments.RunSQL(off, q); err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.RunSQL(on, q); err != nil {
		b.Fatal(err)
	}
	b.Run("ReorderOff", func(b *testing.B) { benchSQL(b, off, q) })
	b.Run("ReorderOn", func(b *testing.B) { benchSQL(b, on, q) })
}

// BenchmarkPlanLocalJoin plans (never runs) a self-join over an in-memory
// table: a relation's size is taken from its rows once per relation, so
// planning costs the same at 1 000 rows and at 100 000.
func BenchmarkPlanLocalJoin(b *testing.B) {
	for _, c := range []struct {
		name string
		rows int
	}{{"1k", 1_000}, {"100k", 100_000}} {
		b.Run(c.name, func(b *testing.B) {
			ctx := sparksql.NewContext()
			rows := make([]sparksql.Row, c.rows)
			for i := range rows {
				rows[i] = sparksql.Row{int64(i), fmt.Sprintf("v%d", i%100)}
			}
			df, err := ctx.CreateDataFrame(sparksql.StructType{}.
				Add("k", sparksql.LongType, false).
				Add("v", sparksql.StringType, false), rows)
			if err != nil {
				b.Fatal(err)
			}
			df.RegisterTempTable("t")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q, err := ctx.SQL("SELECT a.v, COUNT(*) FROM t a JOIN t b ON a.k = b.k GROUP BY a.v")
				if err == nil {
					_, err = q.Explain()
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Spill benchmarks: the same sort and aggregation with and without a
// memory budget. Budgeted runs reserve far more than the data needs and must
// not spill: the gap to InMemory is the price of *having* a budget. Spilling
// runs get 1% of the data size and pay encoding plus simulated spill-disk I/O:
// the price of *hitting* it (Spark's external sort / spillable hash
// aggregation trade-off).

func spillBenchContexts(b *testing.B, n int64) (unlimited, roomy, tight *sparksql.Context) {
	b.Helper()
	s, err := experiments.NewSpillStudy(n)
	if err != nil {
		b.Fatal(err)
	}
	ctxs := make([]*sparksql.Context, 3)
	for i, budget := range []int64{0, 8 << 30, s.DataBytes / 100} {
		if ctxs[i], err = s.Context(budget); err != nil {
			b.Fatal(err)
		}
	}
	return ctxs[0], ctxs[1], ctxs[2]
}

// benchBudgets runs q unbudgeted, under a budget it never hits (checked: no
// spill) and under one it hits.
func benchBudgets(b *testing.B, n int64, q string) {
	unlimited, roomy, tight := spillBenchContexts(b, n)
	b.Run("InMemory", func(b *testing.B) { benchSQL(b, unlimited, q) })
	b.Run("Budgeted", func(b *testing.B) {
		benchSQL(b, roomy, q)
		if n := roomy.Metrics().Counter("memory.spill.count").Load(); n != 0 {
			b.Fatalf("%d spills under an 8 GiB budget", n)
		}
	})
	b.Run("Spilling", func(b *testing.B) { benchSQL(b, tight, q) })
}

func BenchmarkExternalSort(b *testing.B) {
	benchBudgets(b, 20_000, "SELECT pageURL, pageRank FROM rankings ORDER BY pageRank, pageURL")
}

// BenchmarkSpillAggregate has two shapes: a few hundred groups, where the
// reducers' state is small whatever the budget, and one group per input row
// (FusedKeyedAggQuery), where the merged state is the data.
func BenchmarkSpillAggregate(b *testing.B) {
	b.Run("LowCard", func(b *testing.B) {
		benchBudgets(b, 20_000, "SELECT pageRank, COUNT(*), SUM(avgDuration), AVG(avgDuration) FROM rankings GROUP BY pageRank")
	})
	b.Run("HighCard", func(b *testing.B) { benchBudgets(b, 200_000, experiments.FusedKeyedAggQuery()) })
}
