package experiments

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestFig4AllStrategiesAgree(t *testing.T) {
	f := NewFig4()
	for _, x := range []int64{0, 1, -7, 1 << 40} {
		want := 3 * x
		if got := f.Interpreted(x); got != want {
			t.Fatalf("interpreted(%d) = %d", x, got)
		}
		if got := f.Generated(x); got != want {
			t.Fatalf("generated(%d) = %d", x, got)
		}
		if got := f.GeneratedUnboxed(x); got != want {
			t.Fatalf("unboxed(%d) = %d", x, got)
		}
		if got := f.HandWritten(x); got != want {
			t.Fatalf("hand(%d) = %d", x, got)
		}
	}
}

func TestFig9ImplementationsAgree(t *testing.T) {
	f := NewFig9(20_000, 500)
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFig10PipelinesAgree(t *testing.T) {
	f := NewFig10(3_000)
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	if f.BytesThroughDFS() == 0 {
		t.Fatal("separate pipeline should move bytes through the DFS")
	}
}

func TestAMPLabEnginesAgree(t *testing.T) {
	a, err := NewAMPLab(t.TempDir(), 2_000, 6_000)
	if err != nil {
		t.Fatal(err)
	}
	shark, err := a.NewContext(true)
	if err != nil {
		t.Fatal(err)
	}
	spark, err := a.NewContext(false)
	if err != nil {
		t.Fatal(err)
	}

	// Q1: all engines agree on the row count for each selectivity.
	for _, x := range Q1Params {
		want := a.NativeQ1(x)
		nShark, err := RunSQL(shark, Q1(x))
		if err != nil {
			t.Fatal(err)
		}
		nSpark, err := RunSQL(spark, Q1(x))
		if err != nil {
			t.Fatal(err)
		}
		if nShark != want || nSpark != want {
			t.Fatalf("Q1(%d): native=%d shark=%d spark=%d", x, want, nShark, nSpark)
		}
	}

	// Q2: group counts agree.
	for _, p := range Q2Params {
		want := a.NativeQ2(p)
		got, err := RunSQL(spark, Q2(p))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Q2(%d): native=%d spark=%d", p, want, got)
		}
	}

	// Q3: the winning source IP's revenue agrees.
	for i, cutoff := range Q3Params {
		ip, rev := a.NativeQ3(Q3Cutoffs[i])
		df, err := spark.SQL(Q3(cutoff))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := df.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("Q3(%s): got %d rows", cutoff, len(rows))
		}
		gotRev := rows[0][1].(float64)
		if diff := gotRev - rev; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("Q3(%s): native (%s, %f) vs spark %v", cutoff, ip, rev, rows[0])
		}
	}

	// Q4: bucket counts agree.
	want := a.NativeQ4()
	got, err := RunSQL(spark, Q4Query)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Q4: native=%d spark=%d", want, got)
	}
}

func TestFederationPushdownReducesTransfer(t *testing.T) {
	fed, err := NewFederation(1_000, 4_000)
	if err != nil {
		t.Fatal(err)
	}
	rowsOff, bytesOff, err := fed.Run(false)
	if err != nil {
		t.Fatal(err)
	}
	rowsOn, bytesOn, err := fed.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	if rowsOff != rowsOn {
		t.Fatalf("result rows differ: %d vs %d", rowsOff, rowsOn)
	}
	if rowsOn == 0 {
		t.Fatal("federated query returned no rows")
	}
	if bytesOn*2 >= bytesOff {
		t.Fatalf("pushdown should cut link bytes substantially: on=%d off=%d", bytesOn, bytesOff)
	}
	log := fed.RemoteQueryLog()
	if len(log) == 0 {
		t.Fatal("remote database saw no queries")
	}
}

func TestCacheStudyFootprint(t *testing.T) {
	study, err := NewCacheStudy(5_000)
	if err != nil {
		t.Fatal(err)
	}
	if study.Info.ObjectBytes < 4*study.Info.ColumnarBytes {
		t.Fatalf("columnar cache should be several times smaller: columnar=%d objects=%d",
			study.Info.ColumnarBytes, study.Info.ObjectBytes)
	}
	if _, err := study.ScanAggregate(); err != nil {
		t.Fatal(err)
	}
	// Both cache regimes compute identical results.
	a, err := study.ScanAggregate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := study.ScanAggregateObjectCache()
	if err != nil {
		t.Fatal(err)
	}
	if diff := a - b; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("cache regimes disagree: %f vs %f", a, b)
	}
}

func TestVectorizedStudyVerify(t *testing.T) {
	study, err := NewVectorizedStudy(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := study.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestFusionStudyVerify checks the fusion ablation's correctness contract —
// all three engines agree on both shapes — and that the fused engine's plans
// actually contain the fused operators (otherwise the ablation would be
// timing the thing it claims to have replaced).
func TestFusionStudyVerify(t *testing.T) {
	study, err := NewFusionStudy(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := study.Verify(); err != nil {
		t.Fatal(err)
	}
	for q, want := range fusedPlanMarks {
		plan, err := study.FusedPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, want) {
			t.Fatalf("%q: plan lacks %q:\n%s", q, want, plan)
		}
	}
}

// fusedPlanMarks is what each study shape's EXPLAIN must show before its
// timing means anything: the fused operator, and the group table with every
// kernel native (a string-function key once ran the generic boxed table under
// a bare "fused: true").
var fusedPlanMarks = map[string]string{
	FusedAggQuery():          "(fused: true, table=i64, kernels 4/4 native)",
	FusedKeyedAggQuery():     "(fused: true, table=str, kernels 2/2 native)",
	FusedJoinShapes[0].Query: "FusedBroadcastHashJoin Inner build=right",
	FusedJoinShapes[1].Query: "(fused: true, table=generic, kernels 3/3 native)",
	FusedJoinShapes[2].Query: "FusedBroadcastHashJoin LeftSemi build=right",
	FusedJoinShapes[3].Query: "(fused: true, table=i64, kernels 1/1 native)",
}

// TestFusionGate is the perf gate wired into scripts/check.sh: with
// PERF_GATE=1 it fails the build unless fused aggregation beats the unfused
// vectorized path by ≥2x on the cached Q1 aggregate shape (the ISSUE's
// acceptance floor), and the fused join probe is at least as fast as the
// unfused one. Env-gated because thresholds are meaningless on a machine
// running other work.
func TestFusionGate(t *testing.T) {
	if os.Getenv("PERF_GATE") == "" {
		t.Skip("set PERF_GATE=1 to run the fusion regression gate")
	}
	study, err := NewFusionStudy(200_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := study.Verify(); err != nil {
		t.Fatal(err)
	}
	measure := func(run func(string) (int64, error), q string) time.Duration {
		// Best of 3: the gate asks whether the speedup CAN hold, not
		// whether every noisy sample does.
		best := time.Duration(1<<63 - 1)
		for try := 0; try < 3; try++ {
			start := time.Now()
			if _, err := run(q); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	aggQ := FusedAggQuery()
	vec := measure(study.RunVec, aggQ)
	fused := measure(study.RunFused, aggQ)
	speedup := float64(vec) / float64(fused)
	t.Logf("fused aggregate: vectorized=%v fused=%v speedup=%.2fx", vec, fused, speedup)
	if speedup < 2.0 {
		t.Fatalf("fused aggregation speedup %.2fx, below the 2x acceptance floor", speedup)
	}
	// The Q2a shape: ~10^5 string-function groups, where the group table,
	// the partial -> final exchange and the result rows are the cost. The
	// unfused plan shares the typed phase 2, so the floor is lower than the
	// scan-dominated shape's: 1.5x, between the 2.3x measured with the key
	// on the string table and the 1.08x measured (at the parent commit) with
	// the key boxed into the generic table.
	keyedQ := FusedKeyedAggQuery()
	if plan, err := study.FusedPlan(keyedQ); err != nil || !strings.Contains(plan, fusedPlanMarks[keyedQ]) {
		t.Fatalf("keyed aggregate not on the native string table (%v):\n%s", err, plan)
	}
	vecK := measure(study.RunVec, keyedQ)
	fusedK := measure(study.RunFused, keyedQ)
	speedupK := float64(vecK) / float64(fusedK)
	t.Logf("fused keyed aggregate: vectorized=%v fused=%v speedup=%.2fx", vecK, fusedK, speedupK)
	if speedupK < 1.5 {
		t.Fatalf("fused keyed aggregation speedup %.2fx, below the 1.5x floor", speedupK)
	}
	joinQ := FusedJoinQuery()
	vecJ := measure(study.RunVec, joinQ)
	fusedJ := measure(study.RunFused, joinQ)
	speedupJ := float64(vecJ) / float64(fusedJ)
	t.Logf("fused join probe: vectorized=%v fused=%v speedup=%.2fx", vecJ, fusedJ, speedupJ)
	if speedupJ < 1.0 {
		t.Fatalf("fused join probe is slower than the unfused path (%.2fx)", speedupJ)
	}
}

func TestMetricsOverheadStudyVerify(t *testing.T) {
	study, err := NewMetricsOverheadStudy(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := study.Verify(); err != nil {
		t.Fatal(err)
	}
	// Smoke the measurement path; the regression threshold lives in the
	// PERF_GATE test, not here — a loaded CI machine must not flake this.
	if _, err := study.Overhead(true, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := study.Overhead(false, 2); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsOverheadGate is the perf gate wired into scripts/check.sh: with
// PERF_GATE=1 it fails the build when instrumented Q1 throughput regresses
// more than 5% against the metrics-off baseline, on either execution path.
// It is env-gated because the threshold is meaningless on a machine running
// other work.
func TestMetricsOverheadGate(t *testing.T) {
	if os.Getenv("PERF_GATE") == "" {
		t.Skip("set PERF_GATE=1 to run the metrics-overhead regression gate")
	}
	study, err := NewMetricsOverheadStudy(200_000)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 0.05
	for _, path := range []struct {
		name       string
		vectorized bool
	}{{"row", false}, {"vectorized", true}} {
		// Best of 3 measurements: the gate asks whether the overhead CAN
		// stay under the limit, not whether every noisy sample does.
		best := 1.0
		for try := 0; try < 3; try++ {
			ov, err := study.Overhead(path.vectorized, 10)
			if err != nil {
				t.Fatal(err)
			}
			if ov < best {
				best = ov
			}
		}
		t.Logf("metrics overhead on %s path: %.2f%%", path.name, best*100)
		if best > limit {
			t.Fatalf("metrics overhead on %s path is %.2f%%, above the %.0f%% budget",
				path.name, best*100, limit*100)
		}
	}
}

// The memory-budget ablation doubles as a correctness check: identical
// results at every budget, real spilling at the bounded ones, zero spill
// files left behind.
func TestSpillStudy(t *testing.T) {
	s, err := NewSpillStudy(6_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		t.Logf("%-12s budget=%-8d agg=%-12v join=%-12v spilled=%d B in %d runs",
			r.Mode, r.Budget, r.AggTime, r.JoinTime, r.SpillBytes, r.SpillRuns)
	}
}

// TestAdaptiveStudyVerify checks the adaptive ablation's soundness on
// every run: identical answers with adaptation on and off, and a plan
// that really was promoted. The speed thresholds live in the PERF_GATE
// test — a loaded CI machine must not flake this.
func TestAdaptiveStudyVerify(t *testing.T) {
	if err := NewAdaptiveStudy(20_000).Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveGate is the perf gate wired into scripts/check.sh: with
// PERF_GATE=1 it fails the build unless adaptive execution is no slower
// than static planning (within a 1.25x noise bound) on (a) uniform data
// and (b) the skewed-join ablation, where the size-blind static plan
// shuffles a join that adaptation promotes to broadcast. Env-gated
// because thresholds are meaningless on a machine running other work.
func TestAdaptiveGate(t *testing.T) {
	if os.Getenv("PERF_GATE") == "" {
		t.Skip("set PERF_GATE=1 to run the adaptive regression gate")
	}
	study := NewAdaptiveStudy(200_000)
	if err := study.Verify(); err != nil {
		t.Fatal(err)
	}
	measure := func(adaptive, skewed bool) time.Duration {
		// Best of 3: the gate asks whether the speedup CAN hold, not
		// whether every noisy sample does.
		best := time.Duration(1<<63 - 1)
		for try := 0; try < 3; try++ {
			d, _, err := study.Run(adaptive, skewed)
			if err != nil {
				t.Fatal(err)
			}
			if d < best {
				best = d
			}
		}
		return best
	}
	uniStatic := measure(false, false)
	uniAdaptive := measure(true, false)
	t.Logf("uniform: static=%v adaptive=%v (%.2fx)",
		uniStatic, uniAdaptive, float64(uniStatic)/float64(uniAdaptive))
	if float64(uniAdaptive) > 1.25*float64(uniStatic) {
		t.Fatalf("adaptive execution is %.2fx slower than static on uniform data",
			float64(uniAdaptive)/float64(uniStatic))
	}
	skewStatic := measure(false, true)
	skewAdaptive := measure(true, true)
	t.Logf("skewed join: static=%v adaptive=%v (%.2fx)",
		skewStatic, skewAdaptive, float64(skewStatic)/float64(skewAdaptive))
	if float64(skewAdaptive) > 1.25*float64(skewStatic) {
		t.Fatalf("adaptive execution is %.2fx slower than static on the skewed join",
			float64(skewAdaptive)/float64(skewStatic))
	}
}

func TestIngestStudyVerify(t *testing.T) {
	cfg := IngestConfig{Dir: t.TempDir(), Rows: 5_000, BatchSize: 500}
	res, err := RunIngestStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 10 {
		t.Fatalf("ran %d batches, want 10", res.Batches)
	}
	t.Logf("ingest: %.0f rows/s, WAL recovery %.1f ms, checkpoint %.1f ms, ckpt recovery %.1f ms",
		res.RowsPerSec, res.WALRecoveryMillis, res.CheckpointMillis, res.CkptRecoveryMillis)
}

// TestIngestGate is the perf gate wired into scripts/check.sh: with
// PERF_GATE=1 it fails the build when durable ingest throughput falls
// below the acceptance floor, or when recovery costs more than the ingest
// that produced the data (replay skips the per-transaction fsyncs, so it
// must win). Env-gated because thresholds are meaningless on a machine
// running other work.
func TestIngestGate(t *testing.T) {
	if os.Getenv("PERF_GATE") == "" {
		t.Skip("set PERF_GATE=1 to run the ingest regression gate")
	}
	// Best of 3: the gate asks whether the throughput CAN hold, not
	// whether every noisy sample does.
	var best *IngestResult
	for try := 0; try < 3; try++ {
		res, err := RunIngestStudy(DefaultIngestConfig(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		if best == nil || res.RowsPerSec > best.RowsPerSec {
			best = res
		}
	}
	t.Logf("ingest: %.0f rows/s over %d batches, WAL recovery %.1f ms, ckpt recovery %.1f ms",
		best.RowsPerSec, best.Batches, best.WALRecoveryMillis, best.CkptRecoveryMillis)
	if best.RowsPerSec < 100_000 {
		t.Fatalf("durable ingest %.0f rows/s, below the 100k rows/s acceptance floor", best.RowsPerSec)
	}
	if best.WALRecoveryMillis > best.IngestMillis {
		t.Fatalf("WAL replay (%.1f ms) is slower than the fsync-bound ingest that wrote it (%.1f ms)",
			best.WALRecoveryMillis, best.IngestMillis)
	}
	if best.CkptRecoveryMillis > best.IngestMillis {
		t.Fatalf("checkpoint recovery (%.1f ms) is slower than the ingest that wrote it (%.1f ms)",
			best.CkptRecoveryMillis, best.IngestMillis)
	}
}
