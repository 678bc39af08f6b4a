package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster/sqlexec"
)

// TestMain lets the smoke pass re-execute this test binary as the
// cluster_shuffle workers.
func TestMain(m *testing.M) {
	sqlexec.RunIfWorker()
	os.Exit(m.Run())
}

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		name string
		want float64
	}{
		{99, "", 0},        // p90 would leave 9 beyond it
		{100, "p90", 90},   // exactly 10 beyond
		{199, "p90", 180},  // p95 would leave 9
		{200, "p95", 190},  // exactly 10 beyond p95
		{999, "p95", 950},  // p99 would leave 9
		{1000, "p99", 990}, // exactly 10 beyond p99
	} {
		name, got := tailPercentile(ramp(c.n))
		if name != c.name || got != c.want {
			t.Errorf("n=%d: got %q %v, want %q %v", c.n, name, got, c.name, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(ramp(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	q1, q2, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("two values: got %v %v %v", q1, q2, q3)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 5, Parent: 2, Start: 12, End: 18},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 14, 3: 30, 4: 30, 5: 6} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.op = 7
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(b)
	c := tr.begin("c")
	tr.end(c)
	tr.end(a)
	if tr.spans[b-1].Parent != a || tr.spans[c-1].Parent != a || tr.spans[a-1].Parent != 0 {
		t.Errorf("parents: %+v", tr.spans)
	}
	if got := perOp(tr.spans, "a"); got < 0 || tr.spans[a-1].Op != 7 {
		t.Errorf("perOp %v, op %d", got, tr.spans[a-1].Op)
	}
	var none *tracer
	none.end(none.begin("ignored")) // a nil tracer records nothing
}

func TestDiffVerdicts(t *testing.T) {
	lat := metricDef{Name: "latency_ms_p50", Better: "lower", Bound: 0.10}
	rate := metricDef{Name: "rows_per_s", Better: "higher", Bound: 0.10}
	one := func(v float64) cell { return cell{Value: v} }
	noisy := cell{Value: 100, Q1: 90, Q3: 110, Runs: []float64{90, 100, 110}}
	steady := cell{Value: 100, Q1: 99, Q3: 101, Runs: []float64{99, 100, 101}}
	for _, c := range []struct {
		d        metricDef
		old, new cell
		want     string
	}{
		{lat, one(100), one(105), same},
		{lat, one(100), one(111), worse},
		{lat, one(100), one(89), better},
		{rate, one(100), one(111), better},
		{rate, one(100), one(89), worse},
		{rate, one(100), one(95), same},
		{lat, noisy, one(150), unresolved}, // spread 20 % > bound 10 %
		{lat, steady, noisy, unresolved},
		{lat, steady, cell{Value: 120, Q1: 119, Q3: 121, Runs: []float64{119, 120, 121}}, worse},
	} {
		if got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: got %s, want %s", c.d.Name, c.old.Value, c.new.Value, got, c.want)
		}
	}

	file := func(latency float64, failed int) resultFile {
		return resultFile{Workloads: []workloadResult{{
			Workload: "w", OpsAttempted: 100, OpsFailed: failed,
			Metrics: map[string]cell{"latency_ms_p50": one(latency)},
		}}}
	}
	var out bytes.Buffer
	if diffResults(&out, file(100, 0), file(101, 0)) {
		t.Errorf("equal results reported worse:\n%s", out.String())
	}
	if !diffResults(&out, file(100, 0), file(130, 0)) {
		t.Error("a 30 % slower median was not reported worse")
	}
	if !diffResults(&out, file(100, 0), file(100, 1)) || !strings.Contains(out.String(), "failed/attempted") {
		t.Error("a higher failure share was not reported worse")
	}
}

func TestAnswerDigest(t *testing.T) {
	var a, b, c answer
	a.add("x", int32(1), 2.5)
	a.add("y", int64(2), 4.0)
	b.add("y", "2", 4.0+1e-13) // other order, text form, float noise
	b.add("x", "1", 2.5)
	if !a.equal(b) {
		t.Errorf("same rows differ: %+v %+v", a, b)
	}
	c.add("x", int32(1), 4.0) // the floats swapped between the keys
	c.add("y", int64(2), 2.5)
	if a.equal(c) {
		t.Error("a sum credited to the wrong key went unnoticed")
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the tables in the code
// telling the same story: the driver reads the former, the harness prints
// the latter.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) || len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("counts differ: %d/%d workloads, %d/%d end-to-end, %d/%d per-layer",
			len(b.Workloads), len(workloads), len(b.EndToEnd), len(endToEnd), len(b.PerLayer), len(layerMetrics))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %q %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	for i, d := range endToEnd {
		if g := b.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, g, d)
		}
	}
	for i, d := range layerMetrics {
		if g := b.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: %+v vs %+v", i, g, d)
		}
	}
}

// TestSmoke runs all seven workloads, untraced and traced, on tiny tables
// with 200 ms windows: the oracles, the round rotation, the worker
// re-exec and every layer probe, in well under 15 s.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := runOne(runConfig{
				workload: w.name, seed: 5, seconds: 0.2, trace: trace,
				sz: smokeSizes, tmpRoot: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %s", w.name, trace, rep.Failed, rep.Attempted, rep.detail.FirstError)
			}
			defs := endToEnd
			if trace {
				defs = layerMetrics
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!trace && m.Value <= 0) {
					t.Errorf("%s trace=%v: metric %s = %v (present %v)", w.name, trace, d.Name, m.Value, ok)
				}
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke pass took %v, want < 15s", d)
	}
}
