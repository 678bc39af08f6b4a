// Observability tests live in the external test package for the same
// reason as the multiproc tests: TestMain (in multiproc_test.go) routes
// worker re-execs through sqlexec.RunIfWorker.
package experiments_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	sparksql "repro"
	"repro/internal/experiments"
	"repro/internal/row"
	"repro/internal/types"
)

// TestObservabilityFederation runs the federation study twice against
// separate 3-worker clusters and demands byte-identical normalized merged
// traces — the golden-form assertion: trace shape is a deterministic
// function of the query, not of scheduling. It also checks the three
// surfaces individually: worker-attributed spans carrying the
// coordinator's trace id, a federated snapshot with every worker
// answering, and an event-log entry attributing tasks to workers.
func TestObservabilityFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process federation suite in -short mode")
	}
	cfg := experiments.DefaultObsFederationConfig()
	a, err := experiments.RunObsFederation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.RemoteSpans == 0 {
		t.Fatal("merged trace has no worker-origin spans")
	}
	if len(a.Workers) == 0 {
		t.Fatal("merged trace attributes no spans to workers")
	}
	if a.HarvestAnswered != cfg.Workers {
		t.Fatalf("harvest answered by %d/%d workers", a.HarvestAnswered, cfg.Workers)
	}
	if a.FederatedSamples == 0 {
		t.Fatal("federated snapshot is empty after harvest")
	}
	remoteTasks := 0
	for w, n := range a.EventWorkers {
		if w != "" {
			remoteTasks += n
		}
	}
	if remoteTasks == 0 {
		t.Fatalf("event log attributes no tasks to workers: %v", a.EventWorkers)
	}

	b, err := experiments.RunObsFederation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MergedJSONL != b.MergedJSONL {
		t.Fatalf("normalized merged trace not stable across runs:\n--- run A ---\n%s--- run B ---\n%s",
			a.MergedJSONL, b.MergedJSONL)
	}
	t.Logf("merged trace: %d remote + %d local spans across workers %v; %d federated samples",
		a.RemoteSpans, a.LocalSpans, a.Workers, a.FederatedSamples)
}

// TestObservabilityChaosTrace SIGKILLs a worker mid-query and asserts the
// partial run cannot corrupt the observability state: the query still
// answers correctly (checked inside the harness), every merged span still
// carries the query's trace id with a well-formed parent (also harness-
// checked), and the event log remains strict JSON line for line.
func TestObservabilityChaosTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos trace suite in -short mode")
	}
	cfg := experiments.DefaultObsFederationConfig()
	cfg.KillWorker = true
	res, err := experiments.RunObsFederation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HarvestAnswered < cfg.Workers-1 {
		t.Fatalf("harvest answered by %d workers, want >= %d survivors", res.HarvestAnswered, cfg.Workers-1)
	}
	assertStrictJSONL(t, res.EventJSONL)
	t.Logf("chaos trace: %d remote + %d local spans survived the kill; harvest answered=%d",
		res.RemoteSpans, res.LocalSpans, res.HarvestAnswered)
}

// TestHarvestUnderLoad is the -race workload: four query lanes against a
// 3-worker cluster while a reader goroutine loops the whole federation
// read path and a 1ms background harvester runs. scripts/check.sh runs
// this package under -race.
func TestHarvestUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harvest-load suite in -short mode")
	}
	if err := experiments.RunHarvestUnderLoad(3, 1200, 6); err != nil {
		t.Fatal(err)
	}
}

// TestObservabilityGate is the perf gate wired into scripts/check.sh: with
// PERF_GATE=1 it fails the build when observability-on Q1 throughput on a
// cached table regresses more than 5% against observability-off, judged on
// the median of 24 alternating, collected-before pairs (PairedOverhead).
// Env-gated because the threshold is meaningless on a machine running other
// work.
func TestObservabilityGate(t *testing.T) {
	if os.Getenv("PERF_GATE") == "" {
		t.Skip("set PERF_GATE=1 to run the observability-overhead regression gate")
	}
	const limit = 0.05
	ov, err := experiments.ObservabilityOverhead(200_000, 24)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("observability overhead on cached Q1: %.2f%%", ov*100)
	if ov > limit {
		t.Fatalf("observability overhead is %.2f%%, above the %.0f%% budget", ov*100, limit*100)
	}
}

// PairedOverhead still sees a real slowdown: on a synthetic series whose
// instrumented runs are 10% slower than their pair, with a few pairs wrecked
// by pauses on either side, it reports more than the gate's 5%; on two
// copies of one series it reports none.
func TestPairedOverheadSeesTenPercent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const pairs = 24
	on, off := make([]time.Duration, pairs), make([]time.Duration, pairs)
	for i := range pairs {
		base := time.Duration(8e6 + rng.Intn(4e6)) // 8-12 ms, drifting
		off[i] = base + time.Duration(rng.Intn(3e5))
		on[i] = base*11/10 + time.Duration(rng.Intn(3e5))
		switch i % 8 {
		case 3:
			off[i] *= 3 // a pause in the uninstrumented run
		case 6:
			on[i] *= 3
		}
	}
	ov, err := experiments.PairedOverhead(on, off)
	if err != nil {
		t.Fatal(err)
	}
	if ov <= 0.05 {
		t.Fatalf("a 10%% slower series reads %.2f%% overhead, not above the 5%% gate", ov*100)
	}
	if same, err := experiments.PairedOverhead(off, off); err != nil || same != 0 {
		t.Fatalf("a series against itself reads %v overhead (%v)", same, err)
	}
}

// TestEventLogStrictJSON runs a local workload and validates the event
// log's wire form: every line one strict JSON object with the required
// fields, one entry per completed action, errors recorded not dropped.
func TestEventLogStrictJSON(t *testing.T) {
	ctx := sparksql.NewContext()
	schema := types.StructType{}.
		Add("k", types.Long, false).
		Add("v", types.Long, false)
	rows := make([]sparksql.Row, 32)
	for i := range rows {
		rows[i] = row.Row{int64(i % 4), int64(i)}
	}
	df, err := ctx.CreateDataFrame(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("kv")

	queries := []string{
		"SELECT k, SUM(v) FROM kv GROUP BY k",
		"SELECT COUNT(*) FROM kv WHERE v > 10",
		"SELECT v FROM kv ORDER BY v LIMIT 5",
	}
	for _, q := range queries {
		qdf, err := ctx.SQL(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := qdf.Collect(); err != nil {
			t.Fatal(err)
		}
	}

	events := ctx.EventLog().Events()
	if len(events) < len(queries) {
		t.Fatalf("event log has %d entries, want >= %d", len(events), len(queries))
	}
	for _, ev := range events[len(events)-len(queries):] {
		if ev.ID == "" || ev.Action == "" || ev.PlanHash == "" || ev.Plan == "" {
			t.Fatalf("event missing required fields: %+v", ev)
		}
	}

	var buf bytes.Buffer
	if err := ctx.EventLog().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	assertStrictJSONL(t, buf.String())

	// SHOW HISTORY replays the same entries through SQL.
	hdf, err := ctx.SQL("SHOW HISTORY")
	if err != nil {
		t.Fatal(err)
	}
	hrows, err := hdf.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// The SHOW HISTORY collect itself may already have appended an event by
	// the time it renders, so only demand at least the workload's entries.
	if len(hrows) < len(queries) {
		t.Fatalf("SHOW HISTORY returned %d rows, want >= %d", len(hrows), len(queries))
	}
}

// assertStrictJSONL fails unless every line of s is a standalone strict
// JSON object that decodes without unknown-syntax leftovers.
func assertStrictJSONL(t *testing.T, s string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("empty JSONL document")
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d is not valid JSON: %q", i+1, line)
		}
		dec := json.NewDecoder(strings.NewReader(line))
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("line %d failed to decode: %v", i+1, err)
		}
		if dec.More() {
			t.Fatalf("line %d holds more than one JSON value: %q", i+1, line)
		}
	}
}
