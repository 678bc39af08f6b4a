package experiments

// Observability federation study: the distributed-tracing counterpart of
// the multiproc chaos suite. A coordinator context and real re-execed
// worker processes run a fixed query; the harness then inspects the three
// observability surfaces the cluster must agree on — the merged trace
// (worker spans carrying the coordinator's trace id), the federated
// metrics snapshot (worker-labeled counters pulled over the task
// protocol), and the query event log (per-worker actuals replayed from
// the merged spans). With KillWorker set, one worker is SIGKILLed
// mid-query and the same invariants must still hold: a worker's death may
// truncate its spans, never corrupt the merged trace or the event log.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	sparksql "repro"
	"repro/internal/metrics"
)

// ObsFederationConfig shapes one federation run.
type ObsFederationConfig struct {
	// Workers is how many worker processes to spawn.
	Workers int
	// N is the rankings table size.
	N int64
	// KillWorker SIGKILLs one worker mid-query before the observed query
	// runs, so the merged trace is built while the cluster is recovering.
	KillWorker bool
}

// DefaultObsFederationConfig is what the tests and scripts/check.sh run.
func DefaultObsFederationConfig() ObsFederationConfig {
	return ObsFederationConfig{Workers: 3, N: 1200}
}

// ObsFederationResult summarizes one run.
type ObsFederationResult struct {
	// TraceID is the observed query's coordinator-allocated trace id.
	TraceID string
	// MergedJSONL is the observed query's merged trace, normalized (ids,
	// workers and timings replaced by stable markers) and sorted — the
	// golden form: two runs of the same workload must render identically.
	MergedJSONL string
	// RemoteSpans / LocalSpans split the merged trace by origin process.
	RemoteSpans int
	LocalSpans  int
	// Workers are the distinct worker ids attributed in the merged trace.
	Workers []string
	// HarvestAnswered is how many workers answered the federation pull;
	// FederatedSamples is the merged snapshot size after it.
	HarvestAnswered  int
	FederatedSamples int
	// EventJSONL is the full event log in its strict-JSON wire form.
	EventJSONL string
	// EventWorkers is the per-worker task attribution recorded in the
	// observed query's event-log entry (worker "" = coordinator-local).
	EventWorkers map[string]int
}

// obsQuery is the observed workload: shuffle-free, so every partition is
// one independent remote dispatch and the merged trace has a fixed shape.
const obsQuery = "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 50"

// RunObsFederation runs the study. The calling process must have passed
// sqlexec.RunIfWorker in its TestMain so worker re-execs work.
func RunObsFederation(cfg ObsFederationConfig) (*ObsFederationResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	res := &ObsFederationResult{}

	// Fault-free local golden answer.
	golden, err := chaosContext(cfg.N, false, false)
	if err != nil {
		return nil, err
	}
	wantRows, err := collectSQL(golden, obsQuery)
	if err != nil {
		return nil, err
	}
	want := formatRows(wantRows)

	dcfg := sparksql.DefaultConfig()
	dcfg.Parallelism = 4
	dcfg.ShufflePartitions = 4
	dcfg.Cluster = &sparksql.ClusterOptions{
		HeartbeatTimeout: 700 * time.Millisecond,
		TaskTimeout:      30 * time.Second,
	}
	dist := sparksql.NewContextWithConfig(dcfg)
	defer dist.Close()
	if err := loadRankings(dist, cfg.N, false); err != nil {
		return nil, err
	}
	dist.RDDContext().SetBackoff(time.Microsecond, 50*time.Microsecond)

	addr := dist.ClusterAddr()
	procs := make(map[string]*workerProc, cfg.Workers)
	defer func() {
		for _, p := range procs {
			p.kill()
		}
	}()
	for i := 0; i < cfg.Workers; i++ {
		id := fmt.Sprintf("obs-w%d", i)
		p, err := spawnWorker(addr, id)
		if err != nil {
			return nil, fmt.Errorf("obsfed: spawn %s: %w", id, err)
		}
		procs[id] = p
	}
	if err := waitWorkers(dist, cfg.Workers, 10*time.Second); err != nil {
		return nil, err
	}

	// Warm the session (ships the catalog) so the observed query's trace
	// is execution, not initialization.
	if _, err := collectSQL(dist, "SELECT COUNT(*) FROM rankings"); err != nil {
		return nil, err
	}

	if cfg.KillWorker {
		go func() {
			time.Sleep(2 * time.Millisecond) // land mid-query
			procs["obs-w0"].kill()
		}()
	}

	got, err := collectSQL(dist, obsQuery)
	if err != nil {
		return nil, fmt.Errorf("obsfed: observed query: %w", err)
	}
	if formatRows(got) != want {
		return nil, fmt.Errorf("obsfed: distributed answer diverged from local golden")
	}

	// The observed query is the newest event-log entry; its ID is the
	// trace id every one of its spans — local and remote — must carry.
	events := dist.EventLog().Events()
	if len(events) == 0 {
		return nil, fmt.Errorf("obsfed: event log empty after observed query")
	}
	last := events[len(events)-1]
	if last.Action != "collect" || last.Err != "" {
		return nil, fmt.Errorf("obsfed: unexpected final event %+v", last)
	}
	res.TraceID = last.ID
	res.EventWorkers = make(map[string]int)
	for _, wa := range last.Workers {
		res.EventWorkers[wa.Worker] = wa.Tasks
	}

	merged := tracedSpans(dist.Trace().Snapshot(), res.TraceID)
	if len(merged) == 0 {
		return nil, fmt.Errorf("obsfed: no merged spans for trace %s", res.TraceID)
	}
	workers := map[string]bool{}
	for _, s := range merged {
		if s.Trace != res.TraceID {
			return nil, fmt.Errorf("obsfed: span %q carries trace %q, want %q", s.Name, s.Trace, res.TraceID)
		}
		remoteOrigin := s.Worker != "" && !strings.HasSuffix(s.Name, ".remote")
		if remoteOrigin {
			wantParent := fmt.Sprintf("%s/p%d", res.TraceID, s.Partition)
			if s.Parent != wantParent {
				return nil, fmt.Errorf("obsfed: worker span %q parent %q, want %q", s.Name, s.Parent, wantParent)
			}
			res.RemoteSpans++
			workers[s.Worker] = true
		} else {
			res.LocalSpans++
		}
	}
	for w := range workers {
		res.Workers = append(res.Workers, w)
	}
	sort.Strings(res.Workers)
	res.MergedJSONL = NormalizeTrace(merged, res.TraceID)

	// Federation pull: every surviving worker must answer with its
	// registry, and the merged snapshot must attribute counters to it.
	res.HarvestAnswered = dist.Cluster().Harvest(nil)
	snap := dist.Cluster().FederatedSnapshot("")
	res.FederatedSamples = len(snap)
	var fed bytes.Buffer
	if err := dist.Cluster().WriteFederatedMetrics(&fed, "rdd.tasks.*"); err != nil {
		return nil, err
	}
	for _, w := range res.Workers {
		if !strings.Contains(fed.String(), "{worker="+w+"}") {
			return nil, fmt.Errorf("obsfed: federated /metrics view missing worker %s:\n%s", w, fed.String())
		}
	}

	var ev bytes.Buffer
	if err := dist.EventLog().WriteJSONL(&ev); err != nil {
		return nil, err
	}
	res.EventJSONL = ev.String()
	return res, nil
}

func tracedSpans(spans []metrics.Span, tid string) []metrics.Span {
	var out []metrics.Span
	for _, s := range spans {
		if s.Trace == tid {
			out = append(out, s)
		}
	}
	return out
}

// NormalizeTrace renders spans of one trace as deterministic JSONL: the
// trace id becomes "T", parents keep only their partition suffix, worker
// ids collapse to a remote/local origin marker (which worker won a
// partition is scheduling noise), and timings, attempts and byte counts
// are dropped. Spans are sorted by every remaining field, so two runs of
// the same workload produce byte-identical output — the golden form.
func NormalizeTrace(spans []metrics.Span, tid string) string {
	type norm struct {
		Kind      string `json:"kind"`
		Name      string `json:"name"`
		Partition int    `json:"partition"`
		Origin    string `json:"origin"`
		Parent    string `json:"parent,omitempty"`
		Records   int64  `json:"records,omitempty"`
	}
	ns := make([]norm, 0, len(spans))
	for _, s := range spans {
		if s.Trace != tid {
			continue
		}
		n := norm{
			Kind:      string(s.Kind),
			Name:      s.Name,
			Partition: s.Partition,
			Records:   s.Records,
		}
		if s.Worker != "" && !strings.HasSuffix(s.Name, ".remote") {
			n.Origin = "remote"
		} else {
			n.Origin = "local"
		}
		n.Parent = strings.Replace(s.Parent, tid, "T", 1)
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool {
		a, b := ns[i], ns[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Partition != b.Partition {
			return a.Partition < b.Partition
		}
		if a.Origin != b.Origin {
			return a.Origin < b.Origin
		}
		if a.Parent != b.Parent {
			return a.Parent < b.Parent
		}
		return a.Records < b.Records
	})
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, n := range ns {
		enc.Encode(n)
	}
	return sb.String()
}

// RunHarvestUnderLoad drives concurrent distributed queries while other
// goroutines hammer the federation read path — Harvest, FederatedSnapshot,
// WriteFederatedMetrics and the merged trace — the whole time. It exists
// to run under -race: the assertion is freedom from data races between
// task-reply absorption and federation reads, not timing.
func RunHarvestUnderLoad(workers int, n int64, queries int) error {
	golden, err := chaosContext(n, false, false)
	if err != nil {
		return err
	}
	wantRows, err := collectSQL(golden, obsQuery)
	if err != nil {
		return err
	}
	want := formatRows(wantRows)

	dcfg := sparksql.DefaultConfig()
	dcfg.Parallelism = 4
	dcfg.ShufflePartitions = 4
	dcfg.Cluster = &sparksql.ClusterOptions{
		HeartbeatTimeout: 5 * time.Second,
		TaskTimeout:      30 * time.Second,
		HarvestInterval:  time.Millisecond, // background harvester at full tilt
	}
	dist := sparksql.NewContextWithConfig(dcfg)
	defer dist.Close()
	if err := loadRankings(dist, n, false); err != nil {
		return err
	}

	addr := dist.ClusterAddr()
	procs := make([]*workerProc, 0, workers)
	defer func() {
		for _, p := range procs {
			p.kill()
		}
	}()
	for i := 0; i < workers; i++ {
		p, err := spawnWorker(addr, fmt.Sprintf("load-w%d", i))
		if err != nil {
			return err
		}
		procs = append(procs, p)
	}
	if err := waitWorkers(dist, workers, 10*time.Second); err != nil {
		return err
	}

	done := make(chan struct{})
	readerErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				readerErr <- nil
				return
			default:
			}
			dist.Cluster().Harvest(nil)
			dist.Cluster().FederatedSnapshot("")
			var buf bytes.Buffer
			if err := dist.Cluster().WriteFederatedMetrics(&buf, "rdd.*"); err != nil {
				readerErr <- err
				return
			}
			dist.Trace().Snapshot()
			dist.EventLog().Len()
		}
	}()

	const lanes = 4
	errs := make(chan error, lanes)
	for l := 0; l < lanes; l++ {
		go func() {
			for i := 0; i < queries; i++ {
				rows, err := collectSQL(dist, obsQuery)
				if err != nil {
					errs <- err
					return
				}
				if formatRows(rows) != want {
					errs <- fmt.Errorf("obsfed load: answer diverged under concurrent harvest")
					return
				}
			}
			errs <- nil
		}()
	}
	for l := 0; l < lanes; l++ {
		if err := <-errs; err != nil {
			close(done)
			<-readerErr
			return err
		}
	}
	close(done)
	return <-readerErr
}

// ObservabilityOverhead measures the cost of the observability layer the
// way MetricsOverheadStudy measures metrics: two local engines, identical
// cached rankings tables, observability on vs off, cached-Q1 runs in pairs.
// Each pair runs the two engines in turn, alternating which goes first, each
// run timed after a collection so neither pays for the other's garbage, and
// the result is PairedOverhead over the pairs (0.05 = 5%); the acceptance
// gate is that tracing ids + event-log appends stay within a few percent.
func ObservabilityOverhead(n int64, pairs int) (float64, error) {
	mk := func(obs bool) (*sparksql.Context, error) {
		cfg := sparksql.DefaultConfig()
		cfg.Observability = obs
		ctx := sparksql.NewContextWithConfig(cfg)
		if err := loadRankings(ctx, n, true); err != nil {
			return nil, err
		}
		return ctx, nil
	}
	on, err := mk(true)
	if err != nil {
		return 0, err
	}
	off, err := mk(false)
	if err != nil {
		return 0, err
	}
	x := Q1Params[0]
	for _, ctx := range []*sparksql.Context{on, off} {
		if _, err := RunSQL(ctx, Q1(x)); err != nil {
			return 0, err
		}
	}
	onT, offT := make([]time.Duration, pairs), make([]time.Duration, pairs)
	for i := range pairs {
		order := []*sparksql.Context{on, off}
		if i%2 == 1 {
			order[0], order[1] = off, on
		}
		for _, ctx := range order {
			runtime.GC()
			start := time.Now()
			if _, err := RunSQL(ctx, Q1(x)); err != nil {
				return 0, err
			}
			if ctx == on {
				onT[i] = time.Since(start)
			} else {
				offT[i] = time.Since(start)
			}
		}
	}
	return PairedOverhead(onT, offT)
}

// PairedOverhead is the relative slowdown of on against off, run i of each
// being a pair: the median of the per-pair ratios on[i]/off[i], less one. A
// pair's two runs share the machine's state of the moment, and the median
// ignores the pairs a pause or a neighbour's burst landed in.
func PairedOverhead(on, off []time.Duration) (float64, error) {
	if len(on) != len(off) || len(on) == 0 {
		return 0, fmt.Errorf("obsfed: %d runs on against %d off", len(on), len(off))
	}
	ratios := make([]float64, len(on))
	for i := range on {
		if off[i] <= 0 {
			return 0, fmt.Errorf("obsfed: zero baseline time")
		}
		ratios[i] = float64(on[i]) / float64(off[i])
	}
	sort.Float64s(ratios)
	mid := len(ratios) / 2
	median := ratios[mid]
	if len(ratios)%2 == 0 {
		median = (ratios[mid-1] + ratios[mid]) / 2
	}
	return median - 1, nil
}
