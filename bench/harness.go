package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// sizes are the frozen workload sizes. Changing one changes what every
// committed result means, so they live in one place and are printed in
// the header of each run.
type sizes struct {
	ScanRankings    int64 `json:"scan_rankings"`
	AggVisits       int64 `json:"agg_visits"`
	JoinRankings    int64 `json:"join_rankings"`
	JoinVisits      int64 `json:"join_visits"`
	ClusterRankings int64 `json:"cluster_rankings"`
	ClusterVisits   int64 `json:"cluster_visits"`
	// ClusterPartitionBytes is the planner's target partition size on
	// cluster_shuffle: small enough that the sort's range exchange gets a
	// partition per worker at these table sizes.
	ClusterPartitionBytes int64 `json:"cluster_partition_bytes"`

	IngestBatch  int   `json:"ingest_batch_rows"`
	IngestRound  int   `json:"ingest_round_txns"`
	TrickleTxns  int   `json:"trickle_txns"`
	TrickleBatch int   `json:"trickle_batch_rows"`
	ServerRows   int64 `json:"server_rows"`
	ServerStmts  int   `json:"server_statements"`
}

var fullSizes = sizes{
	ScanRankings: 500_000, AggVisits: 150_000,
	JoinRankings: 50_000, JoinVisits: 100_000,
	ClusterRankings: 15_000, ClusterVisits: 30_000, ClusterPartitionBytes: 256 << 10,
	IngestBatch: 250, IngestRound: 500,
	TrickleTxns: 2000, TrickleBatch: 100,
	ServerRows: 2000, ServerStmts: 64,
}

// smokeSizes keep every code path (row groups, shuffles, worker re-exec,
// round rotation) but finish in milliseconds, for `go test`.
var smokeSizes = sizes{
	ScanRankings: 4000, AggVisits: 3000,
	JoinRankings: 1000, JoinVisits: 2000,
	ClusterRankings: 1000, ClusterVisits: 3000, ClusterPartitionBytes: 16 << 10,
	IngestBatch: 50, IngestRound: 8,
	TrickleTxns: 40, TrickleBatch: 25,
	ServerRows: 300, ServerStmts: 16,
}

// env is what a workload's set-up may depend on: the seed, the sizes and
// a scratch directory inside the checkout.
type env struct {
	seed uint64
	sz   sizes
	tmp  string
}

// mkdir returns a fresh empty directory under the scratch root.
func (e *env) mkdir() (string, error) { return os.MkdirTemp(e.tmp, "d") }

// instance is one set-up workload: a closed loop calls op until the
// window ends, from a single goroutine.
type instance struct {
	// rowsPerOp is how many base-table rows one operation consumes (for
	// store_ingest: commits to the table).
	rowsPerOp float64
	// op runs operation i, checks its answer against the oracle and
	// returns the time spent inside the system under test — the harness's
	// own checking is left out of the latency. With a tracer it also
	// records spans around the calls it makes; call names the span that
	// is the operation proper.
	op   func(tr *tracer, i int) (time.Duration, error)
	call string
	// roundOps > 0 splits the window into rounds of that many operations;
	// rotate runs untimed before each round (store_ingest starts a fresh
	// table, so every round sees the same commit indexes).
	roundOps int
	rotate   func(round int) error
	// finish runs once after the instance's windows; an error fails every
	// operation of the instance (durability check, cluster fallback check).
	finish func() error
	// counter reads an absolute engine counter by registry name; nil when
	// the workload has no stable registry.
	counter func(name string) int64
	// layers fills the workload's per-layer probes in the traced pass;
	// engineMS is the untraced median operation time.
	layers func(lm map[string]float64, engineMS float64) error
	close  func()
}

type workload struct {
	name  string
	why   string
	setup func(e *env) (*instance, error)
}

// window is what one timed window measured.
type window struct {
	lat       []float64 // ms per operation, in order
	failed    int
	busy      time.Duration // sum of operation times
	allocated uint64        // TotalAlloc delta over the rounds' timed parts
	firstErr  error
}

// measure runs the closed loop for at least d, ending on a round boundary
// when the instance has rounds (firstOp is then a multiple of roundOps).
// Memory is read around each round's operations only, so rotate's own
// allocations are not charged to the operations.
func measure(inst *instance, tr *tracer, d time.Duration, firstOp int) (window, error) {
	var w window
	var ms runtime.MemStats
	totalAlloc := func() uint64 { runtime.ReadMemStats(&ms); return ms.TotalAlloc }
	runtime.GC()
	start := time.Now()
	for i := firstOp; ; {
		if inst.roundOps > 0 {
			if err := inst.rotate(i / inst.roundOps); err != nil {
				return w, err
			}
		}
		from := totalAlloc()
		for n := 1; ; n++ {
			if tr != nil {
				tr.op = i + 1
			}
			id := tr.begin("op")
			took, err := inst.op(tr, i)
			tr.end(id)
			i++
			w.busy += took
			w.lat = append(w.lat, float64(took)/1e6)
			if err != nil {
				w.failed++
				if w.firstErr == nil {
					w.firstErr = err
				}
			}
			if n == inst.roundOps || (inst.roundOps == 0 && time.Since(start) >= d) {
				break
			}
		}
		w.allocated += totalAlloc() - from
		if time.Since(start) >= d {
			return w, nil
		}
	}
}

func maxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is the ungated context printed beside the metrics.
type detail struct {
	Workload   string              `json:"workload"`
	Samples    int                 `json:"samples"`
	Tail       string              `json:"tail,omitempty"`
	TailMS     float64             `json:"tail_ms,omitempty"`
	MaxRSSKB   int64               `json:"max_rss_kb"`
	FirstError string              `json:"first_error,omitempty"`
	Spans      map[string]spanStat `json:"spans,omitempty"`
}

// report is one run of one workload: the contract's last-line object plus
// the detail line printed before it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	detail    detail
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	sz       sizes
	tmpRoot  string
}

// instances is how many times an untraced run builds the workload and
// measures a third of the window on it. Part of the run-to-run spread
// belongs to the instance, not the code — heap layout, the per-process
// hash seeds that decide shuffle balance, which core a worker lands on —
// and pooling three instances averages it inside one run.
const instances = 3

// run accumulates one workload run over its instances.
type run struct {
	c         runConfig
	w         workload
	e         *env
	dur       time.Duration
	rep       *report
	pooled    window
	rowsPerOp float64
	builds    []float64 // seconds per set-up
	err       error     // first failure, for the detail line
	// passedBefore is how many operations had passed when the current
	// instance started.
	passedBefore int
}

func (r *run) note(w window) {
	r.rep.Attempted += len(w.lat)
	r.rep.Failed += w.failed
	if r.err == nil {
		r.err = w.firstErr
	}
}

// build sets the workload up once and records how long that took.
func (r *run) build() (*instance, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := r.w.setup(r.e)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", r.w.name, err)
	}
	r.builds = append(r.builds, time.Since(t0).Seconds())
	return inst, nil
}

// finish runs the instance's closing check. On failure the answers cannot
// be trusted, so none of the instance's operations counts.
func (r *run) finish(inst *instance) {
	if inst.finish == nil {
		return
	}
	if err := inst.finish(); err != nil {
		r.rep.Failed = r.rep.Attempted - r.passedBefore
		r.err = err
	}
}

// plain warms one instance and measures its share of the untraced window.
func (r *run) plain(inst *instance) error {
	warm, err := measure(inst, nil, r.dur/5/instances, 0)
	if err != nil {
		return err
	}
	r.note(warm)
	timed, err := measure(inst, nil, r.dur/instances, len(warm.lat))
	if err != nil {
		return err
	}
	r.note(timed)
	r.finish(inst)
	r.rowsPerOp = inst.rowsPerOp
	r.pooled.lat = append(r.pooled.lat, timed.lat...)
	r.pooled.failed += timed.failed
	r.pooled.busy += timed.busy
	r.pooled.allocated += timed.allocated
	return nil
}

// traced measures one instance for half the window untraced and half
// traced, then runs the workload's layer probes.
func (r *run) traced(inst *instance) error {
	warm, err := measure(inst, nil, r.dur/5, 0)
	if err != nil {
		return err
	}
	r.note(warm)
	plain, err := measure(inst, nil, r.dur/2, len(warm.lat))
	if err != nil {
		return err
	}
	r.note(plain)
	tr := newTracer()
	before := readCounters(inst)
	timed, err := measure(inst, tr, r.dur/2, len(warm.lat)+len(plain.lat))
	if err != nil {
		return err
	}
	r.note(timed)
	r.pooled = timed
	lm := spanMetrics(tr.spans, inst, median(plain.lat), readCounters(inst), before, len(timed.lat))
	// The closing check comes first: the probes may change the tables.
	r.finish(inst)
	if inst.layers != nil {
		tr.op = 0
		id := tr.begin("layer probes")
		err := inst.layers(lm, median(plain.lat))
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s layer probes: %w", r.w.name, err)
		}
	}
	for _, d := range layerMetrics {
		r.rep.Metrics[d.Name] = metric{lm[d.Name], d.Unit}
	}
	r.rep.detail.Spans = summarize(tr.spans)
	if r.c.traceOut != "" {
		return writeSpans(r.c.traceOut, tr.spans)
	}
	return nil
}

// runOne builds, warms, measures and checks one workload.
func runOne(c runConfig) (*report, error) {
	w, ok := findWorkload(c.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	tmp, err := os.MkdirTemp(c.tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &run{
		c: c, w: w, e: &env{seed: c.seed, sz: c.sz, tmp: tmp},
		dur: time.Duration(c.seconds * float64(time.Second)),
		rep: &report{Metrics: map[string]metric{}, detail: detail{Workload: w.name}},
	}
	step, n := r.plain, instances
	if c.trace {
		step, n = r.traced, 1
	}
	for k := 0; k < n; k++ {
		inst, err := r.build()
		if err != nil {
			return nil, err
		}
		r.passedBefore = r.rep.Attempted - r.rep.Failed
		err = step(inst)
		inst.close()
		if err != nil {
			return nil, err
		}
	}
	if !c.trace {
		// A millisecond set-up is not judged on three samples: build again,
		// unmeasured, until 15 % of the window is spent or 15 builds exist.
		for spent := sum(r.builds); len(r.builds) < 15 && spent < 0.15*c.seconds; spent = sum(r.builds) {
			inst, err := r.build()
			if err != nil {
				return nil, err
			}
			inst.close()
		}
		p := r.pooled
		ops := float64(len(p.lat))
		r.rep.Metrics["latency_ms_p50"] = metric{median(p.lat), "ms"}
		r.rep.Metrics["rows_per_s"] = metric{r.rowsPerOp * (ops - float64(p.failed)) / p.busy.Seconds(), "rows/s"}
		r.rep.Metrics["alloc_kb_per_op"] = metric{float64(p.allocated) / 1024 / ops, "KB"}
		r.rep.Metrics["setup_s"] = metric{median(r.builds), "s"}
	}
	sorted := sortedCopy(r.pooled.lat)
	r.rep.detail.Samples = len(sorted)
	r.rep.detail.Tail, r.rep.detail.TailMS = tailPercentile(sorted)
	r.rep.detail.MaxRSSKB = maxRSSKB()
	if r.err != nil {
		r.rep.detail.FirstError = r.err.Error()
	}
	r.rep.Correct = r.rep.Failed == 0
	return r.rep, nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
