package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster/sqlwire"
	"repro/internal/columnar"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

var sessionSchema = types.NewStruct(
	types.StructField{Name: "k", Type: types.Long, Nullable: false},
	types.StructField{Name: "v", Type: types.String, Nullable: false},
)

func sessionRows(n int, tag string) []row.Row {
	rows := make([]row.Row, n)
	for i := range rows {
		rows[i] = row.Row{int64(i), fmt.Sprintf("%s%d", tag, i)}
	}
	return rows
}

func cachedRelation(rows []row.Row) *plan.InMemoryRelation {
	t := columnar.BuildTable(sessionSchema, [][]row.Row{rows[:len(rows)/2], rows[len(rows)/2:]}, 0)
	return &plan.InMemoryRelation{
		Attrs: plan.NewLocalRelation(sessionSchema, nil).Attrs, Table: t,
		SizeInBytes: t.SizeBytes(), RowCount: t.RowCount(), Origin: "d",
	}
}

// sessionProbe reads what a refresh did: tables encoded, tables skipped,
// the epoch, and the first encoded block of each shipped table.
type sessionProbe struct {
	t  *testing.T
	rt *ClusterRuntime
}

func (p sessionProbe) state() (encoded, skipped int64, epoch uint64, blocks map[string]*byte) {
	reg := p.rt.e.RDDCtx.Metrics()
	p.rt.mu.Lock()
	defer p.rt.mu.Unlock()
	blocks = make(map[string]*byte)
	for name, st := range p.rt.tables {
		if st.spec != nil {
			blocks[name] = &st.spec.Partitions[0][0]
		}
	}
	if g := reg.Gauge("cluster.session.epoch").Load(); g != int64(p.rt.epoch) {
		p.t.Errorf("cluster.session.epoch gauge %d, epoch %d", g, p.rt.epoch)
	}
	return reg.Counter("cluster.session.tables.encoded").Load(),
		reg.Counter("cluster.session.tables.skipped").Load(), p.rt.epoch, blocks
}

// seed records a decision list in the statement memo; held is how many the
// memo holds.
func (p sessionProbe) seed() {
	p.rt.mu.Lock()
	p.rt.decisions.Put("seeded", &adaptedStatement{})
	p.rt.mu.Unlock()
}

func (p sessionProbe) held() int {
	p.rt.mu.Lock()
	defer p.rt.mu.Unlock()
	return len(p.rt.decisions)
}

// step refreshes and checks the deltas against the state before.
func (p sessionProbe) step(what string, wantEncoded int64, wantEpochs uint64) map[string]*byte {
	p.t.Helper()
	enc0, _, ep0, _ := p.state()
	p.rt.RefreshSession()
	enc1, _, ep1, blocks := p.state()
	if enc1-enc0 != wantEncoded || ep1-ep0 != wantEpochs {
		p.t.Fatalf("%s: %d tables encoded and epoch +%d, want %d and +%d",
			what, enc1-enc0, ep1-ep0, wantEncoded, wantEpochs)
	}
	return blocks
}

// The invalidation contract of the session memo: a statement re-encodes the
// relations the catalog replaced, and nothing else; and the statements'
// recorded decisions outlive a refresh only when nothing changed.
func TestSessionInvalidation(t *testing.T) {
	e := NewEngine(DefaultConfig())
	rt, err := EnableCluster(e, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	p := sessionProbe{t, rt}

	e.Catalog.RegisterTable("a", plan.NewLocalRelation(sessionSchema, sessionRows(2000, "a")))
	e.Catalog.RegisterTable("b", plan.NewLocalRelation(sessionSchema, sessionRows(3000, "b")))
	first := p.step("first statement", 2, 1)

	// An unchanged catalog: no encode, no epoch, no allocation beyond the
	// catalog's own name list, and the recorded decisions kept.
	p.seed()
	for i := 0; i < 5; i++ {
		p.step("unchanged catalog", 0, 0)
	}
	if allocs := testing.AllocsPerRun(20, rt.RefreshSession); allocs > 2 {
		t.Fatalf("a refresh over an unchanged catalog makes %.0f allocations", allocs)
	}
	if n := p.held(); n != 1 {
		t.Fatalf("an unchanged catalog left %d recorded statements, want 1", n)
	}

	// One of two tables replaced: that one is re-encoded, the other's block
	// is the block shipped before.
	e.Catalog.RegisterTable("a", plan.NewLocalRelation(sessionSchema, sessionRows(2000, "x")))
	second := p.step("a replaced", 1, 1)
	if second["b"] != first["b"] || second["a"] == first["a"] {
		t.Fatalf("blocks after replacing a: a %p→%p, b %p→%p", first["a"], second["a"], first["b"], second["b"])
	}
	if n := p.held(); n != 0 {
		t.Fatalf("a replaced relation left %d recorded statements", n)
	}

	// The same rows under a new relation: encoded (the pointer moved), but
	// the fingerprint holds and workers keep their session.
	e.Catalog.RegisterTable("a", plan.NewLocalRelation(sessionSchema, sessionRows(2000, "x")))
	p.step("a re-registered byte-identical", 1, 0)

	// A knob: a new epoch without touching a table.
	p.seed()
	rt.SetChaos(sqlwire.ChaosSpec{Enabled: true, Seed: 7, FailureRate: 0.1, FailedAttempts: 1})
	p.step("SetChaos", 0, 1)
	if n := p.held(); n != 0 {
		t.Fatalf("SetChaos left %d recorded statements", n)
	}
	rt.SetChaos(sqlwire.ChaosSpec{Enabled: true, Seed: 7, FailureRate: 0.1, FailedAttempts: 1})
	p.step("SetChaos, same schedule", 0, 0)
	rt.SetWorkerBackoff(1, 2, 3)
	p.step("SetWorkerBackoff", 0, 1)

	// A store commit publishes a new pinned version of one durable table.
	e.Catalog.RegisterTable("d", cachedRelation(sessionRows(400, "d")))
	third := p.step("durable table created", 1, 1)
	e.Catalog.RegisterTable("d", cachedRelation(sessionRows(500, "d")))
	fourth := p.step("durable table committed", 1, 1)
	if fourth["a"] != third["a"] || fourth["b"] != third["b"] || fourth["d"] == third["d"] {
		t.Fatal("a commit to d must re-encode d alone")
	}

	// A dropped table leaves the memo with the catalog.
	p.seed()
	e.Catalog.DropTable("b")
	last := p.step("b dropped", 0, 1)
	if _, held := last["b"]; held || len(last) != 2 {
		t.Fatalf("memo holds %d tables after the drop (b held: %v)", len(last), held)
	}
	if n := p.held(); n != 0 {
		t.Fatalf("a dropped table left %d recorded statements", n)
	}
	rt.mu.Lock()
	for name, st := range rt.tables {
		if lp, _ := e.Catalog.LookupTable(name); lp != st.rel {
			t.Errorf("memo entry %q is not the catalog's relation", name)
		}
	}
	rt.mu.Unlock()

	// The shipped spec is the session the memo describes.
	spec, err := sqlwire.DecodeSession(rt.specBytes)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Epoch != rt.epoch || len(spec.Tables) != 2 || spec.Tables[0].Name != "a" || spec.Tables[1].Name != "d" ||
		!spec.Tables[1].Cached || len(spec.Tables[1].Partitions) != 2 || !spec.Chaos.Enabled || spec.BackoffSeed != 3 {
		t.Fatalf("shipped spec: epoch %d (want %d), tables %d", spec.Epoch, rt.epoch, len(spec.Tables))
	}
	rows, err := columnar.DecodeBlock(spec.Tables[0].Partitions[0])
	if err != nil || len(rows) != 2000 || rows[5][1] != "x5" {
		t.Fatalf("table a decodes to %d rows (%v)", len(rows), err)
	}
}

// What cannot ship is said: a skipped table and an unshippable session show
// in the summary line and in counters instead of silently running locally.
func TestSessionDegradationSurfaced(t *testing.T) {
	e := NewEngine(DefaultConfig())
	rt, err := EnableCluster(e, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	p := sessionProbe{t, rt}
	reg := e.RDDCtx.Metrics()

	e.Catalog.RegisterTable("t", plan.NewLocalRelation(sessionSchema, sessionRows(10, "t")))
	e.Catalog.RegisterTable("view", &plan.Project{Child: usersRelation()})
	exotic := types.NewStruct(types.StructField{Name: "xs", Type: types.ArrayType{Elem: types.Int}})
	e.Catalog.RegisterTable("exotic", plan.NewLocalRelation(exotic, nil))
	p.step("two unshippable tables", 1, 1)
	if _, skipped, _, _ := p.state(); skipped != 2 {
		t.Fatalf("cluster.session.tables.skipped = %d, want 2", skipped)
	}
	p.step("skipped tables are not retried", 0, 0)
	if _, skipped, _, _ := p.state(); skipped != 2 {
		t.Fatalf("cluster.session.tables.skipped = %d after a second statement, want 2", skipped)
	}
	sum := rt.ClusterSummary()
	if !strings.Contains(sum, "session: epoch 1, 1 tables, ") || !strings.Contains(sum, " statements adapted, skipped: exotic, view\n") {
		t.Fatalf("summary does not name the skipped tables:\n%s", sum)
	}
	if strings.Contains(sum, "not shippable") {
		t.Fatalf("a session with skipped tables still ships:\n%s", sum)
	}

	// A spec that does not fit a frame: the session stops shipping, says so,
	// and every task that therefore ran locally is counted.
	wide := strings.Repeat("w", 1<<20)
	big := make([]row.Row, 80)
	for i := range big {
		big[i] = row.Row{int64(i), wide}
	}
	e.Catalog.RegisterTable("big", plan.NewLocalRelation(sessionSchema, big))
	p.step("oversized table", 1, 1)
	if sum = rt.ClusterSummary(); !strings.Contains(sum, ", not shippable: the spec exceeds a frame's") {
		t.Fatalf("summary does not say why the session cannot ship:\n%s", sum)
	}
	if _, _, err := rt.RunTask(context.Background(), "sql.partition", 0, nil); err != rdd.ErrRemoteFallback {
		t.Fatalf("RunTask over an unshippable session: %v", err)
	}
	if n := reg.Counter("cluster.session.unshippable").Load(); n != 1 {
		t.Fatalf("cluster.session.unshippable = %d, want 1", n)
	}
	e.Catalog.DropTable("big")
	p.step("oversized table dropped", 0, 1)
	if sum = rt.ClusterSummary(); strings.Contains(sum, "not shippable") {
		t.Fatalf("the session ships again:\n%s", sum)
	}
}

// The memo is written by RefreshSession and read by concurrent RunTasks and
// summaries while the catalog changes under both; run with -race.
func TestSessionRefreshConcurrent(t *testing.T) {
	e := NewEngine(DefaultConfig())
	rt, err := EnableCluster(e, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	e.Catalog.RegisterTable("fixed", plan.NewLocalRelation(sessionSchema, sessionRows(500, "f")))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch g {
				case 0:
					e.Catalog.RegisterTable("moving", plan.NewLocalRelation(sessionSchema, sessionRows(50+i, "m")))
				case 1:
					rt.ClusterSummary()
					rt.SetWorkerBackoff(1, 2, uint64(i))
				}
				rt.RefreshSession()
				// No worker is registered: the task gets as far as the
				// shippable check and the pick.
				if _, _, err := rt.RunTask(context.Background(), "sql.partition", i, nil); err == nil {
					t.Error("RunTask succeeded without a worker")
				}
			}
		}(g)
	}
	wg.Wait()
	rt.RefreshSession()
	p := sessionProbe{t, rt}
	p.step("settled", 0, 0)
	if enc, _, _, blocks := p.state(); len(blocks) != 2 || enc > 1+50+1 {
		t.Fatalf("%d tables held, %d encoded: the fixed table must be encoded once", len(blocks), enc)
	}
}

// staleReplayConfig is the demote shape of the AQE suite: a broadcast join
// planned under a default-selectivity filter, whose build side the run
// observes.
func staleReplayConfig() Config {
	cfg := DefaultConfig()
	cfg.Parallelism = 4
	cfg.ShufflePartitions = 8
	cfg.PipelineCollapse = false
	cfg.Vectorized = false
	cfg.Fusion = false
	cfg.BroadcastThreshold = 8000
	return cfg
}

// staleReplayEngine registers a and b, 1 000 rows each; keep is the value of
// b.v the statement's filter lets through for row i.
func staleReplayEngine(t *testing.T, cfg Config, keep func(i int) bool) *Engine {
	t.Helper()
	e := NewEngine(cfg)
	schema := types.NewStruct(
		types.StructField{Name: "k", Type: types.Long},
		types.StructField{Name: "v", Type: types.Long})
	a, b := make([]row.Row, 1000), make([]row.Row, 1000)
	for i := range a {
		a[i] = row.Row{int64(i % 50), int64(i)}
		b[i] = row.Row{int64(i % 50), -int64(i) - 1}
		if keep(i) {
			b[i][1] = int64(i)
		}
	}
	e.Catalog.RegisterTable("a", plan.NewLocalRelation(schema, a))
	e.Catalog.RegisterTable("b", plan.NewLocalRelation(schema, b))
	return e
}

const staleReplaySQL = "SELECT a.k, a.v, b.v FROM a JOIN (SELECT k, v FROM b WHERE v >= 0) b ON a.k = b.k ORDER BY a.v, b.v"

func staleReplayQuery(t *testing.T, e *Engine) *QueryExecution {
	t.Helper()
	stmt, err := sqlparser.Parse(staleReplaySQL)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Execute(stmt.(*sqlparser.SelectStatement).Plan)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// A decision list replayed over data other than the data it was observed on
// changes the plan, never the answer: a demote taken where every b row passes
// the filter, replayed where one in a hundred does and the broadcast join
// stands, answers what the static plan answers, byte for byte.
func TestStaleDecisionsReplayByteIdentical(t *testing.T) {
	everyRow := staleReplayEngine(t, staleReplayConfig(), func(int) bool { return true })
	observed := staleReplayQuery(t, everyRow)
	if _, err := observed.Collect(); err != nil {
		t.Fatal(err)
	}
	stale := observed.Decisions
	if !slices.ContainsFunc(stale, func(d physical.Decision) bool { return d.Kind == "demote" }) {
		t.Fatalf("the observed run took no demote: %+v", stale)
	}

	static := staleReplayConfig()
	static.Adaptive = false
	few := func(i int) bool { return i%100 == 0 }
	want, err := staleReplayQuery(t, staleReplayEngine(t, static, few)).Collect()
	if err != nil {
		t.Fatal(err)
	}

	e := staleReplayEngine(t, staleReplayConfig(), few)
	rt, err := EnableCluster(e, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	first := staleReplayQuery(t, e)
	if _, err := first.CollectDistributedContext(context.Background(), staleReplaySQL, 0); err != nil {
		t.Fatal(err)
	}
	if slices.ContainsFunc(first.Decisions, func(d physical.Decision) bool { return d.Kind == "demote" }) {
		t.Fatalf("the join demoted over the data it is to be replayed on (%v): the replay would not be stale", decisionNotes(first))
	}
	rt.mu.Lock()
	if len(rt.decisions) != 1 {
		t.Fatalf("the statement's run recorded %d decision lists, want 1", len(rt.decisions))
	}
	for _, st := range rt.decisions {
		st.ds = stale
	}
	rt.mu.Unlock()

	replayed := rt.replayed.Load()
	q := staleReplayQuery(t, e)
	got, err := q.CollectDistributedContext(context.Background(), staleReplaySQL, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rt.replayed.Load() != replayed+1 || !slices.Equal(decisionNotes(q), decisionNotes(observed)) {
		t.Fatalf("the statement did not replay the stale list: %v, want %v", decisionNotes(q), decisionNotes(observed))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the stale replay answers %d rows unlike the static plan's %d", len(got), len(want))
	}
}
