package sqlexec

import (
	"context"
	"reflect"
	"testing"
	"time"

	sparksql "repro"
	"repro/internal/cluster"
	"repro/internal/core"
)

// The knobs a worker receives today. A knob added to Config later ships
// unless it is tagged `json:"-"`, and the walk below checks it either way;
// these two lists only pin that none of today's knobs changes sides.
var (
	shippedKnobs = []string{
		"Codegen", "LogicalOptimization", "SourcePushdown", "JoinReorder", "PipelineCollapse",
		"Vectorized", "Fusion", "BroadcastThreshold", "TargetPartitionBytes",
		"ShufflePartitions", "Parallelism", "MemoryBudget",
	}
	localKnobs = []string{
		"QueryTimeout", "Speculation", "SpeculationMultiplier", "Metrics", "Adaptive",
		"SkewFactor", "Observability", "DataDir", "StatsRefreshRows", "CheckpointBytes", "Cluster",
	}
)

// shipped reports whether a Config field travels in the session spec.
func shipped(f reflect.StructField) bool { return f.Tag.Get("json") != "-" }

// shipToWorker starts a coordinator under cfg and one in-process worker,
// ships the session the way a statement does — RefreshSession encodes it,
// the worker decodes it and builds its context — and returns both sides'
// resolved configs.
func shipToWorker(t *testing.T, cfg sparksql.Config) (coord, worker core.Resolved) {
	t.Helper()
	ctx := sparksql.NewContextWithConfig(cfg)
	defer ctx.Close()
	w := cluster.NewWorker(cluster.WorkerConfig{ID: "w0", CoordinatorAddr: ctx.ClusterAddr(), HeartbeatInterval: 100 * time.Millisecond})
	e := NewExecutor()
	e.Register(w)
	go w.Run(context.Background())
	defer w.Close()
	rt := ctx.Cluster()
	for deadline := time.Now().Add(5 * time.Second); rt.Coordinator().NumWorkers() < 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker did not register")
		}
	}
	rt.RefreshSession()
	// The task is empty and the worker refuses it; the session init that
	// precedes it is what is under test.
	rt.RunTask(context.Background(), "sql.partition", 0, nil)
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.sessions) != 1 {
		t.Fatalf("the worker holds %d sessions, want 1", len(e.sessions))
	}
	for _, s := range e.sessions {
		worker = s.ctx.Engine().Cfg
	}
	return ctx.Engine().Cfg, worker
}

// nonDefault moves v off its DefaultConfig value.
func nonDefault(t *testing.T, f reflect.StructField, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64: // time.Duration included
		v.SetInt(v.Int()*2 + 3)
	case reflect.Float64:
		v.SetFloat(v.Float()*2 + 1.5)
	case reflect.String:
		v.SetString(t.TempDir())
	case reflect.Pointer:
		v.Set(reflect.New(f.Type.Elem()))
	default:
		t.Fatalf("Config.%s: no non-default value for a %s; teach nonDefault one", f.Name, v.Kind())
	}
}

// checkArrival holds every field of the worker's config to the parity
// contract: a shipped knob is the coordinator's resolved value, a
// process-local one is DefaultConfig's, and Adaptive is off.
func checkArrival(t *testing.T, coord, worker core.Resolved) {
	t.Helper()
	def := reflect.ValueOf(sparksql.DefaultConfig())
	cv, wv := reflect.ValueOf(coord.Config), reflect.ValueOf(worker.Config)
	for i, f := range reflect.VisibleFields(def.Type()) {
		want := def.Field(i)
		switch {
		case f.Name == "Adaptive":
			want = reflect.ValueOf(false)
		case shipped(f):
			want = cv.Field(i)
		}
		if got := wv.Field(i); !reflect.DeepEqual(got.Interface(), want.Interface()) {
			t.Errorf("Config.%s (shipped %v): the worker has %v, want %v (coordinator %v)",
				f.Name, shipped(f), got, want, cv.Field(i))
		}
	}
	// Both sides derive the same optimizer and planner views, so they make
	// the same plans. SkewFactor is the one process-local knob the planner
	// view carries; only the coordinator's adaptive driver reads it.
	coord.Planner.SkewFactor, worker.Planner.SkewFactor = 0, 0
	if coord.Optimizer != worker.Optimizer || coord.Planner != worker.Planner {
		t.Errorf("derived views differ: optimizer %+v vs %+v, planner %+v vs %+v",
			coord.Optimizer, worker.Optimizer, coord.Planner, worker.Planner)
	}
}

func TestConfigParity(t *testing.T) {
	typ := reflect.TypeOf(sparksql.Config{})
	for _, side := range []struct {
		names []string
		ship  bool
	}{{shippedKnobs, true}, {localKnobs, false}} {
		for _, name := range side.names {
			if f, ok := typ.FieldByName(name); !ok || shipped(f) != side.ship {
				t.Errorf("Config.%s: present %v, shipped %v, want shipped %v", name, ok, shipped(f), side.ship)
			}
		}
	}

	t.Run("every field off its default", func(t *testing.T) {
		cfg := sparksql.DefaultConfig()
		v := reflect.ValueOf(&cfg).Elem()
		for i, f := range reflect.VisibleFields(typ) {
			nonDefault(t, f, v.Field(i))
		}
		coord, worker := shipToWorker(t, cfg)
		def := reflect.ValueOf(sparksql.DefaultConfig())
		for i, f := range reflect.VisibleFields(typ) {
			if shipped(f) && reflect.DeepEqual(reflect.ValueOf(coord.Config).Field(i).Interface(), def.Field(i).Interface()) {
				t.Errorf("Config.%s resolved back to its default on the coordinator; the check proves nothing", f.Name)
			}
		}
		checkArrival(t, coord, worker)
	})

	t.Run("defaults", func(t *testing.T) {
		cfg := sparksql.DefaultConfig()
		cfg.Cluster = &sparksql.ClusterOptions{}
		coord, worker := shipToWorker(t, cfg)
		if !coord.Adaptive {
			t.Fatal("the coordinator does not adapt by default")
		}
		checkArrival(t, coord, worker)
	})
}
