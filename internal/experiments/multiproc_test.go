// The multiproc tests live in the external test package, beside the
// TestMain that imports sqlexec (the worker-side executor), so the figure
// harnesses in package experiments stay out of the worker's imports.
package experiments_test

import (
	"os"
	"testing"

	"repro/internal/cluster/sqlexec"
	"repro/internal/experiments"
)

// TestMain lets the test binary re-exec itself as a worker process: when
// the multiproc harness spawns os.Executable() with REPRO_WORKER_ADDR
// set, RunIfWorker turns this process into a cluster worker and never
// returns. Without the variable, tests run normally.
func TestMain(m *testing.M) {
	sqlexec.RunIfWorker()
	experiments.RunIfIngest()
	os.Exit(m.Run())
}

func TestMultiprocChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos suite in -short mode")
	}
	res, err := experiments.RunMultiprocChaos(experiments.DefaultMultiprocConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteTasks == 0 {
		t.Fatal("no remote task completed")
	}
	if res.Kills < 2 {
		t.Fatalf("harness reported %d kills, want >= 2 (SIGKILL + eviction)", res.Kills)
	}
	if res.Fallbacks == 0 {
		t.Fatal("unshippable-table phase recorded no cluster.fallback tasks")
	}
	t.Logf("multiproc: %d queries verified, %d remote tasks, %d failed dispatches, %d fallbacks, %d kills, recovery %v ms",
		res.Queries, res.RemoteTasks, res.FailedDispatches, res.Fallbacks, res.Kills, res.RecoveryMillis)
}

// TestMultiprocHashExchange fails at any commit where row hashing is seeded
// per process: reduce partitions computed in different worker processes
// then disagree on which keys they own.
func TestMultiprocHashExchange(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process suite in -short mode")
	}
	for _, c := range []struct{ cached, broadcast, observe bool }{
		{false, false, true}, {true, false, true}, {true, true, true}, {false, false, false},
	} {
		if err := experiments.RunMultiprocHashExchange(6000, c.cached, c.broadcast, c.observe); err != nil {
			t.Fatalf("cached=%v broadcast=%v observe=%v: %v", c.cached, c.broadcast, c.observe, err)
		}
	}
}

// TestMultiprocCatalogChange: workers hold what the catalog holds now, not
// what it held when they were first shipped a session.
func TestMultiprocCatalogChange(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process suite in -short mode")
	}
	if err := experiments.RunMultiprocCatalogChange(6000); err != nil {
		t.Fatal(err)
	}
}

func TestMultiprocSpill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process spill suite in -short mode")
	}
	cfg := experiments.DefaultMultiprocConfig()
	cfg.MemoryBudget = 16 << 10
	cfg.KillWorker = false
	cfg.FrameFaults = false
	res, err := experiments.RunMultiprocChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteTasks == 0 {
		t.Fatal("no remote task completed under memory budget")
	}
}
