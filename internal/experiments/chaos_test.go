package experiments

import "testing"

// The SQL workload must return byte-identical results in every engine mode
// while ~10 % of tasks fail their first attempts.
func TestChaosSQLWorkload(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.N = 800 // keep the -race run quick
	injected, err := RunSQLChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if injected == 0 {
		t.Fatal("schedule injected no faults; chaos run proved nothing")
	}
	t.Logf("chaos sql: %d task failures injected, results identical", injected)
}

// Spills under fire: a tiny memory budget forces every blocking operator
// to spill while tasks and spill-file writes fail transiently; results must
// stay byte-identical and no spill file may survive.
func TestChaosSpillWorkload(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.N = 800 // keep the -race run quick
	injected, err := RunSpillChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if injected == 0 {
		t.Fatal("schedule injected no faults; chaos run proved nothing")
	}
	t.Logf("chaos spill: %d faults injected, results identical, no spill files leaked", injected)
}

// The RDD pipeline (flaky DFS reads → shuffle word count → cache with
// dropped partitions) must match a fault-free run.
func TestChaosRDDPipeline(t *testing.T) {
	if err := RunRDDChaos(DefaultChaosConfig()); err != nil {
		t.Fatal(err)
	}
}

// A planted straggler must be rescued by a speculative backup attempt.
func TestChaosStragglerSpeculation(t *testing.T) {
	launches, wins, err := RunStragglerChaos(DefaultChaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	if launches == 0 {
		t.Fatal("no speculative backup launched for the straggler")
	}
	if wins == 0 {
		t.Fatal("the backup attempt should have finished first")
	}
}

// Determinism: the same seed produces the same injection schedule.
func TestChaosScheduleDeterministic(t *testing.T) {
	cfg := DefaultChaosConfig()
	for p := 0; p < 32; p++ {
		if cfg.spec().Afflicted("x", p) != cfg.spec().Afflicted("x", p) {
			t.Fatal("schedule must be a pure function of (seed, name, partition)")
		}
	}
	other := cfg
	other.Seed++
	same := 0
	for p := 0; p < 512; p++ {
		if cfg.spec().Afflicted("x", p) == other.spec().Afflicted("x", p) {
			same++
		}
	}
	if same == 512 {
		t.Fatal("different seeds should produce different schedules")
	}
}
