#!/usr/bin/env sh
# Full local gate: vet, build, race-enabled tests, a one-iteration
# smoke pass over every benchmark so perf regressions that *crash* are
# caught even when nobody reads the numbers, and the metrics-overhead
# gate: fail if instrumented Q1 throughput regresses more than 5%
# against a metrics-off engine on either execution path.
# Every go test invocation carries an explicit -timeout so a distributed
# deadlock (a worker wedged mid-handshake, a drain that never finishes)
# fails the gate in minutes instead of hanging it.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go build ./...

# One keyed hash table in the executor: the group table (vecagg.go) is a slot
# array over typed key columns, and the reducer (agg.go) merges and spills
# partial blocks through it — no Go map, no key strings. A GroupKey/keyFunc
# caller anywhere in internal/physical, or a map in either file, is a second
# table family coming back.
if grep -n 'row\.GroupKey(\|keyFunc(' $(ls internal/physical/*.go | grep -v '_test\.go$'); then
	echo "internal/physical: key strings are back" >&2
	exit 1
fi
if grep -n 'map\[' internal/physical/vecagg.go internal/physical/agg.go; then
	echo "internal/physical: a Go map is back in the group table's or the reducer's file" >&2
	exit 1
fi
# Fusion has one admission rule ("the input is a batch pipeline"): the key
# shape test and the five fallback reason strings that went with it must not
# come back.
if grep -n 'keyShapeBlocker\|build side not right"\|join type %\|residual predicate"\|key shape"\|probe key not native"' $(ls internal/physical/*.go | grep -v '_test\.go$'); then
	echo "internal/physical: a deleted fusion admission condition is back" >&2
	exit 1
fi
# One boxing routine: where batches become rows — a batch top's result sink, a
# batch scan read as rows — expr.BoxValues boxes column by column into a
# header-less arena, and the row headers are cut once, where rows are needed.
# A per-row make(row.Row) or Row(int(i)) at those edges is a second routine
# coming back (agg.go keeps its spill records' make); a slices.Concat in the
# pipeline or an expr.BoxRows( in the aggregate is the per-batch header copy.
if grep -n 'make(row\.Row\|\.Row(int(' internal/physical/vectorized.go internal/datasource/datasource.go; then
	echo "a per-row boxing loop is back at a result edge" >&2
	exit 1
fi
if grep -n 'slices\.Concat' internal/physical/vectorized.go || grep -n 'expr\.BoxRows(' internal/physical/agg.go; then
	echo "internal/physical: a batch top copies row headers in its tasks again" >&2
	exit 1
fi
# A statement pays for what changed in the catalog: the cluster runtime
# re-encodes a table only where the catalog published a new relation, and a
# LocalRelation's flat size comes from its memo cell. An unconditional
# collectTables() in RefreshSession, or a row loop in plan.Stats' leaf case,
# is the per-statement walk over every row coming back.
if sed -n '/^func (rt \*ClusterRuntime) RefreshSession/,/^}/p' internal/core/cluster.go | grep -n 'collectTables()\|EncodeRows('; then
	echo "internal/core/cluster.go: RefreshSession encodes the catalog on every statement again" >&2
	exit 1
fi
if sed -n '/^	case \*LocalRelation:/,/^	case \*DataSourceRelation:/p' internal/plan/estimation.go | grep -n 'range n\.Rows'; then
	echo "internal/plan/estimation.go: plan.Stats walks a LocalRelation's rows again" >&2
	exit 1
fi
echo "internal/physical + internal/expr non-test lines: $(find internal/physical internal/expr -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) (ROADMAP target: <= 7835)"
go test -race -timeout 10m ./...
go test -run '^$' -bench . -benchtime 1x -timeout 10m ./...
# The repository's benchmark over tiny tables: every workload's operations are
# checked against its hand-written oracle, so a wrong answer on any of the
# seven fails the gate here (the run itself exits 0 and reports the count).
smoke=$(go run ./bench -smoke -seconds 0.2)
case "$smoke" in *'"ops_failed": '[1-9]*)
	echo "bench -smoke: an oracle rejected an answer" >&2
	exit 1
	;;
esac
PERF_GATE=1 go test -run '^TestMetricsOverheadGate$' -v -timeout 10m ./internal/experiments/
# Whole-stage fusion gate: fused aggregation must hold its 2x speedup over
# the unfused vectorized path on the cached Q1 aggregate shape, and run the
# Q2a shape (string-function key, ~10^5 groups) on the native string table
# at >= 1.5x.
PERF_GATE=1 go test -run '^TestFusionGate$' -v -timeout 10m ./internal/experiments/

# Stage runner: a stage's tasks on per-stage worker goroutines — the
# goroutine bound over 2 000 partitions, fail-fast, cancellation, panic
# retry, a nested stage on one slot, the stage span's queueing time —
# repeated, since the race detector sees only the interleavings a run takes.
go test -race -count=10 -run '^TestStageRunner$|^TestTraceSpansForCollect$' -timeout 5m ./internal/rdd/

# Fusion property suite: every fused shape byte-identical to the row path,
# at budgets down to one byte, over both batch leaves (the columnar cache
# and colfile), with the vectorized battery and the colfile leaf's
# observability contract; TestFusedManyPartitions (and TestSQLManyCommits in
# the durable-table suite below) hold a 300-partition leaf run as a few tasks
# to the row path.
go test -race -v -run '^TestFused|^TestFusion|^TestVectorized|^TestColfileLeaf' -timeout 10m .

# The result edge: Collect through a batch top's sink byte-identical to its row
# Execute and to the interpreted engine, a task retried after boxing part of
# its output, and Count boxing nothing — repeated for the interleavings.
go test -race -count=3 -run '^TestVectorizedResultsByteIdentical$|^TestResultEdgeTaskRetry$|^TestCountDoesNotBox$' -timeout 10m .

# The SQL text a client sends is parsed first: fuzz the lexer and parser for a
# short fixed time (no panic, no stack overflow; a statement or an error).
go test -run '^$' -fuzz=FuzzParse -fuzztime=10s -timeout 5m ./internal/sqlparser/

# colfile.Open reads bytes from outside the process: fuzz it, and the scans
# over whatever opens, for a short fixed time.
go test -run '^$' -fuzz=FuzzOpen -fuzztime=15s -timeout 5m ./internal/datasource/colfile/

# Small-budget spill suite, explicitly: every blocking operator must stay
# byte-identical to the in-memory path while spilling under tiny memory
# budgets (down to one byte), clean up all spill files on completion and
# cancellation, and survive combined task-failure + spill-write chaos.
go test -race -v -run '^TestSpill' -timeout 10m .
go test -race -v -run '^TestChaosSpillWorkload$|^TestSpillStudy$' -timeout 10m ./internal/experiments/

# Adaptive regression gate: adaptive execution no slower than static
# planning on uniform data, and >= 2x faster on the skewed-join ablation
# where the size-blind static plan sorts both join inputs.
PERF_GATE=1 go test -run '^TestAdaptiveGate$' -v -timeout 10m ./internal/experiments/

# AQE property suite, explicitly: every adaptation (coalesce, promote,
# demote, skew split) must fire visibly in EXPLAIN ANALYZE and stay
# byte-identical to the static plan, including under a 1-byte budget,
# and plan-hash parity must survive annotation stripping.
go test -race -v -run '^TestAdaptive|^TestPlanHash' -timeout 10m .

# Multi-process distributed chaos: 3 worker processes over real TCP,
# SIGKILLed mid-query, heartbeat-starved into eviction and fed corrupted
# frames — every answer byte-identical to a local fault-free run. The
# schedule is seeded (deterministic) and the 5m timeout bounds wall time.
go test -race -v -run '^TestMultiproc' -timeout 5m ./internal/experiments/

# Session memo: written by RefreshSession, read by concurrent RunTasks and
# summaries while the catalog changes — the invalidation contract (what a
# changed, re-registered, dropped or committed table costs) and the
# concurrent hammer, repeated for the interleavings.
go test -race -count=5 -run '^TestSessionInvalidation$|^TestSessionRefreshConcurrent$' -timeout 5m ./internal/core/

# The session, task and reply decoders read bytes from another process: fuzz
# the session decoder for a short fixed time (no panic; decode-encode-decode
# is a fixed point); the other two run their seed corpora with the tests.
go test -run '^$' -fuzz=FuzzDecodeSession -fuzztime=10s -timeout 5m ./internal/cluster/sqlwire/

# Cluster observability suite: merged-trace golden (worker spans carrying
# the coordinator's trace id, stable normalized ordering), federation
# harvest hammered concurrently with queries under -race, a SIGKILLed
# worker's partial spans leaving the merged trace and event log intact,
# and strict-JSON validation of the event-log wire form.
go test -race -v -run '^TestObservability|^TestHarvestUnderLoad$|^TestEventLogStrictJSON$' -timeout 10m ./internal/experiments/

# Observability overhead gate: trace ids + event-log appends must cost
# <= 5% on cached Q1 against an observability-off engine.
PERF_GATE=1 go test -run '^TestObservabilityGate$' -v -timeout 10m ./internal/experiments/

# Durable-table suite, explicitly: WAL codec + crash recovery (torn
# tails, uncommitted tails, deterministic segment ids), SQL DML
# end-to-end, snapshot isolation, durable round-trip and stats
# auto-refresh replanning.
go test -race -v -run '^TestRecover|^TestCheckpoint|^TestWAL' -timeout 10m ./internal/store/
go test -race -v -run '^TestSQL|^TestStatsAutoRefreshChangesPlan$|^TestDMLErrors$' -timeout 10m .

# Kill-and-recover chaos: an ingest child process SIGKILLed at random
# points, 5 rounds — every fsync-acked batch must survive recovery
# exactly, no torn batch may surface, and at most one committed batch
# per kill may lack an ack (the commit->ack window).
go test -race -v -run '^TestKillRecover$' -timeout 10m ./internal/experiments/

# Ingest regression gate: durable ingest >= 100k rows/s, and both
# recovery paths (full WAL replay, post-checkpoint reopen) cheaper than
# the fsync-bound ingest that produced the data.
PERF_GATE=1 go test -run '^TestIngestGate$' -v -timeout 10m ./internal/experiments/
