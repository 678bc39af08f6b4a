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

# Fusion has one admission rule ("the input is a batch pipeline"): the key
# shape test and the five fallback reason strings that went with it must not
# come back — an AST gate in internal/archtest, TestNoDeletedFusionAdmission,
# fired by TestPhysicalGatesFire.
# One boxing routine (expr.BoxValues into a header-less arena at every result
# edge, TopK's sink included), kernels that borrow their output vectors from
# the batch's scratch, and one keyed hash table in the executor (no key
# strings in internal/physical, no Go map in the group table's or the
# reducer's file) are AST gates in internal/archtest, which go test ./... runs
# below: TestNoPerRowBoxingAtResultEdge, TestNoRowHeaderCopyInBatchTop,
# TestKernelsBorrowVectors, TestNoKeyStringsInExecutor and
# TestNoGoMapInGroupTable, each with a fixture it fires on.
# A statement pays for what changed in the catalog: the cluster runtime
# re-encodes a table only where the catalog published a new relation, and a
# LocalRelation's flat size comes from its memo cell, so a row loop in
# plan.Stats' leaf case is the per-statement walk over every row coming back
# (AST gates in internal/archtest, TestRefreshSessionEncodesNothing and
# TestStatsWalksNoRows, fired by TestSessionGatesFire).
# A knob is declared once (core.Config; optimizer.Config and
# physical.PlannerConfig are views derived from it), and the session spec
# carries the Config whole: AST gates in internal/archtest, run by go test
# ./... below — TestKnobDeclaredOnce and TestSessionSpecCarriesConfigWhole,
# fired by TestKnobGatesFire.
# One stage mechanism: a shuffle's map side, a join's build side and top-K's
# candidates are each an rdd.Stage that an action (or the adaptive driver,
# once) runs before the tasks that read it. A second memoizer (LazyBuild,
# shuffleState) or a partition collector coming back is a second mechanism; a
# task body in internal/physical or internal/rangejoin that collects or
# computes another RDD's partition runs a job from inside its slot again (AST
# gates in internal/archtest, TestOneStageMechanism and TestNoJobInsideTask,
# fired by TestPhysicalGatesFire).
# One exchange mechanism: every repartitioning of an operator's input is an
# ExchangeExec plan node (hash, range, presplit, broadcast) in
# internal/physical/exchange.go, which buckets at the session's bucket count
# and hands each reduce task a contiguous range of buckets; adaptive execution
# re-plans from an exchange's map output. An operator calling an rdd exchange
# primitive (PartitionByHashCodec, PartitionByFuncCodec, ExchangePresplit,
# Coalesce, Regroup) or BuildStage itself is an operator shuffling inside its
# own Execute again (AST gate in internal/archtest, TestExchangesOnlyInExchange,
# fired by TestExchangeGateFires).
# One shuffled join, and sort runs that are index sorts over key lanes: AST
# gates in internal/archtest, TestNoSecondShuffledJoin and TestNoRowSliceSort,
# fired by TestPhysicalGatesFire.
# One framer: internal/frame cuts every record that crosses a process or
# disk boundary. A second importer of hash/crc32, or a fixed-width length
# prefix written or read with encoding/binary under the cluster, the store or
# the durable file system, is a hand-rolled framer coming back; and rows that
# cross a process boundary for a while (shuffle buckets, task replies, session
# tables, spill runs) travel as internal/columnar blocks, the row codec's
# blocks being the durable store's format alone. AST gates in
# internal/archtest, run by go test ./... below: TestCRC32OnlyInFrame,
# TestNoHandRolledFraming and TestRowBlocksOnlyInStore, fired by
# TestCodecGatesFire.
# A server statement pays only for its own bookkeeping: the event reads its
# own trace's spans, not a copy of the ring; the server's row cap is the
# collect's, so the statement is planned once and logs the hash of the plan
# that ran; and a take is sized to the rows it takes, not to its cap (AST
# gates in internal/archtest, TestNoTraceRingCopy, TestServerPlansOnce and
# TestTakeSizedToRows, fired by TestSessionGatesFire).
# Catalyst's fixed point is node identity: a rule batch stops at the first
# iteration in which every rule returned the node it was given, and every tree
# rewrite goes through catalyst's transforms. AST gates in internal/archtest,
# run by go test ./... below: TestTreesRewrittenByCatalyst (no hand-written
# walk calling WithNewChildren outside internal/catalyst; the adaptive driver
# is a catalyst transform too), TestCatalystRendersNoTree (no String() in internal/catalyst or in
# the TreeNode interface) and TestOptimizerComparesNoText (no .String() ==/!=
# in internal/optimizer), each fired by TestCatalystGatesFire.
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
# retry, a stage waiting on its parents, the stage span's queueing time —
# and the stage rule: a worker's PartitionContext is the one place a task
# runs a stage, and a stage cancelled mid-run (map side, build side, top-K
# candidates, skew-split join) does not poison the next run; repeated, since
# the race detector sees only the interleavings a run takes.
go test -race -count=10 -run '^TestStageRunner$|^TestTraceSpansForCollect$|^TestPartitionContextRunsNestedStage$|^TestStageSurvivesCancelledRun$' -timeout 5m ./internal/rdd/ ./internal/physical/

# An expression chain is linear to analyse and bounded in depth: a left-deep
# chain of +, OR or || as long as the parser allows is answered in
# milliseconds (the limits scale under -race), and past the bound it is a
# parse error.
go test -race -run 'ChainIsLinear$' -timeout 5m .
go test -run '^TestParseChainDepthBounded$' -timeout 5m ./internal/sqlparser/

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
# planning (within 1.25x) on uniform data and on the skewed-join ablation,
# where the size-blind static plan shuffles the join that adaptation
# promotes to broadcast.
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

# One statement, one plan: through the server a statement is planned once and
# rendered for its hash at most once, its logged hash is SHOW HISTORY's, a
# cluster context runs it on the workers under the row cap, and its event and
# a take allocate for their own spans and rows only.
go test -race -count=3 -run '^TestStatementPlannedOnce$|^TestStructuredQueryLog$|^TestServerStatementsDistribute$|^TestTraceBufferTraceSpans$|^TestFinishEventCostsOwnSpans$|^TestTakeContextSizedToRows$' -timeout 5m ./internal/sqlserver/ ./internal/cluster/sqlexec/ ./internal/metrics/ ./internal/core/ ./internal/rdd/

# Catalyst's change detection: a rewrite String() cannot see still moves the
# batch to its fixed point, a rule matching nothing allocates nothing and
# returns its input, and removing any one optimizer or physical preparation
# rule leaves every answer of the Q1-Q3, star-join, UNION and ORDER BY ...
# LIMIT set unchanged.
go test -race -count=3 -timeout 5m ./internal/catalyst/
go test -race -count=3 -run '^TestRuleOffDifferential$|^TestUnconvergedBatchesAreCounted$' -timeout 5m ./internal/core/

# Session memo: written by RefreshSession, read by concurrent RunTasks and
# summaries while the catalog changes — the invalidation contract (what a
# changed, re-registered, dropped or committed table costs, and which changes
# drop the statements' recorded decisions) and the concurrent hammer; the
# statement memos beside it: a repeated distributed statement replays its
# decisions with no coordinator stage, a stale list answers as the static
# plan, and a worker's built statements stay bounded — repeated for the
# interleavings.
go test -race -count=5 -run '^TestSessionInvalidation$|^TestSessionRefreshConcurrent$|^TestStaleDecisionsReplayByteIdentical$|^TestDistributedMatchesLocal$|^TestWorkerStatementMemoBounded$|^TestMemoEvictsLeastRecentlyUsed$' -timeout 5m ./internal/core/ ./internal/cluster/ ./internal/cluster/sqlexec/

# The session, task and reply decoders read bytes from another process: fuzz
# the session decoder for a short fixed time (no panic; decode-encode-decode
# is a fixed point); the other two run their seed corpora with the tests. The
# row blocks inside replies, shuffle buckets, session tables and spill runs
# are fuzzed likewise (no panic, no allocation past what the bytes can hold,
# a fixed point).
go test -run '^$' -fuzz=FuzzDecodeSession -fuzztime=10s -timeout 5m ./internal/cluster/sqlwire/
go test -run '^$' -fuzz=FuzzDecodeBlock -fuzztime=10s -timeout 5m ./internal/columnar/

# Knob parity: every Config field, walked by reflection, reaches a worker
# through EncodeSession -> DecodeSession -> buildContext as the coordinator
# resolved it, or at DefaultConfig's value when it is process-local.
go test -race -count=3 -run '^TestConfigParity$' -timeout 5m ./internal/cluster/sqlexec/

# One framer reads every record that crosses a process or disk boundary:
# fuzz it (no panic; an accepted frame re-appends to its bytes and survives
# what follows it; the slice and stream readers agree; a flipped bit is a
# checksum failure). Then the durable file loader over it (refused and
# untouched, or the longest intact prefix kept and the file cut to it; a
# second load is a fixed point).
go test -run '^$' -fuzz=FuzzFrame -fuzztime=10s -timeout 5m ./internal/frame/
go test -run '^$' -fuzz=FuzzLoadFrames -fuzztime=10s -timeout 5m ./internal/dfs/

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
