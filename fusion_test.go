package sparksql

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/datasource/colfile"
	"repro/internal/rdd"
)

// Whole-stage fusion property tests. These extend the spill harness in
// spill_test.go (spillConfig, rowsText, canonText, spillCollect) with tables
// behind a batch-producing leaf — fusion only engages over one: the columnar
// cache, or a colfile cut into row groups that coincide with the cache's
// partitions — and compare every fused shape on every leaf against the
// row-at-a-time path over the cache: group-key specializations
// (int64, string, (int64,int64) pair, generic, global), every aggregate
// function, broadcast-join probes on int, string, pair and generic keys under
// every join type a join may broadcast, string/date kernels in the pipeline,
// and memory budgets down to one byte (the fused aggregate's partials feed the
// same grace-partitioned spill merge as the row path's).

// fusedConfig is spillConfig plus the row/vectorized switch: vectorized=false
// is the row-at-a-time engine, vectorized=true runs the fused plans (Fusion
// defaults on).
func fusedConfig(budget int64, vectorized bool) Config {
	cfg := spillConfig(budget)
	cfg.Vectorized = vectorized
	return cfg
}

// fusedAggregate says a plan holds an aggregate whose phase 1, its presplit
// exchange's map side, is fused into the batch pipeline under it.
func fusedAggregate(plan string) bool {
	return regexp.MustCompile(`Exchange (presplit|single)[^\n]*\(fused: true`).MatchString(plan)
}

// interpretedConfig is the row-at-a-time engine with codegen off: the
// interpreter for every expression and the aggregates' own scalar buffers
// (BoxedAggregator) for every aggregate — the one aggregate implementation
// that shares no kernel or state lane with the other two modes, and so the
// golden the fusion suites compare them against.
func interpretedConfig(budget int64) Config {
	cfg := fusedConfig(budget, false)
	cfg.Codegen = false
	return cfg
}

// engineModes are the three ways one plan can run: fused batch operators,
// compiled row-at-a-time operators (an aggregate or a join over rows runs the
// batch sinks over them transposed), and the interpreted (Shark-style) row
// operators.
var engineModes = []struct {
	name   string
	config func(budget int64) Config
}{
	{"fused", func(b int64) Config { return fusedConfig(b, true) }},
	{"row", func(b int64) Config { return fusedConfig(b, false) }},
	{"interpreted", interpretedConfig},
}

// A tableLeaf registers rows as a temp table behind one kind of leaf, split
// into parts equal partitions (0 = the session's parallelism, 4).
type tableLeaf func(t testing.TB, ctx *Context, schema StructType, rows []Row, name string, parts int)

// batchLeaves are the leaves the vectorized and fused operators run over.
var batchLeaves = []struct {
	name     string
	register tableLeaf
}{
	{"cache", cacheTempTable},
	{"colfile", colfileTempTable},
}

// setupFusedTables mirrors setupSpillTables but puts every table behind a
// batch-producing leaf and adds what the fused shapes need: a
// low-cardinality string key (word), a second int key (sub) for pair
// grouping and pair-key joins, a DATE column for the date kernels, and NULLs
// sprinkled through every key column.
func setupFusedTables(t testing.TB, ctx *Context, register tableLeaf) {
	t.Helper()
	events := StructType{}.
		Add("id", IntType, false).
		Add("grp", IntType, true).
		Add("sub", IntType, true).
		Add("word", StringType, true).
		Add("name", StringType, false).
		Add("day", DateType, false).
		Add("val", DoubleType, true)
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	rows := make([]Row, spillRows)
	for i := range rows {
		r := Row{
			int32(i),
			int32(i % 80),
			int32(i % 7),
			words[(i*31)%len(words)],
			fmt.Sprintf("n%05d", (i*7919)%spillRows),
			int32(16071 + i%700), // 2014-01-01 .. late 2015
			float64(i%997) * 1.5,
		}
		switch i % 53 { // NULLs in every key/value column the shapes group or join on
		case 0:
			r[1] = nil
		case 1:
			r[2] = nil
		case 2:
			r[3] = nil
		case 3:
			r[6] = nil
		}
		rows[i] = r
	}
	register(t, ctx, events, rows, "events", 0)

	dim := StructType{}.
		Add("grp", IntType, false).
		Add("label", StringType, false)
	var drows []Row
	for g := 0; g < 80; g += 2 {
		drows = append(drows, Row{int32(g), fmt.Sprintf("label%02d", g)})
	}
	register(t, ctx, dim, drows, "dim", 0)

	// Two of the six words are missing so inner string joins drop rows and
	// LEFT OUTER null-extends them.
	dimw := StructType{}.
		Add("word", StringType, false).
		Add("wlabel", StringType, false)
	var wrows []Row
	for _, w := range words[:4] {
		wrows = append(wrows, Row{w, "W:" + w})
	}
	register(t, ctx, dimw, wrows, "dimw", 0)

	// Sparse (grp, sub) pairs for the pair-key probe table.
	dimp := StructType{}.
		Add("grp", IntType, false).
		Add("sub", IntType, false).
		Add("plabel", StringType, false)
	var prows []Row
	for g := 0; g < 80; g += 3 {
		for s := 0; s < 7; s += 2 {
			prows = append(prows, Row{int32(g), int32(s), fmt.Sprintf("p%02d-%d", g, s)})
		}
	}
	register(t, ctx, dimp, prows, "dimp", 0)
}

func cacheTempTable(t testing.TB, ctx *Context, schema StructType, rows []Row, name string, parts int) {
	t.Helper()
	df, err := ctx.CreateDataFrame(schema, rows)
	if parts > 0 {
		df, err = ctx.CreateDataFrameFromRDD(schema, rdd.Parallelize(ctx.RDDContext(), rows, parts))
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Cache(); err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable(name)
}

// colfileTempTable writes rows to a columnar file whose row groups are the
// partitions cacheTempTable would cut, and registers the file.
func colfileTempTable(t testing.TB, ctx *Context, schema StructType, rows []Row, name string, parts int) {
	t.Helper()
	if parts == 0 {
		parts = 4
	}
	if len(rows)%parts != 0 {
		t.Fatalf("%s: %d rows do not cut into %d equal row groups", name, len(rows), parts)
	}
	path := filepath.Join(t.TempDir(), name+".gcf")
	if err := colfile.Write(path, schema, rows, max(len(rows)/parts, 1)); err != nil {
		t.Fatal(err)
	}
	df, err := ctx.Read().ColFile(path)
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable(name)
}

// fusedExactQueries must match the row path byte for byte, in order.
var fusedExactQueries = []string{
	"SELECT grp, count(*), sum(val) FROM events WHERE id < 2000 GROUP BY grp ORDER BY grp",
	"SELECT word, min(name), max(name) FROM events GROUP BY word ORDER BY word",
	"SELECT name, val FROM events WHERE grp = 7 ORDER BY name",
}

// fusedCanonQueries are compared as sorted row sets (exact emission order is
// TestFusedPartialBlocks' property). Together they hit every group-table and
// probe-table specialization, the generic fallbacks, and the string/date
// kernels feeding a fused sink.
var fusedCanonQueries = []string{
	// i64 group key, full numeric aggregate set.
	"SELECT grp, count(*), sum(val), avg(val), min(val), max(val) FROM events GROUP BY grp",
	// string group key; first() checks merge-order sensitivity.
	"SELECT word, count(*), sum(val), first(name) FROM events GROUP BY word",
	// (i64, i64) pair group key.
	"SELECT grp, sub, count(*), avg(val) FROM events GROUP BY grp, sub",
	// generic (boxed) group key: Double.
	"SELECT val, count(*) FROM events GROUP BY val",
	// global aggregate, string min/max.
	"SELECT count(*), sum(val), avg(val), min(name), max(name) FROM events WHERE grp > 10",
	// count(DISTINCT) buffers.
	"SELECT grp, count(DISTINCT word) FROM events GROUP BY grp",
	// date kernels as group keys and as a filter.
	"SELECT year(day), month(day), count(*) FROM events GROUP BY year(day), month(day)",
	"SELECT grp, count(*) FROM events WHERE year(day) = 2015 GROUP BY grp",
	// string kernel filter into a fused sink.
	"SELECT word, count(*) FROM events WHERE name LIKE 'n01%' GROUP BY word",
	// broadcast probes: int, string, and pair keys; INNER and LEFT OUTER.
	"SELECT e.name, d.label FROM events e JOIN dim d ON e.grp = d.grp WHERE e.id < 1500",
	"SELECT e.name, d.label FROM events e LEFT JOIN dim d ON e.grp = d.grp WHERE e.id < 500",
	"SELECT e.name, w.wlabel FROM events e JOIN dimw w ON e.word = w.word WHERE e.id < 1500",
	"SELECT e.name, w.wlabel FROM events e LEFT JOIN dimw w ON e.word = w.word WHERE e.id < 500",
	"SELECT e.name, p.plabel FROM events e JOIN dimp p ON e.grp = p.grp AND e.sub = p.sub",
	"SELECT e.name, p.plabel FROM events e LEFT JOIN dimp p ON e.grp = p.grp AND e.sub = p.sub WHERE e.id < 500",
	// the small side on the left: the probe runs from the right pipeline.
	"SELECT d.label, e.name FROM dim d JOIN events e ON d.grp = e.grp WHERE e.id < 1500",
	"SELECT w.wlabel, e.name FROM dimw w JOIN events e ON w.word = e.word WHERE e.id < 1500",
	"SELECT p.plabel, e.name FROM dimp p JOIN events e ON p.grp = e.grp AND p.sub = e.sub",
	"SELECT d.label, e.name FROM dim d RIGHT JOIN events e ON d.grp = e.grp WHERE e.id < 500",
	// generic-table probes: a three-column key, and a key with no kernel.
	"SELECT e.name, p.plabel FROM events e JOIN dimp p ON e.grp = p.grp AND e.sub = p.sub AND e.sub + e.grp = p.grp + p.sub",
	"SELECT e.name, w.wlabel FROM events e LEFT JOIN dimw w ON upper(e.word) = upper(w.word) WHERE e.id < 500",
	// aggregate above a join: the join hands its batches to the fused sink —
	// build-side, probe-side and expression keys, NULL-extended build cells,
	// a residual, a LEFT SEMI probe, and a join over a join under the sink.
	"SELECT d.label, count(*) FROM events e JOIN dim d ON e.grp = d.grp GROUP BY d.label",
	"SELECT e.word, count(*), sum(e.val), min(d.label) FROM events e JOIN dim d ON e.grp = d.grp GROUP BY e.word",
	"SELECT w.wlabel, count(*), avg(e.val), max(e.name) FROM events e LEFT JOIN dimw w ON e.word = w.word GROUP BY w.wlabel",
	"SELECT d.label, e.sub, count(*) FROM dim d RIGHT JOIN events e ON d.grp = e.grp AND e.sub * 10 < d.grp GROUP BY d.label, e.sub",
	"SELECT e.grp % 5, count(*), min(e.name) FROM events e LEFT SEMI JOIN dimp p ON e.grp = p.grp AND e.sub = p.sub GROUP BY e.grp % 5",
	"SELECT w.wlabel, d.label, count(*), sum(e.val) FROM events e JOIN dim d ON e.grp = d.grp JOIN dimw w ON e.word = w.word GROUP BY w.wlabel, d.label",
	"SELECT count(*), sum(e.val), max(d.label) FROM events e JOIN dim d ON e.grp = d.grp WHERE e.id < 1500",
	// ORDER BY ... LIMIT n over fused operators: a top-K, on a total order.
	"SELECT d.label, sum(e.val) AS total FROM events e JOIN dim d ON e.grp = d.grp GROUP BY d.label ORDER BY total DESC, d.label LIMIT 1",
	"SELECT e.id, e.name, d.label FROM events e JOIN dim d ON e.grp = d.grp ORDER BY d.label DESC, e.id LIMIT 7",
	// DISTINCT is a grouping with no aggregates: two columns (pair table)
	// and a NULL-bearing string column.
	"SELECT DISTINCT grp, sub FROM events",
	"SELECT DISTINCT word FROM events",
}

// setupLaneJoinTables adds the build sides the lane build is tested on:
// `dimd`, 120 rows in which each non-NULL grp key repeats two or three times
// and every 17th is NULL, with a DOUBLE key x cycling through NaN, -0.0, 0.0,
// NULL and two plain values; `dime`, a build side with no rows; and `dimk`,
// ids 0..99, which the probe batches of events past id 99 never match.
func setupLaneJoinTables(t testing.TB, ctx *Context, register tableLeaf) {
	t.Helper()
	doubles := []any{math.NaN(), math.Copysign(0, -1), 0.0, 1.5, nil, -2.25}
	dimd := make([]Row, 120)
	for i := range dimd {
		var grp any = int32(i % 50)
		if i%17 == 0 {
			grp = nil
		}
		dimd[i] = Row{grp, fmt.Sprintf("t%03d", i), doubles[i%len(doubles)]}
	}
	register(t, ctx, StructType{}.Add("grp", IntType, true).Add("tag", StringType, false).Add("x", DoubleType, true), dimd, "dimd", 0)
	register(t, ctx, StructType{}.Add("grp", IntType, true).Add("label", StringType, false), nil, "dime", 0)
	dimk := make([]Row, 100)
	for i := range dimk {
		dimk[i] = Row{int32(i), fmt.Sprintf("k%02d", i)}
	}
	register(t, ctx, StructType{}.Add("id", IntType, false).Add("klabel", StringType, false), dimk, "dimk", 0)
}

// laneJoinQueries are broadcast joins over the lane build: duplicate build
// keys (a probe row's matches in build-collect order), NULL keys on both
// sides, DOUBLE keys holding -0.0 and NaN, an empty build side, probe batches
// with no match, LEFT OUTER, LEFT SEMI, a residual, and an aggregate on top.
// Unbudgeted they broadcast, and their output is the row join's byte for
// byte, order included; under a budget only the row set compares.
var laneJoinQueries = []string{
	"SELECT e.id, d.tag, d.grp FROM events e JOIN dimd d ON e.grp = d.grp WHERE e.id < 900",
	"SELECT e.id, d.tag, d.x FROM events e LEFT JOIN dimd d ON e.grp = d.grp WHERE e.id < 900",
	"SELECT e.id, e.name FROM events e LEFT SEMI JOIN dimd d ON e.grp = d.grp WHERE e.id < 900",
	"SELECT e.id, d.tag FROM events e JOIN dimd d ON e.grp = d.grp AND e.sub < d.grp % 7 WHERE e.id < 900",
	"SELECT a.tag, a.x, b.tag, b.x FROM dimd a JOIN dimd b ON a.x = b.x",
	"SELECT a.tag, b.tag, b.x FROM dimd a LEFT JOIN dimd b ON a.x = b.x AND a.grp < b.grp",
	"SELECT e.id, d.label FROM events e JOIN dime d ON e.grp = d.grp",
	"SELECT e.id, d.label FROM events e LEFT JOIN dime d ON e.grp = d.grp WHERE e.id < 300",
	"SELECT e.id, k.klabel FROM events e JOIN dimk k ON e.id = k.id",
	"SELECT e.id, k.klabel FROM events e LEFT JOIN dimk k ON e.id = k.id WHERE e.id % 7 = 0",
	"SELECT d.tag, count(*), sum(d.x), min(e.name) FROM events e JOIN dimd d ON e.grp = d.grp GROUP BY d.tag",
}

// randomFusedQueries derives extra grouped-aggregate shapes from a fixed
// seed: random key shape, random selectivity.
func randomFusedQueries() []string {
	rng := rand.New(rand.NewSource(0xF05E))
	keys := []string{"grp", "sub", "word", "grp, sub"}
	var out []string
	for i := 0; i < 4; i++ {
		k := keys[rng.Intn(len(keys))]
		x := rng.Intn(spillRows)
		out = append(out, fmt.Sprintf(
			"SELECT %s, count(*), sum(val), min(name) FROM events WHERE id < %d GROUP BY %s", k, x, k))
	}
	return out
}

// TestFusedPipelineByteIdentical is the acceptance property: at every budget
// — unbounded down to one byte — the fused engine's results are byte-identical
// to the interpreted engine's, spilling really happens at the bounded budgets,
// and no spill file survives any query.
func TestFusedPipelineByteIdentical(t *testing.T) {
	canonQueries := append(append([]string{}, fusedCanonQueries...), randomFusedQueries()...)

	golden := NewContextWithConfig(interpretedConfig(0))
	setupFusedTables(t, golden, cacheTempTable)
	setupLaneJoinTables(t, golden, cacheTempTable)
	wantExact := make(map[string]string, len(fusedExactQueries)+len(laneJoinQueries))
	for _, q := range append(slices.Clone(fusedExactQueries), laneJoinQueries...) {
		wantExact[q] = rowsText(spillCollect(t, golden, q))
	}
	wantCanon := make(map[string]string, len(canonQueries)+len(laneJoinQueries))
	for _, q := range append(slices.Clone(canonQueries), laneJoinQueries...) {
		wantCanon[q] = canonText(spillCollect(t, golden, q))
	}

	budgets := []int64{0, 1, 127, 1 << 10, 16 << 10}
	rng := rand.New(rand.NewSource(0x5B111))
	for i := 0; i < 3; i++ {
		budgets = append(budgets, 1+rng.Int63n(16<<10))
	}

	for _, leaf := range batchLeaves {
		for _, budget := range budgets {
			budget := budget
			t.Run(fmt.Sprintf("%s/budget=%d", leaf.name, budget), func(t *testing.T) {
				if budget == 1 && testing.Short() {
					t.Skip("one-byte budget spills per row; skipped in -short")
				}
				ctx := NewContextWithConfig(fusedConfig(budget, true))
				setupFusedTables(t, ctx, leaf.register)
				setupLaneJoinTables(t, ctx, leaf.register)
				ctx.SpillFS().WriteNanosPerByte = 0
				ctx.SpillFS().ReadNanosPerByte = 0
				for _, q := range laneJoinQueries {
					rows := spillCollect(t, ctx, q)
					got, want := rowsText(rows), wantExact[q]
					if budget > 0 {
						got, want = canonText(rows), wantCanon[q]
					}
					if got != want {
						t.Errorf("%q diverged from the interpreted engine at budget %d:\n got %.300q\nwant %.300q", q, budget, got, want)
					}
				}
				for _, q := range fusedExactQueries {
					if got := rowsText(spillCollect(t, ctx, q)); got != wantExact[q] {
						t.Errorf("%q diverged from the interpreted engine at budget %d", q, budget)
					}
					if nf := ctx.SpillFS().NumFiles(); nf != 0 {
						t.Fatalf("%q left %d spill files at budget %d", q, nf, budget)
					}
				}
				for _, q := range canonQueries {
					if got := canonText(spillCollect(t, ctx, q)); got != wantCanon[q] {
						t.Errorf("%q diverged from the interpreted engine at budget %d", q, budget)
					}
					if nf := ctx.SpillFS().NumFiles(); nf != 0 {
						t.Fatalf("%q left %d spill files at budget %d", q, nf, budget)
					}
				}
				if budget > 0 {
					if n := ctx.Metrics().Counter("memory.spill.count").Load(); n == 0 {
						t.Fatalf("budget %d forced no spills over %d-row inputs", budget, spillRows)
					}
				}
			})
		}
	}
}

// setupBlockTables adds the inputs the partial-block boundary is tested on:
// `mb` (strings with multi-byte runes, empties and NULLs for SUBSTR keys),
// `fl` (DOUBLE inputs including NaN, -0.0 and NULL) and `tiny` (1200 cached
// partitions of five rows — the many-small-commits shape, where a partial
// block's fixed cost is everything).
func setupBlockTables(t testing.TB, ctx *Context, register tableLeaf) {
	t.Helper()
	texts := []any{"héllo wörld", "日本語テキスト", "naïve café", "", "plain ascii text", nil, "ab", "héllo again"}
	mb := make([]Row, 600)
	for i := range mb {
		mb[i] = Row{int32(i), texts[(i*7)%len(texts)]}
	}
	register(t, ctx, StructType{}.Add("id", IntType, false).Add("s", StringType, true), mb, "mb", 0)

	doubles := []any{math.NaN(), math.Copysign(0, -1), 0.0, 1.5, nil, -2.25, math.Inf(1)}
	fl := make([]Row, 700)
	for i := range fl {
		fl[i] = Row{int32(i % 9), doubles[(i*5+i/7)%len(doubles)]}
	}
	register(t, ctx, StructType{}.Add("k", IntType, false).Add("x", DoubleType, true), fl, "fl", 0)

	schema := StructType{}.Add("k", LongType, false).Add("s", StringType, false).Add("x", DoubleType, false)
	tiny := make([]Row, 6000)
	for i := range tiny {
		tiny[i] = Row{int64(i * 7), fmt.Sprintf("%c%d", 'a'+i%7, i), float64(i%13) / 4}
	}
	register(t, ctx, schema, tiny, "tiny", 1200)

	// wide: two partitions of 9 000 rows, ~90 % of the keys distinct: their
	// 4 096-row windows hold 3 773 and 4 054 groups, over partialMaxGroups
	// (3 686), so every map task stops partial aggregation. Every tenth row
	// repeats a key 13·m: first seen inside the window (m < 410), or after it
	// (m ≥ 410, rows 4 100..6 990), and again in the second partition; every
	// 97th key is NULL. x holds eighths, which add exactly in any order; y
	// does not (see windowInexactQuery).
	wide := make([]Row, 2*windowPartRows)
	for i := range wide {
		var k any = int64(i)
		switch {
		case i%97 == 0:
			k = nil
		case i%10 == 0:
			k = int64(i / 10 % 700 * 13)
		}
		x := float64(i%1000) / 8
		wide[i] = Row{k, x, x + 0.1, fmt.Sprintf("s%d", i%37), fmt.Sprintf("t%d", i)}
	}
	register(t, ctx, StructType{}.Add("k", LongType, true).Add("x", DoubleType, false).Add("y", DoubleType, false).
		Add("s", StringType, false).Add("u", StringType, false), wide, "wide", 2)
}

// windowPartRows is how many rows each of wide's two partitions holds: past
// the partial-aggregation window twice over.
const windowPartRows = 9000

// windowQueries group wide's mostly distinct keys — one-row partials over the
// i64 table, the generic table and the boxed fallback key.
var windowQueries = []string{
	"SELECT k, sum(x), avg(x), first(s), count(DISTINCT s), count(*) FROM wide GROUP BY k",
	"SELECT k, s, sum(x), first(u) FROM wide GROUP BY k, s",
	"SELECT upper(u), avg(x), count(*) FROM wide GROUP BY upper(u)",
}

// windowInexactQuery sums values that round differently in another order.
// Every engine skips at the same rows, so its sums add the same values in the
// same order and the bytes match the row path's at an unbounded budget. (That
// order is not a non-skipping aggregate's: the reducer adds a key's passed
// rows to its running total across map tasks, not to each task's subtotal.
// And a reducer that spills adds each flush's partial sums apart, so under a
// budget only sums that are exact in any order — x — compare byte for byte.)
const windowInexactQuery = "SELECT k, sum(y), avg(y), count(*) FROM wide GROUP BY k"

// blockQueries cross the typed partial-block boundary in every shape: each
// must match the row path byte for byte INCLUDING emission order (both phase
// 1s emit first-seen order and partition by the same typed-key hash).
func blockQueries() []string {
	qs := []string{
		// Every aggregate across the 4-reducer exchange, typed and boxed lanes.
		"SELECT grp, count(*), count(val), sum(val), avg(val), min(val), max(val), sum(id), min(day), max(name), first(name), count(DISTINCT word) FROM events GROUP BY grp",
		// NULL keys in each group table: i64, str, pair, generic, and the
		// global table over all-NULL and over empty input.
		"SELECT grp, count(*), first(word) FROM events GROUP BY grp",
		"SELECT word, count(*), max(val) FROM events GROUP BY word",
		"SELECT grp, sub, count(*), min(name) FROM events GROUP BY grp, sub",
		"SELECT val, count(*) FROM events GROUP BY val",
		"SELECT word, grp, sum(val) FROM events GROUP BY word, grp",
		"SELECT count(*), count(val), sum(val), avg(val), min(val), first(val) FROM events WHERE val IS NULL",
		"SELECT count(*), sum(val), max(name), count(DISTINCT word) FROM events WHERE id < 0",
		// NaN, -0.0 and infinities as aggregate inputs and as generic keys.
		"SELECT k, count(x), sum(x), avg(x), min(x), max(x), first(x) FROM fl GROUP BY k",
		"SELECT x, count(*), sum(k) FROM fl GROUP BY x",
		// 1200 map partitions x <= 10 groups.
		"SELECT k % 10, sum(x), count(*), min(s) FROM tiny GROUP BY k % 10",
		"SELECT substr(s, 1, 1), avg(x), count(DISTINCT k % 3) FROM tiny GROUP BY substr(s, 1, 1)",
		// A key with no kernel (boxed fallback into the generic table).
		"SELECT upper(word), count(*), sum(val) FROM events GROUP BY upper(word)",
	}
	qs = append(qs, windowQueries...)
	// SUBSTR keys: pos <= 0, length past the end, start past the end,
	// non-positive lengths, NULL and multi-byte input (byte semantics).
	for _, a := range [][2]int{{1, 4}, {0, 3}, {-2, 5}, {3, 100}, {50, 2}, {2, 0}, {2, -1}, {7, 2}} {
		qs = append(qs, fmt.Sprintf("SELECT substr(s, %d, %d), count(*), min(id) FROM mb GROUP BY substr(s, %d, %d)", a[0], a[1], a[0], a[1]))
	}
	// Seeded random shapes: key expression, aggregate list, selectivity.
	rng := rand.New(rand.NewSource(0xB10C))
	keys := []string{"grp", "word", "grp, sub", "val", "substr(name, 2, 3)", "word, sub", "year(day)"}
	aggs := []string{"count(*)", "sum(val)", "avg(val)", "min(name)", "max(day)", "first(name)", "count(DISTINCT sub)"}
	for i := 0; i < 6; i++ {
		k := keys[rng.Intn(len(keys))]
		qs = append(qs, fmt.Sprintf("SELECT %s, %s, %s FROM events WHERE id < %d GROUP BY %s",
			k, aggs[rng.Intn(len(aggs))], aggs[rng.Intn(len(aggs))], rng.Intn(spillRows), k))
	}
	return qs
}

// probeOrderQueries are broadcast joins probed from either side. While the
// build side fits the budget their output order is the row join's: probe
// rows in stream order, matches in build-collect order, left cells first.
// (At a one-byte budget nothing broadcasts: the planner makes them shuffled
// hash joins, and only the row set is comparable.)
var probeOrderQueries = []string{
	"SELECT e.id, e.name, d.label FROM events e JOIN dim d ON e.grp = d.grp WHERE e.id % 3 = 0",
	"SELECT d.label, e.id, e.name FROM dim d JOIN events e ON d.grp = e.grp WHERE e.id % 3 = 0",
	"SELECT w.wlabel, e.id FROM dimw w JOIN events e ON w.word = e.word",
	"SELECT p.plabel, e.id, e.val FROM dimp p JOIN events e ON p.grp = e.grp AND p.sub = e.sub",
	"SELECT d.label, e.id FROM dim d RIGHT JOIN events e ON d.grp = e.grp WHERE e.id < 300",
	// LEFT SEMI, a residual over the joined row, and both under a RIGHT OUTER
	// join that builds left.
	"SELECT e.id, e.name FROM events e LEFT SEMI JOIN dimp p ON e.grp = p.grp AND e.sub = p.sub",
	"SELECT e.id, d.label FROM events e JOIN dim d ON e.grp = d.grp AND e.sub * 10 < d.grp WHERE e.id % 3 = 0",
	"SELECT e.id FROM events e LEFT SEMI JOIN dim d ON e.grp = d.grp AND e.sub * 10 < d.grp",
	"SELECT p.plabel, e.id FROM dimp p RIGHT JOIN events e ON p.grp = e.grp AND p.sub < e.sub WHERE e.id < 300",
	// The same probes handing batches on: to a fused aggregate (groups come
	// out in the order the probe's output first shows them), to a pipeline,
	// to another fused join — and a top-K, on a total order, over them.
	"SELECT e.grp, count(*), sum(e.val), min(d.label) FROM events e JOIN dim d ON e.grp = d.grp GROUP BY e.grp",
	"SELECT d.label, e.word, count(*), max(e.name) FROM dim d RIGHT JOIN events e ON d.grp = e.grp WHERE e.id < 900 GROUP BY d.label, e.word",
	"SELECT e.id + d.grp, upper(d.label) FROM events e JOIN dim d ON e.grp = d.grp WHERE e.id % 3 = 0",
	"SELECT e.id, d.label, w.wlabel FROM events e JOIN dim d ON e.grp = d.grp LEFT JOIN dimw w ON e.word = w.word WHERE e.id % 5 = 0",
	"SELECT e.grp, sum(e.val) AS total FROM events e JOIN dim d ON e.grp = d.grp GROUP BY e.grp ORDER BY total DESC, e.grp LIMIT 3",
	"SELECT e.id, d.label FROM events e JOIN dim d ON e.grp = d.grp ORDER BY d.label DESC, e.id DESC LIMIT 10",
}

// TestFusedPartialBlocks is the property suite for the columnar partial ->
// final boundary and for the batch leaves under it: over the cache and over
// colfile, the fused, row and interpreted engines produce byte-identical
// results in identical order — the interpreted engine's over the cache — at
// an unbounded budget, at 64 KB and at one byte, and no spill file outlives a
// query. Every map task of windowQueries stops partial aggregation after its
// window (agg.partial.skipped moves in every mode), and its one-row partials
// still give the same bytes.
func TestFusedPartialBlocks(t *testing.T) {
	queries := append(blockQueries(), probeOrderQueries...)
	allQueries := append(slices.Clone(queries), windowInexactQuery)
	golden := NewContextWithConfig(interpretedConfig(0))
	setupFusedTables(t, golden, cacheTempTable)
	setupBlockTables(t, golden, cacheTempTable)
	want := make(map[string]string, len(allQueries))
	for _, q := range allQueries {
		want[q] = rowsText(spillCollect(t, golden, q))
	}
	wantCanon := make(map[string]string, len(probeOrderQueries))
	for _, q := range probeOrderQueries {
		wantCanon[q] = canonText(spillCollect(t, golden, q))
	}
	for _, leaf := range batchLeaves {
		for _, budget := range []int64{0, 64 << 10, 1} {
			for _, mode := range engineModes {
				t.Run(fmt.Sprintf("%s/budget=%d/%s", leaf.name, budget, mode.name), func(t *testing.T) {
					if budget == 1 && testing.Short() {
						t.Skip("one-byte budget spills per row; skipped in -short")
					}
					ctx := NewContextWithConfig(mode.config(budget))
					setupFusedTables(t, ctx, leaf.register)
					setupBlockTables(t, ctx, leaf.register)
					ctx.SpillFS().WriteNanosPerByte = 0
					ctx.SpillFS().ReadNanosPerByte = 0
					skipped := ctx.Metrics().Counter("agg.partial.skipped")
					qs := queries
					if budget == 0 {
						qs = allQueries
					}
					for _, q := range qs {
						before := skipped.Load()
						rows := spillCollect(t, ctx, q)
						if (slices.Contains(windowQueries, q) || q == windowInexactQuery) && skipped.Load()-before != 2 {
							t.Errorf("%q: agg.partial.skipped rose by %d, want 2 (a map task per partition)", q, skipped.Load()-before)
						}
						got, exp := rowsText(rows), want[q]
						if canon, ok := wantCanon[q]; ok && budget == 1 {
							got, exp = canonText(rows), canon
						}
						if got != exp {
							t.Errorf("%q diverged from the unbudgeted interpreted engine:\n got %.300q\nwant %.300q", q, got, exp)
						}
						if nf := ctx.SpillFS().NumFiles(); nf != 0 {
							t.Fatalf("%q left %d spill files", q, nf)
						}
					}
					if budget > 0 {
						if n := ctx.Metrics().Counter("memory.spill.count").Load(); n == 0 {
							t.Fatalf("budget %d forced no spills", budget)
						}
					}
				})
			}
		}
	}
}

// rowLeafQueries aggregate a row input: an uncached LocalRelation, another
// aggregate's output, a shuffled join's. Every engine mode plans each as a
// HashAggregateExec whose phase 1 runs the batch sink over the rows
// transposed. The table's DOUBLE column holds NULL, NaN, -0.0, 0.0 and +Inf
// (group and join keys among them), its STRING column the empty string; the
// shapes cover DISTINCT, a global aggregate, an aggregate input with no kernel
// (a UDF) and the boxed-state aggregates FIRST and COUNT(DISTINCT).
var rowLeafQueries = []string{
	"SELECT k, count(*), sum(v), min(s), max(x), avg(v) FROM rowleaf GROUP BY k",
	"SELECT x, count(*), sum(v) FROM rowleaf GROUP BY x",
	"SELECT k, s, count(x), max(v) FROM rowleaf GROUP BY k, s",
	"SELECT DISTINCT s, k FROM rowleaf",
	"SELECT k, sum(twice(v)), first(s), count(DISTINCT s), avg(x) FROM rowleaf GROUP BY k",
	"SELECT count(*), sum(v), min(x), max(s) FROM rowleaf",
	"SELECT n, count(*) FROM (SELECT k, count(*) AS n FROM rowleaf GROUP BY k) a GROUP BY n",
	"SELECT d.label, count(*), sum(r.v) FROM rowleaf r JOIN rowdim d ON r.k = d.k GROUP BY d.label",
	"SELECT r.x, count(*), min(d.label) FROM rowleaf r JOIN rowdim d ON r.x = d.x GROUP BY r.x",
}

// setupRowLeafTables registers rowleaf and rowdim as uncached LocalRelations
// and the UDF twice.
func setupRowLeafTables(t *testing.T, ctx *Context) {
	t.Helper()
	doubles := []any{nil, math.NaN(), math.Copysign(0, -1), 0.0, math.Inf(1), 1.5, 2.25}
	strs := []any{nil, "", "a", "bb", "ccc"}
	rows := make([]Row, 5000) // over 1024 rows a partition: several chunks a task
	for i := range rows {
		var k, v any = int32(i % 37), int64(i%101) - 50
		if i%41 == 0 {
			k = nil
		}
		if i%43 == 0 {
			v = nil
		}
		rows[i] = Row{k, strs[(i*7)%len(strs)], v, doubles[(i*3)%len(doubles)]}
	}
	leaf := StructType{}.Add("k", IntType, true).Add("s", StringType, true).Add("v", LongType, true).Add("x", DoubleType, true)
	var dim []Row
	for k := range 30 {
		dim = append(dim, Row{int32(k), fmt.Sprintf("label%02d", k%9), doubles[k%len(doubles)]})
	}
	for name, tbl := range map[string]struct {
		schema StructType
		rows   []Row
	}{"rowleaf": {leaf, rows}, "rowdim": {StructType{}.Add("k", IntType, false).Add("label", StringType, false).Add("x", DoubleType, true), dim}} {
		df, err := ctx.CreateDataFrame(tbl.schema, tbl.rows)
		if err != nil {
			t.Fatal(err)
		}
		df.RegisterTempTable(name)
	}
	if err := ctx.RegisterUDF("twice", func(v int64) int64 { return 2 * v }); err != nil {
		t.Fatal(err)
	}
}

// TestRowLeafAggregates holds the row→lane edge to the interpreted engine: an
// aggregate over rows, in every engine mode and at budgets {∞, 64 KB, 1 B},
// returns the interpreted engine's unbudgeted rows byte for byte and in
// order, spills at the bounded budgets and leaves no spill file behind. Joins
// are shuffled (a 1-byte broadcast threshold), and EXPLAIN shows each
// aggregate over rows transposed.
func TestRowLeafAggregates(t *testing.T) {
	shuffled := func(cfg Config) Config { cfg.BroadcastThreshold = 1; return cfg }
	golden := NewContextWithConfig(shuffled(interpretedConfig(0)))
	setupRowLeafTables(t, golden)
	want := make(map[string]string, len(rowLeafQueries))
	for _, q := range rowLeafQueries {
		want[q] = rowsText(spillCollect(t, golden, q))
	}
	// The batch engine with codegen off compiles its sinks all the same, the
	// one over rows included, as their EXPLAIN notes say.
	modes := append(engineModes[:len(engineModes):len(engineModes)], struct {
		name   string
		config func(budget int64) Config
	}{"fused/codegen=false", func(b int64) Config { cfg := fusedConfig(b, true); cfg.Codegen = false; return cfg }})
	for _, budget := range []int64{0, 64 << 10, 1} {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("budget=%d/%s", budget, mode.name), func(t *testing.T) {
				ctx := NewContextWithConfig(shuffled(mode.config(budget)))
				setupRowLeafTables(t, ctx)
				ctx.SpillFS().WriteNanosPerByte, ctx.SpillFS().ReadNanosPerByte = 0, 0
				for _, q := range rowLeafQueries {
					if got := rowsText(spillCollect(t, ctx, q)); got != want[q] {
						t.Errorf("%q diverged from the interpreted engine:\n got %.300q\nwant %.300q", q, got, want[q])
					}
					if nf := ctx.SpillFS().NumFiles(); nf != 0 {
						t.Fatalf("%q left %d spill files", q, nf)
					}
					if !strings.HasPrefix(mode.name, "fused") {
						continue
					}
					df, err := ctx.SQL(q)
					if err != nil {
						t.Fatal(err)
					}
					if plan, err := df.Explain(); err != nil || !strings.Contains(plan, "(rows transposed, table=") || strings.Contains(plan, "kernels 0/") || fusedAggregate(plan) {
						t.Errorf("%q: no aggregate over rows transposed (err %v) in\n%s", q, err, plan)
					}
				}
				if n := ctx.Metrics().Counter("memory.spill.count").Load(); budget == 1 && n == 0 {
					t.Fatalf("budget %d forced no spills", budget)
				}
			})
		}
	}
}

// TestFusedAggregateAllocs is the deterministic guard on the boundary's
// boxing: a Q2a-shaped query (cached uservisits, SUBSTR(sourceIP, 1, 8) key,
// 100 000 rows -> 73 332 groups, ~3/4 of the rows distinct) may allocate at
// most half of what the parent commit did per output group. Measured with
// this exact test body: the parent (boxed aggPartial records, GroupKey
// strings, per-record bucketize) allocated 22.28 times per output group; the
// typed block path allocates 3.41 (the decoded key strings, and each output
// row's boxed key and sum).
func TestFusedAggregateAllocs(t *testing.T) {
	const n, parentAllocsPerGroup = 100000, 22.28
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = datagen.UserVisitRow(11, int64(i), n/3)
	}
	ctx := NewContextWithConfig(fusedConfig(0, true))
	cacheTempTable(t, ctx, datagen.UserVisitsSchema(), rows, "uservisits", 0)
	const q = "SELECT SUBSTR(sourceIP, 1, 8), SUM(adRevenue) FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 8)"
	groups := len(spillCollect(t, ctx, q))
	if groups < n/2 {
		t.Fatalf("only %d groups over %d rows: not the high-cardinality Q2a shape", groups, n)
	}
	perGroup := testing.AllocsPerRun(5, func() { spillCollect(t, ctx, q) }) / float64(groups)
	t.Logf("%d groups, %.2f allocs per group", groups, perGroup)
	if perGroup > parentAllocsPerGroup/2 {
		t.Fatalf("%.2f allocations per output group, limit %.2f (half the parent's %.2f)",
			perGroup, parentAllocsPerGroup/2, parentAllocsPerGroup)
	}
}

// TestFusionExplain pins the observability contract: fused plans announce
// themselves (operator name + `fused: true`), the Fusion knob removes them,
// and EXPLAIN ANALYZE annotates the fused operators with actuals.
func TestFusionExplain(t *testing.T) {
	ctx := NewContextWithConfig(fusedConfig(0, true))
	setupFusedTables(t, ctx, cacheTempTable)

	explainIn := func(ctx *Context, q string) string {
		t.Helper()
		df, err := ctx.SQL(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		out, err := df.Explain()
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		return out
	}
	mustExplain := func(q string) string { t.Helper(); return explainIn(ctx, q) }

	agg := mustExplain("SELECT grp, count(*), sum(val) FROM events GROUP BY grp")
	if !fusedAggregate(agg) || !strings.Contains(agg, "(fused: true)") {
		t.Fatalf("aggregate plan not fused:\n%s", agg)
	}
	// The note says what actually runs: the group table and how many key /
	// aggregate-input kernels are native. A SUBSTR key is a string-lane
	// kernel; a key with no kernel is named, and its rows are counted.
	if q2 := mustExplain("SELECT substr(name, 1, 3), sum(val) FROM events GROUP BY substr(name, 1, 3)"); !strings.Contains(q2, "(fused: true, table=str, kernels 2/2 native)") {
		t.Fatalf("SUBSTR-keyed aggregate not on the native string table:\n%s", q2)
	}
	boxed := mustExplain("SELECT upper(word), sum(val) FROM events GROUP BY upper(word)")
	if !strings.Contains(boxed, "table=generic, kernels 1/2 native, fallback: upper(word#") {
		t.Fatalf("fallback key not reported by name:\n%s", boxed)
	}
	fallbackRows := ctx.Metrics().Counter("vec.fallback.rows")
	before := fallbackRows.Load()
	spillCollect(t, ctx, "SELECT upper(word), sum(val) FROM events GROUP BY upper(word)")
	if got := fallbackRows.Load() - before; got != spillRows {
		t.Fatalf("vec.fallback.rows rose by %d over a %d-row fallback key, want one count per row", got, spillRows)
	}
	spillCollect(t, ctx, "SELECT substr(name, 1, 3), sum(val) FROM events GROUP BY substr(name, 1, 3)")
	if got := fallbackRows.Load() - before; got != spillRows {
		t.Fatalf("an all-native aggregate moved vec.fallback.rows (%d)", got-spillRows)
	}

	join := mustExplain("SELECT e.name, d.label FROM events e JOIN dim d ON e.grp = d.grp")
	if !strings.Contains(join, "FusedBroadcastHashJoin Inner build=right") {
		t.Fatalf("broadcast join plan not fused:\n%s", join)
	}
	// The smaller side on the left: the join probes from the right pipeline
	// and prints its real build side, inner or outer (probeOrderQueries holds
	// both to the row join's order).
	if left := mustExplain("SELECT d.label, e.name FROM dim d JOIN events e ON d.grp = e.grp"); !strings.Contains(left, "FusedBroadcastHashJoin Inner build=left") {
		t.Fatalf("build-left inner join not fused:\n%s", left)
	}
	// Admission is "the probe side is a batch pipeline": every join type a
	// join may broadcast, a residual, and keys only the generic table or the
	// boxed fallback can serve all fuse, over the cache and over colfile.
	fusedJoins := map[string]string{
		"SELECT e.id FROM events e LEFT SEMI JOIN dim d ON e.grp = d.grp":                                            "FusedBroadcastHashJoin LeftSemi build=right keys=[grp#N]=[grp#N]  (fused: true, table=i64, kernels 1/1 native)",
		"SELECT d.label, e.name FROM dim d RIGHT JOIN events e ON d.grp = e.grp":                                     "FusedBroadcastHashJoin RightOuter build=left keys=[grp#N]=[grp#N]  (fused: true, table=i64, kernels 1/1 native)",
		"SELECT e.id, d.label FROM events e JOIN dim d ON e.grp = d.grp AND e.sub * 10 < d.grp":                      "FusedBroadcastHashJoin Inner build=right keys=[grp#N]=[grp#N]  (fused: true, table=i64, kernels 1/1 native)",
		"SELECT e.id FROM events e JOIN dimp p ON e.grp = p.grp AND e.sub = p.sub AND e.sub + e.grp = p.grp + p.sub": "  (fused: true, table=generic, kernels 3/3 native)",
		"SELECT e.id FROM events e JOIN dim d ON CAST(e.grp AS DECIMAL(10,2)) = CAST(d.grp AS DECIMAL(10,2))":        "  (fused: true, table=generic, kernels 0/1 native, fallback: CAST(grp#N AS DECIMAL(10,2)))",
		"SELECT e.name, w.wlabel FROM events e LEFT JOIN dimw w ON upper(e.word) = upper(w.word)":                    "FusedBroadcastHashJoin LeftOuter build=right keys=[upper(word#N)]=[upper(word#N)]  (fused: true, table=generic, kernels 0/1 native, fallback: upper(word#N))",
	}
	// A fused join is a batch scan to whatever sits on it: an aggregate, a
	// pipeline and another join consume its batches, fused themselves, and
	// `input not a scan` never shows over one. Each entry lists, top down, the
	// operators its physical plan must hold.
	handoffs := map[string][]string{
		"SELECT d.label, count(*) FROM events e JOIN dim d ON e.grp = d.grp GROUP BY d.label": {
			"HashAggregate keys=[label#N]", "Exchange presplit", "(fused: true, table=str, kernels 2/2 native)", "VectorizedPipeline (1 stages, 1 native)  (fused: true)", "FusedBroadcastHashJoin Inner build=right"},
		"SELECT e.id + d.grp FROM events e JOIN dim d ON e.grp = d.grp": {
			"VectorizedPipeline (1 stages, 1 native)  (fused: true)", "FusedBroadcastHashJoin Inner build=right"},
		"SELECT e.id, d.label, w.wlabel FROM events e JOIN dim d ON e.grp = d.grp LEFT JOIN dimw w ON e.word = w.word": {
			"FusedBroadcastHashJoin LeftOuter build=right keys=[word#N]=[word#N]  (fused: true, table=str, kernels 1/1 native)", "FusedBroadcastHashJoin Inner build=right keys=[grp#N]=[grp#N]"},
		"SELECT d.label, sum(e.val) AS total FROM events e JOIN dim d ON e.grp = d.grp GROUP BY d.label ORDER BY total DESC LIMIT 1": {
			"TopK n=1 [total#N DESC]", "HashAggregate keys=[label#N]", "Exchange presplit", "(fused: true", "FusedBroadcastHashJoin Inner build=right"},
	}
	// The fallbacks that remain, and the row input an aggregate transposes,
	// each with a plan shape that produces it.
	fallbacks := map[string]string{
		// an aggregate over an aggregate's row output: its phase 1 runs the
		// same sink over the rows transposed
		"SELECT a.n, count(*) FROM (SELECT grp, count(*) AS n FROM events GROUP BY grp) a GROUP BY a.n": "Exchange presplit parts=1  (rows transposed, table=i64, kernels 2/2 native)",
		// a join probing an aggregate's row output
		"SELECT a.n, d.label FROM (SELECT grp, count(*) AS n FROM events GROUP BY grp) a JOIN dim d ON a.grp = d.grp": "BroadcastHashJoin Inner build=right keys=[grp#N]=[grp#N]  (fallback: probe side not vectorized)",
		// a pipeline over a batch leaf none of whose stages has a kernel
		"SELECT upper(word) FROM events": "WholeStagePipeline (1 stages)  (fallback: no native kernels)",
		// a pipeline over a leaf that produces rows
		"SELECT id FROM plain WHERE id > 1": "  (fallback: scan not columnar)",
		// a pipeline over an operator that produces rows
		"SELECT a.n + 1 FROM (SELECT grp, count(*) AS n FROM events GROUP BY grp) a": "WholeStagePipeline (1 stages)  (fallback: input not a scan)",
	}
	exprID := regexp.MustCompile(`#\d+`)
	for _, leaf := range batchLeaves {
		lctx := NewContextWithConfig(fusedConfig(0, true))
		setupFusedTables(t, lctx, leaf.register)
		plain, err := lctx.CreateDataFrame(StructType{}.Add("id", IntType, false), []Row{{int32(1)}, {int32(2)}})
		if err != nil {
			t.Fatal(err)
		}
		plain.RegisterTempTable("plain")
		for _, pinned := range []map[string]string{fusedJoins, fallbacks} {
			for q, want := range pinned {
				if got := exprID.ReplaceAllString(explainIn(lctx, q), "#N"); !strings.Contains(got, want) {
					t.Errorf("%s: %q: plan lacks %q:\n%s", leaf.name, q, want, got)
				}
			}
		}
		for q, ops := range handoffs {
			got := exprID.ReplaceAllString(explainIn(lctx, q), "#N")
			rest := got[strings.Index(got, "== Physical Plan =="):]
			if strings.Contains(rest, "fallback:") {
				t.Errorf("%s: %q: a fallback over a fused join:\n%s", leaf.name, q, got)
			}
			for _, op := range ops {
				at := strings.Index(rest, op)
				if at < 0 {
					t.Errorf("%s: %q: plan lacks %q (or holds it out of order):\n%s", leaf.name, q, op, got)
					break
				}
				rest = rest[at+len(op):]
			}
		}
	}

	df, err := ctx.SQL("SELECT grp, count(*) FROM events WHERE id < 2000 GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	analyzed, err := df.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if !fusedAggregate(analyzed) || !strings.Contains(analyzed, "actual:") {
		t.Fatalf("EXPLAIN ANALYZE missing fused actuals:\n%s", analyzed)
	}
	// A fused join says what it handed its consumer, a top-K what it read and
	// what its heaps kept: 80 grp values, 40 of them in dim, one label each.
	for q, wants := range map[string][]string{
		"SELECT * FROM events e JOIN dim d ON e.grp = d.grp": {", emits rows"},
		"SELECT d.label, sum(e.val) AS total FROM events e JOIN dim d ON e.grp = d.grp GROUP BY d.label ORDER BY total DESC LIMIT 3": {
			", emits batches", "TopK n=3 [total#", ", 40 rows in, "},
	} {
		df, err := ctx.SQL(q)
		if err != nil {
			t.Fatal(err)
		}
		analyzed, err := df.ExplainAnalyze()
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range wants {
			if !strings.Contains(analyzed, want) {
				t.Errorf("%q: EXPLAIN ANALYZE lacks %q:\n%s", q, want, analyzed)
			}
		}
	}

	// The knob: Fusion=false keeps vectorized pipelines but no fused sinks.
	cfg := fusedConfig(0, true)
	cfg.Fusion = false
	off := NewContextWithConfig(cfg)
	setupFusedTables(t, off, cacheTempTable)
	odf, err := off.SQL("SELECT grp, count(*) FROM events GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	oout, err := odf.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(oout, "Fused") {
		t.Fatalf("Fusion=false still produced fused operators:\n%s", oout)
	}
	if !strings.Contains(oout, "VectorizedPipeline") {
		t.Fatalf("Fusion=false lost vectorization:\n%s", oout)
	}
}

// manyPartitionQueries run over `many`, a table of 300 ten-row partitions —
// the many-small-commits shape, which a batch pipeline runs as a few tasks of
// adjacent partitions — through every consumer of one: the fused aggregate on
// each group table, a fused join handing rows and handing batches, and the
// bare pipeline with and without a projection. Sums are over quarters, so no
// association of them rounds. The last five hand kernel outputs and literals
// across batch boundaries — the vectors a task's scratch lends again to the
// next batch — to each group table (computed keys), to aggregators (FIRST,
// MIN and MAX over a computed string), to a join probe (a computed key) and
// to the result edge (computed and literal columns). The last two are top-Ks
// over the pipeline, whose 10-row batches hold fewer rows than it keeps, and
// over the aggregate; their keys tie across partitions.
var manyPartitionQueries = []string{
	"SELECT g, sum(x), count(*), min(s), first(s) FROM many GROUP BY g",
	"SELECT substr(s, 1, 1), avg(x), count(DISTINCT g) FROM many GROUP BY substr(s, 1, 1)",
	"SELECT count(*), sum(x), max(s) FROM many WHERE k % 7 > 2",
	"SELECT k, s, x * 2 FROM many WHERE k % 3 = 0",
	"SELECT * FROM many WHERE x > 1",
	"SELECT m.k, m.s, d.label FROM many m JOIN fewdim d ON m.g = d.g",
	"SELECT m.k, d.label FROM many m LEFT JOIN fewdim d ON m.g = d.g AND m.x > 1 WHERE m.k % 2 = 0",
	"SELECT d.label, count(*), sum(m.x), min(m.s) FROM many m JOIN fewdim d ON m.g = d.g GROUP BY d.label",
	"SELECT substr(s, 1, 2), first(substr(s, 2, 3)), min(substr(s, 2, 3)), count(*) FROM many GROUP BY substr(s, 1, 2)",
	"SELECT g % 7, first(substr(s, 2, 3)), min(substr(s, 2, 3)), sum(x * 2) FROM many GROUP BY g % 7",
	"SELECT substr(s, 1, 2), g % 7, max(substr(s, 2, 3)), count(*) FROM many GROUP BY substr(s, 1, 2), g % 7",
	"SELECT m.k, m.s, d.label FROM many m JOIN fewdim d ON m.g + 0 = d.g WHERE m.k % 3 = 1",
	"SELECT substr(s, 2, 3), x * 2, 'lit', 7, k FROM many WHERE k % 5 > 0",
	"SELECT k, g, x FROM many WHERE k % 3 > 0 ORDER BY g DESC, x LIMIT 40",
	"SELECT g, count(*) AS n, sum(x) AS total FROM many GROUP BY g ORDER BY n DESC, total LIMIT 4",
}

// checkManyPartitions registers `many` (300 partitions) and `fewdim` behind
// register and holds the fused engine to the row engine over the same leaf,
// byte for byte and in order: as configured by default, with adaptive
// execution off, at a one-byte budget (where a broadcast join plans as a
// shuffled hash join and only its row set compares), and with a third of all
// tasks failing their first attempt.
func checkManyPartitions(t *testing.T, register tableLeaf) {
	const parts = 300
	setup := func(cfg Config) *Context {
		ctx := NewContextWithConfig(cfg)
		rows := make([]Row, 10*parts)
		for i := range rows {
			rows[i] = Row{int64(i * 7), int64(i % 10), fmt.Sprintf("%c%d", 'a'+i%7, i), float64(i%13) / 4}
		}
		register(t, ctx, StructType{}.Add("k", LongType, false).Add("g", LongType, false).Add("s", StringType, false).Add("x", DoubleType, false), rows, "many", parts)
		var dim []Row
		for g := 0; g < 7; g++ {
			dim = append(dim, Row{int64(g), fmt.Sprintf("label%d", g)})
		}
		register(t, ctx, StructType{}.Add("g", LongType, false).Add("label", StringType, false), dim, "fewdim", 1)
		ctx.SpillFS().WriteNanosPerByte = 0
		ctx.SpillFS().ReadNanosPerByte = 0
		return ctx
	}
	golden := setup(fusedConfig(0, false))
	for _, v := range []struct {
		name   string
		config func() Config
		canon  bool // joins compare as row sets
		flaky  bool
	}{
		{name: "default", config: func() Config { return fusedConfig(0, true) }},
		{name: "adaptive off", config: func() Config { cfg := fusedConfig(0, true); cfg.Adaptive = false; return cfg }},
		{name: "budget=1", config: func() Config { return fusedConfig(1, true) }, canon: true},
		{name: "task failures", config: func() Config { return fusedConfig(0, true) }, flaky: true},
	} {
		t.Run(v.name, func(t *testing.T) {
			if v.canon && testing.Short() {
				t.Skip("one-byte budget spills per row; skipped in -short")
			}
			ctx := setup(v.config())
			if v.flaky {
				rc := ctx.RDDContext()
				rc.SetBackoff(time.Microsecond, 10*time.Microsecond)
				rc.SetFailureHook(func(name string, p, attempt int) error {
					if attempt == 1 && (len(name)+p)%3 == 0 {
						return fmt.Errorf("injected failure of %s[%d]", name, p)
					}
					return nil
				})
			}
			tasks, coalesced := ctx.Metrics().Counter("rdd.tasks.run"), ctx.Metrics().Counter("scan.partitions.coalesced")
			for i, q := range manyPartitionQueries {
				ran, cut := tasks.Load(), coalesced.Load()
				got, want := spillCollect(t, ctx, q), spillCollect(t, golden, q)
				text, replanned := rowsText, v.canon && strings.Contains(q, "JOIN")
				if replanned {
					text = canonText
				}
				if text(got) != text(want) {
					t.Errorf("%q diverged from the row path:\n got %.300q\nwant %.300q", q, text(got), text(want))
				}
				if cut == coalesced.Load() && !replanned { // a shuffled join may have no batch pipeline under it
					t.Errorf("%q: a 300-partition leaf was not cut into runs", q)
				}
				// The first query is one leaf stage and one reduce stage on 4
				// slots: a handful of tasks, where the row engine runs 304.
				if ran = tasks.Load() - ran; i == 0 && !v.flaky && ran > 2*4+2 {
					t.Errorf("%q ran %d tasks, want at most 10", q, ran)
				}
			}
			if v.flaky && ctx.RDDContext().TaskRetries() == 0 {
				t.Fatal("no task attempt failed: the schedule injected nothing")
			}
			if v.name != "default" {
				return
			}
			df, err := ctx.SQL(manyPartitionQueries[0])
			if err != nil {
				t.Fatal(err)
			}
			analyzed, err := df.ExplainAnalyze()
			if err != nil {
				t.Fatal(err)
			}
			if !regexp.MustCompile(`Scan InMemoryColumnar .*tasks: 300 partitions in [4-6] runs`).MatchString(analyzed) {
				t.Fatalf("EXPLAIN ANALYZE does not show the leaf's task runs:\n%s", analyzed)
			}
			events := ctx.EventLog().Events()
			if stages := events[len(events)-1].Stages; len(stages) == 0 || stages[0].Tasks < 4 || stages[0].Tasks > 6 {
				t.Fatalf("event log stages %+v: want the leaf stage's run count", stages)
			}
		})
	}
}

// A cached table of 300 partitions equals the row path through every batch
// consumer, run as a few tasks.
func TestFusedManyPartitions(t *testing.T) { checkManyPartitions(t, cacheTempTable) }
