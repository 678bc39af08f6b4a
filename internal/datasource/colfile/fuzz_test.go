package colfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"repro/internal/datasource"
	"repro/internal/expr"
	"repro/internal/row"
	"repro/internal/types"
)

// sectionWriter records the offset at which every write ends; writeAll
// issues one write per encoded field, so those are the section boundaries.
type sectionWriter struct {
	buf  bytes.Buffer
	ends []int
}

func (w *sectionWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	w.ends = append(w.ends, w.buf.Len())
	return len(p), nil
}

// encode is Write into memory: the file image and its section boundaries.
func encode(t testing.TB, schema types.StructType, rows []row.Row, rowGroupSize int) ([]byte, []int) {
	t.Helper()
	var w sectionWriter
	if err := writeAll(&w, schema, rows, rowGroupSize); err != nil {
		t.Fatal(err)
	}
	return w.buf.Bytes(), w.ends
}

// fuzzSchema adds a TIMESTAMP to testSchema, so every type tag is covered.
func fuzzSchema() types.StructType { return testSchema().Add("ts", types.Timestamp, true) }

func fuzzRows(rng *rand.Rand, n int) []row.Row {
	rows := randomRows(rng, n)
	specials := []any{math.NaN(), math.Copysign(0, -1), math.Inf(1), nil}
	for i, r := range rows {
		rows[i] = append(r, int64(rng.Intn(1_000_000)))
		if i%5 == 0 {
			rows[i][3] = specials[(i/5)%len(specials)]
		}
		if i < n/3 {
			rows[i][1] = nil // whole chunks of "i" come out all NULL
		}
	}
	return rows
}

// referenceScan is the scan as it was first written, kept as the oracle the
// batch scan is compared against: skip the groups the statistics rule out
// (they may lie in a hostile file, so the oracle must trust them as well),
// box every value of every needed chunk, then test each row with
// Filter.Matches.
func referenceScan(rel *Relation, columns []string, filters []datasource.Filter) [][]row.Row {
	decode := func(g *rowGroup, j int) []any {
		c, t := &g.chunks[j], rel.schema.Fields[j].Type
		out := make([]any, g.numRows)
		r := &reader{data: c.data}
		for i := range out {
			if c.valid(i) {
				out[i] = r.value(t)
			}
		}
		return out
	}
	parts := make([][]row.Row, len(rel.groups))
	ords := make([]int, len(filters))
	for i, f := range filters {
		ords[i] = rel.schema.FieldIndex(f.Attribute())
	}
groups:
	for p := range rel.groups {
		g := &rel.groups[p]
		for i, f := range filters {
			if c := &g.chunks[ords[i]]; !datasource.MayMatch(f, c.mn, c.mx) {
				continue groups
			}
		}
		cols := make(map[string][]any)
		for _, name := range columns {
			cols[name] = decode(g, rel.schema.FieldIndex(name))
		}
		for _, f := range filters {
			cols[f.Attribute()] = decode(g, rel.schema.FieldIndex(f.Attribute()))
		}
	rows:
		for i := 0; i < g.numRows; i++ {
			for _, f := range filters {
				if !f.Matches(cols[f.Attribute()][i]) {
					continue rows
				}
			}
			r := make(row.Row, len(columns))
			for k, name := range columns {
				r[k] = cols[name][i]
			}
			parts[p] = append(parts[p], r)
		}
	}
	return parts
}

// filtersOver builds one filter of every kind the column's type admits,
// around a value the column may well hold.
func filtersOver(f types.StructField) []datasource.Filter {
	var v any
	switch {
	case f.Type.Equals(types.Boolean):
		return []datasource.Filter{datasource.IsNotNull{Col: f.Name}, datasource.EqualTo{Col: f.Name, Value: true}}
	case f.Type.Equals(types.Int):
		v = int32(500)
	case f.Type.Equals(types.Date):
		v = int32(16350)
	case f.Type.Equals(types.Long), f.Type.Equals(types.Timestamp):
		v = int64(50000)
	case f.Type.Equals(types.Double):
		v = 50.0
	default:
		return []datasource.Filter{
			datasource.IsNotNull{Col: f.Name},
			datasource.EqualTo{Col: f.Name, Value: "x"},
			datasource.GreaterThan{Col: f.Name, Value: "hello"},
			datasource.In{Col: f.Name, Values: []any{"", "çüé"}},
			datasource.StringStartsWith{Col: f.Name, Prefix: "hel"},
		}
	}
	return []datasource.Filter{
		datasource.IsNotNull{Col: f.Name},
		datasource.EqualTo{Col: f.Name, Value: v},
		datasource.GreaterThan{Col: f.Name, Value: v},
		datasource.GreaterOrEqual{Col: f.Name, Value: v},
		datasource.LessThan{Col: f.Name, Value: v},
		datasource.LessOrEqual{Col: f.Name, Value: v},
		datasource.In{Col: f.Name, Values: []any{v}},
	}
}

// sameRows compares partitions cell by cell, telling -0.0 from 0.0.
func sameRows(t *testing.T, what string, got, want [][]row.Row) {
	t.Helper()
	for p := range want {
		if len(got[p]) != len(want[p]) {
			t.Fatalf("%s: partition %d has %d rows, want %d", what, p, len(got[p]), len(want[p]))
		}
		for i, w := range want[p] {
			for j := range w {
				g := got[p][i][j]
				if gf, ok := g.(float64); ok {
					if wf, ok := w[j].(float64); ok && math.Float64bits(gf) == math.Float64bits(wf) {
						continue
					}
				}
				if !row.Equal(g, w[j]) || g == nil != (w[j] == nil) {
					t.Fatalf("%s: partition %d row %d col %d = %v (%T), want %v (%T)", what, p, i, j, g, g, w[j], w[j])
				}
			}
		}
	}
}

// checkScan drives the batch scan and the row scan over rel for one
// projection and filter set and holds both to the reference scan. The batch
// scan must answer under the dense contract: a batch is its group's survivors
// and nothing else — lanes and NULL bits as long as the selection, which is
// the identity — and the statistics account for every row of the group.
func checkScan(t *testing.T, rel *Relation, columns []string, filters []datasource.Filter) {
	t.Helper()
	want := referenceScan(rel, columns, filters)
	batches, err := rel.ScanColumnar(columns, filters)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := rel.ScanPrunedFiltered(columns, filters)
	if err != nil {
		t.Fatal(err)
	}
	if batches.NumPartitions != len(want) || rows.NumPartitions != len(want) {
		t.Fatalf("%d batch and %d row partitions, want %d", batches.NumPartitions, rows.NumPartitions, len(want))
	}
	boxed, fromRows := make([][]row.Row, len(want)), make([][]row.Row, len(want))
	for p := range want {
		part, stats := batches.Partition(p)
		for _, b := range part {
			if b.N != len(want[p]) || len(b.Sel) != b.N || len(b.Cols) != len(columns) {
				t.Fatalf("%v: batch of %d rows, %d selected, %d columns; want %d, %d and %d", filters, b.N, len(b.Sel), len(b.Cols), len(want[p]), len(want[p]), len(columns))
			}
			for j, c := range b.Cols {
				if b.N > 0 && c.Len() != b.N {
					t.Fatalf("%v: column %s is %d long in a batch of %d survivors", filters, columns[j], c.Len(), b.N)
				}
			}
			for o, i := range b.Sel {
				if int(i) != o {
					t.Fatalf("%v: selection[%d] = %d in a dense batch", filters, o, i)
				}
				r := make(row.Row, len(b.Cols))
				for j, c := range b.Cols {
					r[j] = c.Get(o)
				}
				boxed[p] = append(boxed[p], r)
			}
		}
		read := rel.groups[p].numRows * len(part)
		if len(part)+stats.GroupsSkipped != 1 || stats.RowsRead != read || stats.RowsPruned != read-len(boxed[p]) {
			t.Fatalf("%v: partition %d of %d rows reports %d batches, %+v; %d rows survive", filters, p, rel.groups[p].numRows, len(part), stats, len(boxed[p]))
		}
		fromRows[p] = rows.Partition(p)
	}
	sameRows(t, fmt.Sprint("batch scan ", columns, filters), boxed, want)
	sameRows(t, fmt.Sprint("row scan ", columns, filters), fromRows, want)
}

// checkScans runs checkScan over rel: all columns unfiltered, then every
// filter kind on every column with that column left out of the projection,
// several filters on one projected column, and filters on two columns.
func checkScans(t *testing.T, rel *Relation) {
	t.Helper()
	all := rel.schema.FieldNames()
	checkScan(t, rel, all, nil)
	var prev []datasource.Filter
	for j, f := range rel.schema.Fields {
		if rel.schema.FieldIndex(f.Name) != j {
			continue // a hostile schema repeated a name; names resolve to the first
		}
		others := append(append([]string{}, all[:j]...), all[j+1:]...)
		fs := filtersOver(f)
		for _, filter := range fs {
			checkScan(t, rel, others, []datasource.Filter{filter})
		}
		checkScan(t, rel, all, fs[:min(3, len(fs))]) // several filters on one projected column
		if prev != nil {                             // two columns: one projected, one not
			checkScan(t, rel, others, []datasource.Filter{prev[0], fs[len(fs)-1]})
		}
		prev = fs
	}
}

// FuzzOpen feeds Open arbitrary bytes. A file either is rejected with an
// error or opens into a relation whose batch scan, row scan and typed
// readers run without panicking and agree with the reference scan.
func FuzzOpen(f *testing.F) {
	rng := rand.New(rand.NewSource(15))
	for _, c := range []struct{ rows, group int }{{0, 4}, {1, 1}, {9, 4}, {64, 16}} {
		image, ends := encode(f, fuzzSchema(), fuzzRows(rng, c.rows), c.group)
		f.Add(image)
		for _, end := range ends[:len(ends)-1] {
			f.Add(image[:end])
		}
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		rel, err := openImage("fuzz", image)
		if err != nil {
			if msg := err.Error(); !strings.Contains(msg, "corrupt file") && !strings.Contains(msg, "not a columnar file") {
				t.Fatalf("unexpected kind of error: %v", err)
			}
			return
		}
		rows := 0
		for i := range rel.groups {
			rows += rel.groups[i].numRows
		}
		if rows > 1<<16 {
			t.Skip("opens, but too many rows to scan under every filter in a fuzz iteration")
		}
		checkScans(t, rel)
		for j, f := range rel.schema.Fields {
			switch {
			case rel.schema.FieldIndex(f.Name) != j: // a repeated name
			case f.Type.Equals(types.Int), f.Type.Equals(types.Date):
				_, _, err = rel.Int32Column(f.Name)
			case f.Type.Equals(types.Double):
				_, _, err = rel.Float64Column(f.Name)
			case f.Type.Equals(types.String):
				_, _, err = rel.StringColumn(f.Name)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestScansMatchReference is FuzzOpen's property on files big enough to
// have NULL-free, mixed and all-NULL chunks, groups a filter empties and
// groups the statistics skip — and then, over a file with a nullable column
// of every type, every shape a selection takes against the 64-row words of a
// NULL bitmap, with the filter columns in and out of the projection.
func TestScansMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, c := range []struct{ rows, group int }{{0, 8}, {700, 64}, {257, 1000}} {
		image, _ := encode(t, fuzzSchema(), fuzzRows(rng, c.rows), c.group)
		rel, err := openImage("test", image)
		if err != nil {
			t.Fatal(err)
		}
		checkScans(t, rel)
	}

	// at is twice the row's position in its group, so an odd value is in range
	// of the statistics and absent; null marks the rows whose every typed cell
	// is NULL. Groups of 200 rows have three full NULL words and a partial one;
	// the last group is shorter.
	const rows, group = 700, 200
	schema := fuzzSchema().Add("at", types.Int, false).Add("null", types.Int, false)
	data := fuzzRows(rng, rows)
	for i, r := range data {
		null := int32(0)
		if i%7 == 3 {
			clear(r)
			null = 1
		}
		data[i] = append(r, int32(2*(i%group)), null)
	}
	image, _ := encode(t, schema, data, group)
	rel, err := openImage("selections", image)
	if err != nil {
		t.Fatal(err)
	}
	at := func(v int) any { return int32(2 * v) }
	var alternate []any
	for i := 0; i < group; i += 2 {
		alternate = append(alternate, at(i))
	}
	selections := map[string][]datasource.Filter{
		"none":             {datasource.EqualTo{Col: "at", Value: int32(11)}},
		"one row":          {datasource.EqualTo{Col: "at", Value: at(5)}},
		"every other row":  {datasource.In{Col: "at", Values: alternate}},
		"all rows":         {datasource.GreaterOrEqual{Col: "at", Value: at(0)}},
		"only NULL rows":   {datasource.EqualTo{Col: "null", Value: int32(1)}},
		"across a word":    {datasource.GreaterOrEqual{Col: "at", Value: at(60)}, datasource.LessOrEqual{Col: "at", Value: at(70)}},
		"last row":         {datasource.In{Col: "at", Values: []any{at(group - 1), at((rows - 1) % group)}}},
		"NULL rows' tail":  {datasource.EqualTo{Col: "null", Value: int32(1)}, datasource.GreaterThan{Col: "at", Value: at(128)}},
		"a typed column's": {datasource.LessThan{Col: "at", Value: at(66)}, datasource.IsNotNull{Col: "s"}},
	}
	typed := fuzzSchema().FieldNames()
	for name, filters := range selections {
		t.Run(name, func(t *testing.T) {
			checkScan(t, rel, typed, filters)                   // filter columns not requested
			checkScan(t, rel, rel.schema.FieldNames(), filters) // and requested
			// a second filter on the same column, then one on another column
			checkScan(t, rel, typed, append(filters[:len(filters):len(filters)], datasource.GreaterOrEqual{Col: filters[0].Attribute(), Value: int32(0)}))
			checkScan(t, rel, append(typed[:len(typed):len(typed)], "null"), append(filters[:len(filters):len(filters)], datasource.LessOrEqual{Col: "null", Value: int32(1)}, datasource.IsNotNull{Col: "ts"}))
		})
	}
}

// TestOpenTruncated: every proper prefix of a valid file is a corrupt file,
// not a panic and not a relation.
func TestOpenTruncated(t *testing.T) {
	image, _ := encode(t, fuzzSchema(), fuzzRows(rand.New(rand.NewSource(17)), 40), 16)
	for n := range image {
		if _, err := openImage("truncated", image[:n]); err == nil {
			t.Fatalf("the first %d of %d bytes opened", n, len(image))
		}
	}
	if _, err := openImage("whole", image); err != nil {
		t.Fatal(err)
	}
}

// TestOpenHostileCounts: a few bytes that claim 2^32-1 fields, groups, rows
// or string bytes are rejected as corrupt before anything is sized by them.
func TestOpenHostileCounts(t *testing.T) {
	const huge = math.MaxUint32
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	oneField := bytes.Join([][]byte{magic[:], u32(1), u32(1), []byte("s"), {tagString, 1}}, nil)
	cases := map[string][]byte{
		"fields":      bytes.Join([][]byte{magic[:], u32(huge), make([]byte, 12)}, nil),
		"name length": bytes.Join([][]byte{magic[:], u32(1), u32(huge), make([]byte, 12)}, nil),
		"groups":      bytes.Join([][]byte{oneField, u32(huge), make([]byte, 12)}, nil),
		"rows":        bytes.Join([][]byte{oneField, u32(1), u32(huge), make([]byte, 12)}, nil),
		// One non-NULL string row whose length prefix overruns the file.
		"string length": bytes.Join([][]byte{oneField, u32(1), u32(1), {1, 0, 0}, u32(huge), make([]byte, 12)}, nil),
		// 64 rows, none NULL, but no value bytes behind the bitmap.
		"values": bytes.Join([][]byte{oneField, u32(1), u32(64), bytes.Repeat([]byte{0xff}, 8), {0, 0}}, nil),
		// 2^15 non-NULL strings with room for 2^10 length prefixes: the
		// offset index would be 128 KiB.
		"string index": bytes.Join([][]byte{oneField, u32(1), u32(1 << 15), bytes.Repeat([]byte{0xff}, 1<<12), {0, 0}, make([]byte, 1<<12)}, nil),
	}
	for name, image := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := openImage(name, image)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "corrupt file") {
			t.Errorf("oversized %s: err = %v, want a corrupt-file error", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("oversized %s: rejecting a %d-byte file allocated %d bytes", name, len(image), grew)
		}
	}
}

// TestStringChunkLimit: a STRING chunk whose value block would not fit the
// 32-bit offset index is refused by Write and by Open, each naming the file;
// one at the limit opens and scans.
func TestStringChunkLimit(t *testing.T) {
	// 4 096 rows of one shared 1 MiB string: a 4 GiB chunk, 1 MiB of memory.
	big := strings.Repeat("x", 1<<20)
	rows := make([]row.Row, 4096)
	for i := range rows {
		rows[i] = row.Row{big}
	}
	schema := types.StructType{}.Add("s", types.String, false)
	path := filepath.Join(t.TempDir(), "big.gcf")
	if err := Write(path, schema, rows, len(rows)); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("writing a 4 GiB string chunk: err = %v, want an error naming %s", err, path)
	}

	// Open's check, with the limit lowered to a chunk of two 10-byte values.
	image, _ := encode(t, schema, []row.Row{{"012345"}, {"abcdef"}}, 2)
	defer func(limit int64) { maxStringChunk = limit }(maxStringChunk)
	maxStringChunk = 20
	rel, err := openImage("at-limit.gcf", image)
	if err != nil {
		t.Fatalf("a chunk at the limit: %v", err)
	}
	if got := scanAll(t, rel, []string{"s"}, nil); len(got) != 2 || got[0][0] != "012345" || got[1][0] != "abcdef" {
		t.Fatalf("a chunk at the limit scans as %v", got)
	}
	maxStringChunk = 19
	if _, err := openImage("over-limit.gcf", image); err == nil || !strings.Contains(err.Error(), "over-limit.gcf") {
		t.Fatalf("a chunk over the limit: err = %v, want an error naming the file", err)
	}
}

// survivorsFile is one group of n rows (k INT, s STRING, both NULL-free) of
// which the filter k = 0 keeps every every-th.
func survivorsFile(t testing.TB, n, every int) (*Relation, []row.Row, []datasource.Filter) {
	t.Helper()
	schema := types.StructType{}.Add("k", types.Int, false).Add("s", types.String, false)
	rows := make([]row.Row, n)
	for i := range rows {
		rows[i] = row.Row{int32(i % every), strings.Repeat("v", 1+i%9)}
	}
	image, _ := encode(t, schema, rows, n)
	rel, err := openImage("test", image)
	if err != nil {
		t.Fatal(err)
	}
	return rel, rows, []datasource.Filter{datasource.EqualTo{Col: "k", Value: int32(0)}}
}

// TestBatchScanMaterialisesSurvivorsOnly: what a filtered partition hands over
// is as long as its survivors, and what it allocates is a constant plus a few
// bytes per survivor — whatever the number of rows it read, because the lanes
// the filter ran over and the selections it cut are the scan's to reuse.
func TestBatchScanMaterialisesSurvivorsOnly(t *testing.T) {
	const survivors = 256
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the scan's scratch pool
	for _, n := range []int{4096, 16384} {
		rel, rows, filters := survivorsFile(t, n, n/survivors)
		scan, err := rel.ScanColumnar([]string{"s", "k"}, filters)
		if err != nil {
			t.Fatal(err)
		}
		batches, _ := scan.Partition(0)
		b := batches[0]
		if b.N != survivors || len(b.Sel) != survivors || len(b.Cols[0].Str) != survivors || len(b.Cols[1].I64) != survivors {
			t.Fatalf("%d rows, %d selected, lanes of %d and %d; want %d survivors of %d rows throughout",
				b.N, len(b.Sel), len(b.Cols[0].Str), len(b.Cols[1].I64), survivors, n)
		}
		for o, s := range b.Cols[0].Str {
			if want := rows[o*(n/survivors)]; s != want[1] || b.Cols[1].I64[o] != 0 {
				t.Fatalf("survivor %d decoded as (%q, %d), want %v", o, s, b.Cols[1].I64[o], want)
			}
		}
		// The least of a few calls: under the race detector a sync.Pool drops
		// some of what is put back, and that call decodes into fresh scratch.
		grew := uint64(math.MaxUint64)
		for range 10 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			scan.Partition(0)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		// A string header and an int64 per survivor, two vectors, the batch.
		if bound := uint64(2048 + 32*survivors); grew > bound {
			t.Errorf("a partition of %d rows and %d survivors allocated %d bytes, want at most %d", n, survivors, grew, bound)
		}
		// Lanes, vectors, the batch header: nowhere near one per survivor.
		if allocs, bound := testing.AllocsPerRun(20, func() { scan.Partition(0) }), float64(survivors)/8; allocs > bound {
			t.Errorf("%v allocations for one partition of %d rows and %d survivors, want at most %v", allocs, n, survivors, bound)
		}
	}
}

// TestBatchScanScratchStaysBehind: a batch is not the scan's scratch. Partition
// 0's batch is kept while two goroutines run every other partition — decoding
// into, and cutting selections from, whatever partition 0 left behind — and
// still holds, cell by cell, the rows ApplyFilters keeps.
func TestBatchScanScratchStaysBehind(t *testing.T) {
	const group = 128
	rows := fuzzRows(rand.New(rand.NewSource(18)), 20*group-40) // a short last group
	for i, r := range rows {
		if r[2] == nil {
			r[2] = int64(i) // "l" is NULL-free: no NULL bit stands in for a missing value
		}
	}
	image, _ := encode(t, fuzzSchema(), rows, group)
	rel, err := openImage("test", image)
	if err != nil {
		t.Fatal(err)
	}
	// Filter columns requested (gathered from scratch) and a NULL-bearing
	// column no filter reads; "when" is NULL in some rows, so its filter drops them.
	columns := rel.schema.FieldNames()
	filters := []datasource.Filter{datasource.GreaterThan{Col: "l", Value: int64(20000)}, datasource.GreaterOrEqual{Col: "when", Value: int32(16100)}, datasource.IsNotNull{Col: "s"}}
	scan, err := rel.ScanColumnar(columns, filters)
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := scan.Partition(0)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 1 + w; p < scan.NumPartitions; p += 2 {
				scan.Partition(p)
				scan.Partition(p) // again, into the scratch the first call left
			}
		}()
	}
	wg.Wait()
	var want []row.Row
	for _, r := range rows[:group] {
		if datasource.ApplyFilters(filters, rel.schema, r) {
			want = append(want, r)
		}
	}
	if len(want) == 0 || len(want) == group {
		t.Fatalf("the filters keep %d of %d rows: not a selection", len(want), group)
	}
	a := expr.Arena{N: len(kept[0].Sel), W: len(kept[0].Cols)}
	a.Cells = make([]any, a.N*a.W)
	expr.BoxValues(kept[0].Cols, kept[0].Sel, a.Cells)
	got := expr.CutRows([]expr.Arena{a})
	sameRows(t, "partition 0, after the others ran", [][]row.Row{got}, [][]row.Row{want})

	// The scratch outlives the scan. One of another shape — its filter boxed,
	// so it reads a row across every position, over lanes a shorter group of
	// other columns was last decoded into — sees only what it decoded itself.
	scan.Partition(scan.NumPartitions - 1)
	checkScan(t, rel, []string{"i", "d", "ts", "when", "l"}, []datasource.Filter{datasource.EqualTo{Col: "flag", Value: true}})
}

// TestPushedFilterKernels pins, for every filter kind over every stored type,
// whether the scan evaluates it on the typed lane or boxes each row for the
// scalar predicate. A pair that moves to the boxed side is a slowdown nobody
// asked for; one that moves off it should shrink the list here.
func TestPushedFilterKernels(t *testing.T) {
	boxed := map[string]bool{
		"BOOLEAN =": true, "BOOLEAN >": true, "BOOLEAN >=": true, "BOOLEAN <": true, "BOOLEAN <=": true, "BOOLEAN IN": true,
		"DOUBLE IN": true,
	}
	rows := fuzzRows(rand.New(rand.NewSource(19)), 64)
	image, _ := encode(t, fuzzSchema(), rows, 64)
	rel, err := openImage("test", image)
	if err != nil {
		t.Fatal(err)
	}
	for j, f := range rel.schema.Fields {
		lo, hi := rel.groups[0].chunks[j].mn, rel.groups[0].chunks[j].mx // no statistic rules these out
		kinds := map[string]datasource.Filter{
			"=":           datasource.EqualTo{Col: f.Name, Value: lo},
			">":           datasource.GreaterThan{Col: f.Name, Value: lo},
			">=":          datasource.GreaterOrEqual{Col: f.Name, Value: lo},
			"<":           datasource.LessThan{Col: f.Name, Value: hi},
			"<=":          datasource.LessOrEqual{Col: f.Name, Value: hi},
			"IN":          datasource.In{Col: f.Name, Values: []any{hi}},
			"IS NOT NULL": datasource.IsNotNull{Col: f.Name},
		}
		if f.Type.Equals(types.String) {
			kinds["LIKE"] = datasource.StringStartsWith{Col: f.Name, Prefix: "h"}
		}
		for kind, filter := range kinds {
			scan, err := rel.ScanColumnar(nil, []datasource.Filter{filter})
			if err != nil {
				t.Fatal(err)
			}
			_, stats := scan.Partition(0)
			if stats.GroupsSkipped > 0 {
				t.Fatalf("%s: the statistics skipped the group, nothing was tested", filter)
			}
			pair := f.Type.Name() + " " + kind
			if got := stats.FallbackRows > 0; got != boxed[pair] {
				t.Errorf("%s: boxed = %v (%d of %d rows), pinned as %v", pair, got, stats.FallbackRows, stats.RowsRead, boxed[pair])
			}
			delete(boxed, pair)
		}
	}
	for pair := range boxed {
		t.Errorf("%s is pinned as boxed and was never tested", pair)
	}
}

// BenchmarkColfileScan is one partition of a filtered batch scan at the
// selectivities between "almost nothing survives" and "everything does", with
// and without a string column beside the filtered one. B/survivor is what a
// row that passes costs to hand over.
func BenchmarkColfileScan(b *testing.B) {
	const n = 1 << 14
	for _, c := range []struct {
		name  string
		every int
	}{{"0.1%", 1024}, {"9%", 11}, {"50%", 2}, {"100%", 1}} {
		for _, columns := range [][]string{{"k"}, {"k", "s"}} {
			b.Run(fmt.Sprintf("%s/%d cols", c.name, len(columns)), func(b *testing.B) {
				rel, _, filters := survivorsFile(b, n, c.every)
				scan, err := rel.ScanColumnar(columns, filters)
				if err != nil {
					b.Fatal(err)
				}
				survivors := 0
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					batches, _ := scan.Partition(0)
					survivors += batches[0].N
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(survivors), "B/survivor")
			})
		}
	}
}
