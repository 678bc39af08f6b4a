package colfile

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datasource"
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

// checkScans drives the batch scan and the row scan over rel and holds both
// to the reference scan: all columns unfiltered, then every filter kind on
// every column with that column left out of the projection.
func checkScans(t *testing.T, rel *Relation) {
	t.Helper()
	all := rel.schema.FieldNames()
	check := func(columns []string, filters []datasource.Filter) {
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
				if b.N != rel.groups[p].numRows || len(b.Cols) != len(columns) {
					t.Fatalf("batch of %d rows and %d columns, want %d and %d", b.N, len(b.Cols), rel.groups[p].numRows, len(columns))
				}
				for _, i := range b.Sel {
					r := make(row.Row, len(b.Cols))
					for j, c := range b.Cols {
						r[j] = c.Get(int(i))
					}
					boxed[p] = append(boxed[p], r)
				}
			}
			if len(part)+stats.GroupsSkipped != 1 || stats.GroupsSkipped == 0 && stats.RowsPruned != rel.groups[p].numRows-len(boxed[p]) {
				t.Fatalf("partition %d reports %d rows pruned, dropped %d", p, stats.RowsPruned, rel.groups[p].numRows-len(boxed[p]))
			}
			fromRows[p] = rows.Partition(p)
		}
		sameRows(t, "batch scan", boxed, want)
		sameRows(t, "row scan", fromRows, want)
	}
	check(all, nil)
	for j, f := range rel.schema.Fields {
		if rel.schema.FieldIndex(f.Name) != j {
			continue // a hostile schema repeated a name; names resolve to the first
		}
		others := append(append([]string{}, all[:j]...), all[j+1:]...)
		fs := filtersOver(f)
		for _, filter := range fs {
			check(others, []datasource.Filter{filter})
		}
		check(all, fs[:min(3, len(fs))]) // several filters on one projected column
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
// groups the statistics skip.
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

// TestBatchScanMaterialisesSurvivorsOnly: a string column that no filter
// names is decoded at the surviving positions and nowhere else, and the
// partition's allocations are its lanes and vectors — a constant, not a
// count of rows, decoded or surviving.
func TestBatchScanMaterialisesSurvivorsOnly(t *testing.T) {
	const n, every = 4096, 16
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
	scan, err := rel.ScanColumnar([]string{"s"}, []datasource.Filter{datasource.EqualTo{Col: "k", Value: int32(3)}})
	if err != nil {
		t.Fatal(err)
	}
	batches, _ := scan.Partition(0)
	sel := batches[0].Sel
	survivors, next := len(sel), 0
	for i, s := range batches[0].Cols[0].Str {
		if next < len(sel) && int(sel[next]) == i {
			if s != rows[i][1] {
				t.Fatalf("survivor %d decoded as %q, want %q", i, s, rows[i][1])
			}
			next++
		} else if s != "" {
			t.Fatalf("row %d failed the filter but its string was materialised: %q", i, s)
		}
	}
	if survivors != n/every {
		t.Fatalf("%d survivors, want %d", survivors, n/every)
	}
	allocs := testing.AllocsPerRun(20, func() { scan.Partition(0) })
	// Two lanes, two vectors, the batch header, the filter's constant and
	// selection: nowhere near one per survivor, let alone one per row.
	if bound := float64(survivors) / 8; allocs > bound {
		t.Fatalf("%v allocations for one partition of %d rows and %d survivors, want at most %v", allocs, n, survivors, bound)
	}
}
