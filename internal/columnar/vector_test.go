package columnar

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/row"
	"repro/internal/stats"
	"repro/internal/types"
)

// decodeCheck decodes every batch of a one-column table through one Decoder,
// as a task does, and asserts each vector agrees exactly with the
// row-at-a-time Get(i) path. It returns the
// set of encodings exercised, so tests can assert the intended encoding was
// actually chosen.
func decodeCheck(t *testing.T, dt types.DataType, rows []row.Row, batchSize int) map[string]bool {
	t.Helper()
	schema := types.StructType{}.Add("c", dt, true)
	table := BuildTable(schema, [][]row.Row{rows}, batchSize)
	encodings := map[string]bool{}
	base := 0
	var d Decoder
	for _, b := range table.Partitions[0] {
		col := b.Cols[0]
		encodings[col.Encoding()] = true
		v := d.Decode(b, []types.DataType{dt}, []int{0})[0]
		if v.Len() != b.NumRows {
			t.Fatalf("%s %s: vector len %d, want %d", dt, col.Encoding(), v.Len(), b.NumRows)
		}
		for i := 0; i < b.NumRows; i++ {
			want := col.Get(i)
			got := v.Get(i)
			if !row.Equal(got, want) {
				t.Fatalf("%s %s row %d: vector %v (%T), Get %v (%T)",
					dt, col.Encoding(), base+i, got, got, want, want)
			}
			if (want == nil) != v.IsNull(i) {
				t.Fatalf("%s %s row %d: IsNull=%v, Get=%v", dt, col.Encoding(), base+i, v.IsNull(i), want)
			}
		}
		base += b.NumRows
	}
	return encodings
}

func withNulls(rows []row.Row, every int) []row.Row {
	out := make([]row.Row, len(rows))
	for i, r := range rows {
		if i%every == 0 {
			out[i] = row.Row{nil}
		} else {
			out[i] = r
		}
	}
	return out
}

func TestDecodePlainLong(t *testing.T) {
	rows := make([]row.Row, 500)
	for i := range rows {
		rows[i] = row.Row{int64(i*7919 - 250)}
	}
	enc := decodeCheck(t, types.Long, rows, 128)
	if !enc["PLAIN"] {
		t.Fatalf("expected PLAIN, got %v", enc)
	}
	decodeCheck(t, types.Long, withNulls(rows, 5), 128)
}

func TestDecodePlainIntNarrow(t *testing.T) {
	rows := make([]row.Row, 300)
	for i := range rows {
		rows[i] = row.Row{int32(i * 31)}
	}
	decodeCheck(t, types.Int, rows, 64)
	decodeCheck(t, types.Int, withNulls(rows, 3), 64)
}

func TestDecodePlainDouble(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := make([]row.Row, 400)
	for i := range rows {
		rows[i] = row.Row{rng.NormFloat64()}
	}
	enc := decodeCheck(t, types.Double, rows, 100)
	if !enc["PLAIN"] {
		t.Fatalf("expected PLAIN, got %v", enc)
	}
	decodeCheck(t, types.Double, withNulls(rows, 4), 100)
}

func TestDecodeBitpackBool(t *testing.T) {
	rows := make([]row.Row, 333)
	for i := range rows {
		rows[i] = row.Row{i%3 == 0}
	}
	enc := decodeCheck(t, types.Boolean, rows, 70)
	if !enc["BITPACK"] {
		t.Fatalf("expected BITPACK, got %v", enc)
	}
	decodeCheck(t, types.Boolean, withNulls(rows, 7), 70)
}

func TestDecodeDictString(t *testing.T) {
	words := []string{"USA-padded-out", "FRA-padded-out", "DEU-padded-out", "JPN-padded-out"}
	rows := make([]row.Row, 1000)
	for i := range rows {
		rows[i] = row.Row{words[(i*13)%len(words)]}
	}
	enc := decodeCheck(t, types.String, rows, 0)
	if !enc["DICT"] {
		t.Fatalf("expected DICT, got %v", enc)
	}
	decodeCheck(t, types.String, withNulls(rows, 9), 0)
}

func TestDecodeDictLong(t *testing.T) {
	rows := make([]row.Row, 1000)
	for i := range rows {
		rows[i] = row.Row{int64((i * 7) % 5)}
	}
	enc := decodeCheck(t, types.Long, rows, 0)
	if !enc["DICT"] && !enc["RLE"] {
		t.Fatalf("expected compressed encoding, got %v", enc)
	}
	decodeCheck(t, types.Long, withNulls(rows, 6), 0)
}

func TestDecodeRLE(t *testing.T) {
	rows := make([]row.Row, 1000)
	for i := range rows {
		rows[i] = row.Row{int32(i / 200)} // long runs
	}
	enc := decodeCheck(t, types.Int, rows, 0)
	if !enc["RLE"] {
		t.Fatalf("expected RLE, got %v", enc)
	}
	// Runs of strings too.
	srows := make([]row.Row, 1000)
	for i := range srows {
		srows[i] = row.Row{"run-" + string(rune('A'+i/250))}
	}
	enc = decodeCheck(t, types.String, srows, 0)
	if !enc["RLE"] {
		t.Fatalf("expected string RLE, got %v", enc)
	}
}

func TestDecodeBoxedDecimal(t *testing.T) {
	dt := types.DecimalType{Precision: 10, Scale: 2}
	rows := make([]row.Row, 200)
	for i := range rows {
		rows[i] = row.Row{types.NewDecimal(int64(i*101), 2)}
	}
	enc := decodeCheck(t, dt, rows, 64)
	if !enc["BOXED"] && !enc["RLE"] && !enc["DICT"] {
		t.Fatalf("unexpected encodings %v", enc)
	}
	decodeCheck(t, dt, withNulls(rows, 4), 64)
}

func TestDecodeAllNullColumn(t *testing.T) {
	rows := make([]row.Row, 150)
	for i := range rows {
		rows[i] = row.Row{nil}
	}
	decodeCheck(t, types.Long, rows, 40)
	decodeCheck(t, types.String, rows, 40)
	decodeCheck(t, types.Boolean, rows, 40)
}

func TestDecodeEmptyBatch(t *testing.T) {
	schema := types.StructType{}.Add("c", types.Long, true)
	b := buildBatch(schema, nil, stats.NewCollector(schema))
	var d Decoder
	vs := d.Decode(b, []types.DataType{types.Long}, []int{0})
	if len(vs) != 1 || vs[0].Len() != 0 {
		t.Fatalf("Decode on empty batch: %+v", vs)
	}
}

func TestDecodeBatchSkipsNegativeOrdinals(t *testing.T) {
	schema := types.StructType{}.
		Add("a", types.Int, true).
		Add("b", types.String, true)
	rows := []row.Row{{int32(1), "x"}, {int32(2), "y"}}
	b := buildBatch(schema, rows, stats.NewCollector(schema))
	var d Decoder
	vs := d.Decode(b, []types.DataType{types.Int, types.String}, []int{-1, 1})
	if vs[0] != nil {
		t.Fatal("ordinal -1 must not be decoded")
	}
	if vs[1] == nil || vs[1].Get(1) != "y" {
		t.Fatalf("ordinal 1 decoded wrong: %+v", vs[1])
	}
}

// Property test: random typed data through whatever encodings the builder
// picks must round-trip through the vector path identically.
func TestDecodeRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dts := []types.DataType{types.Int, types.Long, types.Double, types.String, types.Boolean, types.Date, types.Timestamp}
	gen := func(dt types.DataType) any {
		switch {
		case dt.Equals(types.Int), dt.Equals(types.Date):
			return int32(rng.Intn(50) - 25)
		case dt.Equals(types.Long), dt.Equals(types.Timestamp):
			return int64(rng.Intn(1000))
		case dt.Equals(types.Double):
			return rng.Float64()
		case dt.Equals(types.String):
			return "s" + string(rune('a'+rng.Intn(26)))
		default:
			return rng.Intn(2) == 0
		}
	}
	for trial := 0; trial < 30; trial++ {
		dt := dts[rng.Intn(len(dts))]
		n := rng.Intn(700)
		rows := make([]row.Row, n)
		for i := range rows {
			if rng.Intn(6) == 0 {
				rows[i] = row.Row{nil}
			} else {
				rows[i] = row.Row{gen(dt)}
			}
		}
		decodeCheck(t, dt, rows, 1+rng.Intn(300))
	}
}

// String vectors must round-trip every encoding with empty strings treated
// as real values, distinct from NULL.
func TestDecodeStringRoundTripEmptyAndNulls(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rows := make([]row.Row, 900)
	for i := range rows {
		switch rng.Intn(5) {
		case 0:
			rows[i] = row.Row{nil}
		case 1:
			rows[i] = row.Row{""} // empty string is NOT null
		default:
			rows[i] = row.Row{fmt.Sprintf("v%06d", rng.Intn(1<<16))}
		}
	}
	decodeCheck(t, types.String, rows, 128)
	// High-cardinality forces the uncompressed path; verify it too.
	plain := make([]row.Row, 600)
	for i := range plain {
		plain[i] = row.Row{fmt.Sprintf("unique-%09d", i*7919)}
	}
	enc := decodeCheck(t, types.String, plain, 200)
	if len(enc) == 0 {
		t.Fatal("no encodings exercised")
	}
	// All-empty column: every value present, none null.
	empties := make([]row.Row, 200)
	for i := range empties {
		empties[i] = row.Row{""}
	}
	decodeCheck(t, types.String, empties, 64)
}

// Date vectors round-trip as int32 days-since-epoch, including pre-epoch
// (negative) dates and NULLs, across plain and compressed encodings.
func TestDecodeDateRoundTrip(t *testing.T) {
	rows := make([]row.Row, 800)
	for i := range rows {
		rows[i] = row.Row{int32(i*37 - 12000)} // spans pre- and post-epoch
	}
	enc := decodeCheck(t, types.Date, rows, 100)
	if !enc["PLAIN"] {
		t.Fatalf("expected PLAIN dates, got %v", enc)
	}
	decodeCheck(t, types.Date, withNulls(rows, 4), 100)

	// Long runs of repeated dates compress; the vector path must agree.
	runs := make([]row.Row, 1000)
	for i := range runs {
		runs[i] = row.Row{int32(18000 + i/250)}
	}
	enc = decodeCheck(t, types.Date, runs, 0)
	if !enc["RLE"] && !enc["DICT"] {
		t.Fatalf("expected compressed dates, got %v", enc)
	}
	decodeCheck(t, types.Date, withNulls(runs, 6), 0)
}

// Append builds a column one value at a time from typed, constant and boxed
// sources (NULLs included, the null bitmap growing past word boundaries);
// HashAt over any representation equals hashing the boxed value; WrapVector
// views caller-owned lanes with a validity mask.
func TestVectorAppendHashAtWrap(t *testing.T) {
	vals := make([]any, 200)
	for i := range vals {
		switch {
		case i%7 == 3:
			vals[i] = nil
		default:
			vals[i] = int32(i * 31)
		}
	}
	typed, boxed := NewVector(types.Int, len(vals)), NewAnyVector(types.Int, len(vals))
	for i, v := range vals {
		typed.Set(i, v)
		boxed.Set(i, v)
	}
	konst := NewConstVector(types.Int, int32(9), 4)
	for name, src := range map[string]*Vector{"typed": typed, "boxed": boxed} {
		dst := NewVector(types.Int, 0)
		for i := range vals {
			dst.Append(src, i)
		}
		dst.Append(konst, 3)
		if dst.Len() != len(vals)+1 || dst.Get(len(vals)) != int32(9) {
			t.Fatalf("%s: appended %d rows, last %v", name, dst.Len(), dst.Get(len(vals)))
		}
		for i, want := range vals {
			if got := dst.Get(i); got != want {
				t.Fatalf("%s row %d: %v, want %v", name, i, got, want)
			}
			if dst.HashAt(row.NewHasher(), i).Sum() != row.HashValue(want) || src.HashAt(row.NewHasher(), i).Sum() != row.HashValue(want) {
				t.Fatalf("%s row %d: lane hash differs from the boxed value's", name, i)
			}
		}
	}
	strs := WrapVector(types.String, []string{"a", "", "c"}, []bool{true, false, true})
	if strs.Len() != 3 || strs.Get(0) != "a" || strs.Get(1) != nil || strs.Get(2) != "c" {
		t.Fatalf("wrapped strings: %v %v %v", strs.Get(0), strs.Get(1), strs.Get(2))
	}
	if f := WrapVector(types.Double, []float64{1.5}, nil); f.HasNulls() || f.HashAt(row.NewHasher(), 0).Sum() != row.HashValue(1.5) {
		t.Fatal("wrapped double lane: spurious NULL or wrong hash")
	}
}

// HashInto folds a column into running hashes exactly as HashAt does a
// position at a time, BoxInto and Gather agree with Get the same way, and
// EqualAt agrees with GroupKey equality of the boxed values — across typed,
// boxed and constant representations, NULLs included.
func TestVectorHashIntoEqualAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 150
	build := func(typ types.DataType, boxed bool, value func() any) *Vector {
		v := NewVector(typ, n)
		if boxed {
			v = NewAnyVector(typ, n)
		}
		for i := 0; i < n; i++ {
			if rng.Intn(6) > 0 {
				v.Set(i, value())
			} else {
				v.SetNull(i)
			}
		}
		return v
	}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001), 2.5}
	ints := func() any { return int32(rng.Intn(5)) }
	longs := func() any { return int64(rng.Intn(5)) }
	vecs := []*Vector{
		build(types.Int, false, ints), build(types.Long, true, ints), build(types.Long, true, longs),
		build(types.Double, false, func() any { return floats[rng.Intn(len(floats))] }),
		build(types.Double, true, func() any { return floats[rng.Intn(len(floats))] }),
		build(types.String, false, func() any { return string(rune('a' + rng.Intn(3))) }),
		build(types.String, true, func() any { return string(rune('a' + rng.Intn(3))) }),
		build(types.Boolean, false, func() any { return rng.Intn(2) == 0 }),
		NewConstVector(types.Long, int64(3), n), NewConstVector(types.String, nil, n),
	}
	var live []int32
	for i := 0; i < n; i += 1 + rng.Intn(3) {
		live = append(live, int32(i))
	}
	for _, v := range vecs {
		dst := make([]uint64, n)
		for _, i := range live {
			dst[i] = uint64(i) * 0x9E3779B97F4A7C15
		}
		v.HashInto(dst, live)
		for _, i := range live {
			if want := v.HashAt(row.Hasher(uint64(i)*0x9E3779B97F4A7C15), int(i)).Sum(); dst[i] != want {
				t.Fatalf("%v vector, position %d: HashInto %x, HashAt %x", v.Type, i, dst[i], want)
			}
		}
		// BoxInto is Get over a selection, strided into a shared arena;
		// GatherInto is the selection as a vector of its own.
		const stride = 3
		arena := make([]any, stride*len(live))
		v.BoxInto(arena[1:], stride, live)
		for k, i := range live {
			if got, want := arena[k*stride+1], v.Get(int(i)); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) || arena[k*stride] != nil || arena[k*stride+2] != nil {
				t.Fatalf("%v vector, position %d: BoxInto %#v, Get %#v", v.Type, i, got, want)
			}
		}
		if !v.IsConst() {
			all := make([]int32, n)
			for i := range all {
				all[i] = int32(i)
			}
			for _, sel := range [][]int32{live, all, {}} {
				g := v.GatherInto(nil, sel)
				if g.Len() != len(sel) || g.Kind != v.Kind {
					t.Fatalf("%v vector: gathered %d of %d positions as kind %d", v.Type, g.Len(), len(sel), g.Kind)
				}
				for o, i := range sel {
					if got, want := g.Get(o), v.Get(int(i)); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
						t.Fatalf("%v vector: gathered position %d is %#v, source %d is %#v", v.Type, o, got, i, want)
					}
				}
				if len(sel) > 0 { // the copy's lanes and NULL bits are its own
					before := fmt.Sprintf("%#v", v.Get(int(sel[0])))
					g.Set(0, nil)
					if after := fmt.Sprintf("%#v", v.Get(int(sel[0]))); after != before {
						t.Fatalf("%v vector: a write to the gathered copy reached the source", v.Type)
					}
				}
			}
		}
		for _, o := range vecs {
			for k := 0; k < 200; k++ {
				i, j := rng.Intn(n), rng.Intn(n)
				want := row.GroupKey(row.Row{v.Get(i), o.Get(j)}, []int{0}) == row.GroupKey(row.Row{v.Get(i), o.Get(j)}, []int{1})
				if got := v.EqualAt(i, o, j); got != want {
					t.Fatalf("EqualAt(%#v, %#v) = %v, GroupKey equality says %v", v.Get(i), o.Get(j), got, want)
				}
			}
		}
	}
}

// CompareAt orders two positions exactly as row.Compare orders their boxed
// values, over every kind of vector against every vector its values can meet:
// typed, boxed and constant vectors of one type, NULL on either side, NaN (of
// two bit patterns), ±0.0 and ±Inf, strings that share prefixes, bools, and
// DECIMALs of two scales in boxed lanes.
func TestVectorCompareAt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 64
	fill := func(v *Vector, value func() any) *Vector {
		for i := 0; i < n; i++ {
			if rng.Intn(5) > 0 {
				v.Set(i, value())
			} else {
				v.SetNull(i)
			}
		}
		return v
	}
	floats := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000001), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, -2.5}
	strs := []string{"", "a", "ab", "abc", "abd", "abc\x00", "b", "é", "e"}
	decs := []types.Decimal{types.NewDecimal(150, 2), types.NewDecimal(15, 1), types.NewDecimal(-3, 0), types.NewDecimal(149, 2), types.NewDecimal(0, 3)}
	dec := types.DecimalType{Precision: 10, Scale: 2}
	groups := []struct {
		typ    types.DataType
		value  func() any
		consts []any
	}{
		{types.Int, func() any { return int32(rng.Intn(7) - 3) }, []any{int32(0), nil}},
		{types.Long, func() any { return int64(rng.Intn(7)-3) << 40 }, []any{int64(0)}},
		{types.Double, func() any { return floats[rng.Intn(len(floats))] }, []any{math.NaN(), math.Copysign(0, -1), nil}},
		{types.String, func() any { return strs[rng.Intn(len(strs))] }, []any{"ab", ""}},
		{types.Boolean, func() any { return rng.Intn(2) == 0 }, []any{true}},
		{dec, func() any { return decs[rng.Intn(len(decs))] }, []any{decs[0]}},
	}
	for _, g := range groups {
		vecs := []*Vector{fill(NewVector(g.typ, n), g.value), fill(NewAnyVector(g.typ, n), g.value)}
		for _, c := range g.consts {
			vecs = append(vecs, NewConstVector(g.typ, c, n))
		}
		for _, v := range vecs {
			for _, o := range vecs {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if got, want := v.CompareAt(i, o, j), row.Compare(v.Get(i), o.Get(j)); got != want {
							t.Fatalf("%v (kind %d vs %d): CompareAt(%#v, %#v) = %d, row.Compare says %d",
								g.typ, v.Kind, o.Kind, v.Get(i), o.Get(j), got, want)
						}
					}
				}
			}
		}
	}
}

// A string column boxed from one slab: every cell, empty strings included,
// stays its string after the lane it came from is overwritten (a scan's
// scratch reused for the next batch) and the collector has run, and behaves
// as any boxed string does — ==, a map key, row.Compare. NULL cells stay nil,
// and the call allocates once, not once per cell.
func TestBoxStringsFromOneSlab(t *testing.T) {
	const n = 4096
	lane := make([]string, n)
	var nulls []uint64
	for i := range lane {
		switch {
		case i%7 == 3:
			if nulls == nil {
				nulls = make([]uint64, (n+63)/64)
			}
			nulls[i/64] |= 1 << (i % 64)
		case i%5 != 0:
			lane[i] = fmt.Sprintf("s%05d", i)
		} // i%5 == 0: the empty string
	}
	want := make([]any, n)
	for i, s := range lane {
		if nulls[i/64]&(1<<(i%64)) == 0 {
			want[i] = string([]byte(s))
		}
	}
	var sel []int32
	for i := 0; i < n; i += 3 {
		sel = append(sel, int32(i))
	}
	const stride = 2
	dst := make([]any, len(sel)*stride)
	WrapLanes(types.String, lane, nulls).BoxInto(dst, stride, sel)
	for i := range lane {
		lane[i] = fmt.Sprintf("overwritten %d", i)
	}
	runtime.GC()
	runtime.GC()
	seen := map[any]int{}
	for k, i := range sel {
		cell, w := dst[k*stride], want[i]
		if cell != w || row.Compare(cell, w) != 0 {
			t.Fatalf("cell %d (row %d) = %#v, want %#v", k, i, cell, w)
		}
		if dst[k*stride+1] != nil {
			t.Fatalf("cell %d: stride slot written: %#v", k, dst[k*stride+1])
		}
		if cell != nil {
			seen[cell]++
		}
	}
	for k, i := range sel {
		if w := want[i]; w != nil && seen[w] == 0 {
			t.Fatalf("cell %d (row %d): %q is not found as a map key", k, i, w)
		}
	}

	full := make([]string, n)
	for i := range full {
		full[i] = fmt.Sprintf("v%d", i)
	}
	v, all := WrapLanes(types.String, full, nil), make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	out := make([]any, n)
	if allocs := testing.AllocsPerRun(20, func() { v.BoxInto(out, 1, all) }); allocs > 2 {
		t.Fatalf("boxing %d strings allocated %.0f times", n, allocs)
	}
}

// An INT, DATE or BIGINT column's cells box from one slab per call, and each
// reads back as Get's: int32 for INT and DATE, int64 for BIGINT, NULL as nil,
// negatives and values on both sides of the preboxed 0–255 range included.
// Boxing 4 096 cells of which 0–255 hold a fraction allocates once (the slab),
// and a selection of small values alone allocates nothing.
func TestBoxIntsFromOneSlab(t *testing.T) {
	const n = 4096
	lane := make([]int64, n)
	nulls := make([]uint64, (n+63)/64)
	for i := range lane {
		lane[i] = []int64{int64(i), -int64(i), 255, 256, -1, math.MaxInt32, math.MinInt32, int64(i % 256)}[i%8]
		if i%13 == 7 {
			nulls[i/64] |= 1 << (i % 64)
			lane[i] = 1000 // a NULL's stale lane value takes no slab slot
		}
	}
	var sel, small []int32
	for i := int32(0); i < n; i += 3 {
		sel = append(sel, i)
	}
	for i := int32(0); i < 256; i++ {
		small = append(small, i*8+7) // i % 256 when not NULL
	}
	const stride = 2
	for _, typ := range []types.DataType{types.Int, types.Date, types.Long} {
		v := WrapLanes(typ, lane, nulls)
		dst := make([]any, len(sel)*stride)
		v.BoxInto(dst, stride, sel)
		runtime.GC()
		for k, i := range sel {
			cell, want := dst[k*stride], v.Get(int(i))
			if fmt.Sprintf("%#v", cell) != fmt.Sprintf("%#v", want) || cell != want || row.Compare(cell, want) != 0 {
				t.Fatalf("%v cell %d (row %d) = %#v, want %#v", typ, k, i, cell, want)
			}
			if dst[k*stride+1] != nil {
				t.Fatalf("%v cell %d: stride slot written: %#v", typ, k, dst[k*stride+1])
			}
		}
		out := make([]any, len(sel))
		if allocs := testing.AllocsPerRun(20, func() { clear(out); v.BoxInto(out, 1, sel) }); allocs > 1 {
			t.Fatalf("%v: boxing %d integers allocated %.0f times", typ, len(sel), allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { clear(out); v.BoxInto(out, 1, small) }); allocs > 0 {
			t.Fatalf("%v: boxing %d values in 0..255 allocated %.0f times", typ, len(small), allocs)
		}
	}
}

// GatherInto reuses its destination from call to call and gathers NULL for a
// negative position, past a null-bitmap word boundary too, from a source with
// or without NULLs and from a constant; Concat lays gathered parts back to
// back in a lane of exactly their total length, NULLs kept.
func TestGatherIntoAndConcat(t *testing.T) {
	const n = 200
	vals, nulls := make([]int64, n), make([]uint64, (n+63)/64)
	for i := range vals {
		vals[i] = int64(i * 3)
		if i%17 == 4 {
			nulls[i/64] |= 1 << (i % 64)
		}
	}
	sel := make([]int32, 150)
	for k := range sel {
		sel[k] = int32(k*7%n - k%3) // every third position stays put, one is -1 or -2
		if k%3 != 0 {
			sel[k] = -int32(k % 3)
		}
	}
	sources := []*Vector{WrapLanes(types.Long, vals, nulls), WrapLanes(types.Long, vals, nil), NewConstVector(types.String, "c", n)}
	for _, src := range sources {
		var dst *Vector
		var parts []*Vector
		for round := 0; round < 3; round++ {
			dst = src.GatherInto(dst, sel[:len(sel)-round*40])
			for k, i := range sel[:dst.Len()] {
				want := any(nil)
				if i >= 0 {
					want = src.Get(int(i))
				}
				if got := dst.Get(k); got != want {
					t.Fatalf("%v round %d: position %d (source %d) = %#v, want %#v", src.Type, round, k, i, got, want)
				}
			}
			parts = append(parts, src.GatherInto(nil, sel[:dst.Len()]))
		}
		if allocs := testing.AllocsPerRun(10, func() { dst = src.GatherInto(dst, sel) }); allocs > 0 {
			t.Fatalf("%v: a warm GatherInto allocated %.0f times", src.Type, allocs)
		}
		all := Concat(src.Type, parts)
		at := 0
		for _, p := range parts {
			for i := range p.Len() {
				if got, want := all.Get(at+i), p.Get(i); got != want {
					t.Fatalf("%v: concatenated position %d = %#v, want %#v", src.Type, at+i, got, want)
				}
			}
			at += p.Len()
		}
		// One lane of the total length, rounded up to its allocation size
		// class: not grown by doubling.
		if c := cap(all.I64) + cap(all.Str); all.Len() != at || c < at || c > at+at/8 {
			t.Fatalf("%v: %d rows concatenated into %d, lane capacity %d", src.Type, at, all.Len(), c)
		}
	}
	if empty := Concat(types.Double, nil); empty.Len() != 0 || empty.Kind != KindFloat64 {
		t.Fatalf("no parts concatenated into %d rows of kind %d", empty.Len(), empty.Kind)
	}
}

// A cached string column decodes as substrings of its one string, into lanes
// the Decoder keeps: a warm decoder decodes a 4 096-row batch without an
// allocation per cell (a copy per cell was 4 097 allocations), and a cell
// kept from one decode still holds its value after the decoder has moved on
// to the column's next batch.
func TestDecodeStringsAsSubstrings(t *testing.T) {
	const n = 4096
	schema := types.StructType{}.Add("s", types.String, true)
	rows := make([]row.Row, 2*n)
	for i := range rows {
		if i%11 == 5 {
			rows[i] = row.Row{nil}
		} else {
			rows[i] = row.Row{fmt.Sprintf("cell-%05d", i)}
		}
	}
	table := BuildTable(schema, [][]row.Row{rows}, n)
	first, second := table.Partitions[0][0], table.Partitions[0][1]
	if enc := first.Cols[0].Encoding(); enc != "PLAIN" {
		t.Fatalf("string column encoded %s, want PLAIN", enc)
	}
	var d Decoder
	ts, ords := []types.DataType{types.String}, []int{0}
	v := d.Decode(first, ts, ords)[0]
	kept, boxed := v.Str[1], v.Get(2)
	if w := d.Decode(second, ts, ords)[0]; w != v || w.Get(0) != "cell-04096" || !w.IsNull(1) {
		t.Fatalf("the second batch decoded into another header or wrongly: %v, %v", w.Get(0), w.IsNull(1))
	}
	runtime.GC()
	if kept != "cell-00001" || boxed != "cell-00002" {
		t.Fatalf("cells kept from the first decode read %q and %v after the second", kept, boxed)
	}
	if allocs := testing.AllocsPerRun(20, func() { d.Decode(first, ts, ords) }); allocs > 2 {
		t.Fatalf("decoding %d strings allocated %.0f times", n, allocs)
	}
}
