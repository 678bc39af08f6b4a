package columnar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/row"
	"repro/internal/types"
)

// sameValue reports whether a and b are the same Go type holding the same
// value, floats compared bit for bit (NaN payloads, -0.0) and nested rows and
// lists cell by cell.
func sameValue(a, b any) bool {
	if reflect.TypeOf(a) != reflect.TypeOf(b) {
		return false
	}
	switch x := a.(type) {
	case float64:
		return math.Float64bits(x) == math.Float64bits(b.(float64))
	case float32:
		return math.Float32bits(x) == math.Float32bits(b.(float32))
	case []byte:
		return bytes.Equal(x, b.([]byte))
	case row.Row:
		return sameCells(x, b.(row.Row))
	case []any:
		return sameCells(x, b.([]any))
	}
	return a == b
}

func sameCells[S ~[]any](a, b S) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameRows(a, b []row.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows, want %d", len(b), len(a))
	}
	for i := range a {
		if !sameCells(a[i], b[i]) {
			return fmt.Errorf("row %d: %s, want %s", i, typed(b[i]), typed(a[i]))
		}
	}
	return nil
}

// typed renders a row's cells with their Go types.
func typed(r row.Row) string {
	s := ""
	for _, v := range r {
		s += fmt.Sprintf("%T(%v) ", v, v)
	}
	return s
}

// blockColumns are the columns the round-trip property draws from: every
// lane, with and without NULLs, and the columns the block writes cell by
// cell — types with no lane, mixed Go types, and NULL throughout.
var blockColumns = []func(rng *rand.Rand) any{
	func(rng *rand.Rand) any {
		return []float64{math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5}[rng.Intn(7)]
	},
	func(rng *rand.Rand) any { return int32(rng.Int63() - rng.Int63()) },
	func(rng *rand.Rand) any { return rng.Int63() - rng.Int63() },
	func(rng *rand.Rand) any { return []string{"", "alpha", "héllo\x00", "β"}[rng.Intn(4)] },
	func(rng *rand.Rand) any { return rng.Intn(2) == 0 },
	func(rng *rand.Rand) any { return float32(rng.NormFloat64()) },
	func(rng *rand.Rand) any { return types.Decimal{Unscaled: rng.Int63n(1e6) - 5e5, Scale: 2} },
	func(rng *rand.Rand) any { return []byte{byte(rng.Intn(256)), 0} },
	func(rng *rand.Rand) any { return row.Row{int32(rng.Intn(9)), nil, "nested"} },
	func(rng *rand.Rand) any { return []any{int64(rng.Intn(9)), "x", nil} },
	func(rng *rand.Rand) any { return []any{int32(1), int64(1), 1.0, "1", true}[rng.Intn(5)] },
	func(*rand.Rand) any { return nil },
}

func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	check := func(name string, rows []row.Row) {
		t.Helper()
		b, err := EncodeBlock(rows)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := DecodeBlock(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sameRows(rows, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, r := range got {
			if cap(r) != len(r) {
				t.Fatalf("%s: row %d has capacity %d past its %d cells", name, i, cap(r), len(r))
			}
		}
	}
	check("empty", nil)
	check("zero width", []row.Row{{}, {}, {}})
	check("NULL first, a late other type", []row.Row{{nil, "a"}, {1.5, "b"}, {nil, "c"}, {2.5, int64(3)}})
	for c, gen := range blockColumns {
		for _, n := range []int{1, 7, 64, 65, 300} {
			for _, nullShare := range []int{0, 3, 100} {
				rows := make([]row.Row, n)
				for i := range rows {
					rows[i] = row.Row{gen(rng), int64(i)}
					if rng.Intn(100) < nullShare {
						rows[i][0] = nil
					}
				}
				check(fmt.Sprintf("column %d, %d rows, %d%% NULL", c, n, nullShare), rows)
			}
		}
	}
	wide := make([]row.Row, 100)
	for i := range wide {
		for _, gen := range blockColumns {
			wide[i] = append(wide[i], gen(rng))
		}
	}
	check("every column", wide)
}

// Decoders share their scratch lanes through a pool: blocks of different
// shapes decoded at once on several goroutines each decode to their own rows.
func TestDecodeBlockConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	blocks, want := make([][]byte, 4), make([][]row.Row, 4)
	for g := range blocks {
		for i := 0; i < 50*(g+1); i++ {
			want[g] = append(want[g], row.Row{blockColumns[g](rng), blockColumns[3](rng), nil})
		}
		var err error
		if blocks[g], err = EncodeBlock(want[g]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := range blocks {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				got, err := DecodeBlock(blocks[g])
				if err == nil {
					err = sameRows(want[g], got)
				}
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestBlockRejects(t *testing.T) {
	if _, err := EncodeBlock([]row.Row{{int64(1)}, {int64(1), "x"}}); err == nil {
		t.Fatal("rows of unequal width encoded")
	}
	if _, err := EncodeBlock([]row.Row{{map[any]any{}}}); err == nil {
		t.Fatal("a value with no encoding encoded")
	}
	b, err := EncodeBlock([]row.Row{{int64(1), "abc", 2.5, nil}, {nil, "", 0.5, types.Decimal{Unscaled: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := DecodeBlock(b[:cut]); err == nil {
			t.Fatalf("a block cut to %d of %d bytes decoded", cut, len(b))
		}
	}
	if _, err := DecodeBlock(append(b, 0)); err == nil {
		t.Fatal("a trailing byte decoded")
	}
	// Counts beyond the bytes that follow them, zero width included, are
	// refused before anything is sized by them.
	for _, blk := range [][]byte{
		blockBytes([]int64{1 << 40, 0}),
		blockBytes([]int64{-1, 1}, laneInt64, 0),
		blockBytes([]int64{1 << 40, 1}, laneInt64),
		blockBytes([]int64{2, 1 << 40}, laneInt32, 2, 2),
		blockBytes([]int64{1, 1}, laneString, 0x80, 0x80, 0x80, 0x80, 0x01),
	} {
		if _, err := DecodeBlock(blk); err == nil {
			t.Fatalf("block %x decoded", blk)
		}
	}
}

// blockBytes builds a block header from its counts, then the bytes that follow.
func blockBytes(counts []int64, rest ...byte) []byte {
	var b []byte
	for _, c := range counts {
		b = binary.AppendVarint(b, c)
	}
	return append(b, rest...)
}

// FuzzDecodeBlock: any bytes decode to rows or an error, never a panic; no
// decode allocates more than the bytes could hold; and what decodes is a
// fixed point of decode∘encode.
func FuzzDecodeBlock(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, rows := range [][]row.Row{
		nil,
		{{}, {}},
		{{int32(1), "a", 2.5, true, nil}, {nil, "bc", math.NaN(), false, types.Decimal{Unscaled: 7, Scale: 1}}},
		{{row.Row{int64(1)}, []byte("x"), float32(2), []any{"y"}}},
	} {
		b, err := EncodeBlock(rows)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for c := range blockColumns {
		rows := []row.Row{{blockColumns[c](rng)}, {nil}, {blockColumns[c](rng)}}
		b, err := EncodeBlock(rows)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := DecodeBlock(data)
		if err != nil {
			return
		}
		cells := len(rows)
		if len(rows) > 0 {
			cells *= max(1, len(rows[0]))
		}
		if cells > len(data) {
			t.Fatalf("%d bytes decoded to %d cells", len(data), cells)
		}
		re, err := EncodeBlock(rows)
		if err != nil {
			t.Fatalf("decoded rows do not encode: %v", err)
		}
		again, err := DecodeBlock(re)
		if err != nil {
			t.Fatalf("re-encoded block does not decode: %v", err)
		}
		if err := sameRows(rows, again); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkBlockCodec encodes and decodes the same generated uservisits rows
// with the block codec and with the row codec, reporting ns/row (and with
// -benchmem allocs/row).
func BenchmarkBlockCodec(b *testing.B) {
	const n = 15000
	rows := make([]row.Row, n)
	for i := range rows {
		rows[i] = datagen.UserVisitRow(29, int64(i), 1000)
	}
	codecs := []struct {
		name   string
		encode func([]row.Row) ([]byte, error)
		decode func([]byte) ([]row.Row, error)
	}{
		{"block", EncodeBlock, DecodeBlock},
		{"row", row.EncodeRows, row.DecodeRows},
	}
	for _, c := range codecs {
		enc, err := c.encode(rows)
		if err != nil {
			b.Fatal(err)
		}
		encode := func() {
			if _, err := c.encode(rows); err != nil {
				b.Fatal(err)
			}
		}
		decode := func() {
			if _, err := c.decode(enc); err != nil {
				b.Fatal(err)
			}
		}
		for _, op := range []struct {
			name string
			run  func()
		}{{"encode", encode}, {"decode", decode}} {
			b.Run(c.name+"/"+op.name, func(b *testing.B) {
				allocs := testing.AllocsPerRun(3, op.run)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
				b.ReportMetric(allocs/n, "allocs/row")
			})
		}
	}
}
