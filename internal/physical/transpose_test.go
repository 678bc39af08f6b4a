package physical

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/row"
	"repro/internal/types"
)

// transposeColumns is one column of every type a row carries: the class types
// (INT, BIGINT, DATE, TIMESTAMP, DOUBLE, STRING) and the boxed ones (FLOAT,
// BOOLEAN, DECIMAL, a nested ARRAY), each with a generator of its cells.
var transposeColumns = []struct {
	t    types.DataType
	cell func(r *rand.Rand) any
}{
	{types.Int, func(r *rand.Rand) any { return int32(r.Intn(2000) - 1000) }},
	{types.Long, func(r *rand.Rand) any { return r.Int63() - math.MaxInt64/2 }},
	{types.Date, func(r *rand.Rand) any { return int32(16071 + r.Intn(700)) }},
	{types.Timestamp, func(r *rand.Rand) any { return r.Int63n(1 << 50) }},
	{types.Double, func(r *rand.Rand) any {
		return []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), r.NormFloat64()}[r.Intn(5)]
	}},
	{types.String, func(r *rand.Rand) any { return []string{"", "a", "héllo", fmt.Sprint(r.Intn(99))}[r.Intn(4)] }},
	{types.Float, func(r *rand.Rand) any { return float32(r.NormFloat64()) }},
	{types.Boolean, func(r *rand.Rand) any { return r.Intn(2) == 0 }},
	{types.DecimalType{Precision: 12, Scale: 2}, func(r *rand.Rand) any { return types.NewDecimal(r.Int63n(1e9)-5e8, 2) }},
	{types.ArrayType{Elem: types.Int, ContainsNull: true}, func(r *rand.Rand) any { return []any{int32(r.Intn(9)), nil} }},
}

// sameCell is cell identity: the same Go type and value, a float by its bits
// (NaN and -0.0 included).
func sameCell(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case float32:
		y, ok := b.(float32)
		return ok && math.Float32bits(x) == math.Float32bits(y)
	}
	return reflect.DeepEqual(a, b)
}

// The transposer is the inverse of expr.BoxValues: rows transposed chunk after
// chunk into the reused lanes of a used-column subset, typed or boxed, box
// back into exactly their cells — NULLs, NaN, -0.0 and the empty string
// included — while the unused columns stay nil. A typed lane is the column's
// class lane (expr.NewClassVector's kind), a boxed one always KindAny.
func TestTransposeInvertsBoxValues(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7A5905E))
	attrs := make([]*expr.AttributeReference, len(transposeColumns))
	for c, col := range transposeColumns {
		attrs[c] = expr.NewAttribute(fmt.Sprint("c", c), col.t, true)
	}
	rows := make([]row.Row, 3*rowChunk+17)
	for i := range rows {
		r := make(row.Row, len(attrs))
		for c, col := range transposeColumns {
			if rng.Intn(5) > 0 { // a NULL in one cell of five, of every column
				r[c] = col.cell(rng)
			}
		}
		rows[i] = r
	}
	masks := [][]bool{nil, make([]bool, len(attrs))}
	for range 6 {
		used := make([]bool, len(attrs))
		for c := range used {
			used[c] = rng.Intn(2) == 0
		}
		masks = append(masks, used)
	}
	for _, typed := range []bool{true, false} {
		for m, used := range masks {
			tr := newTransposer(attrs, used, typed)
			// Chunks of shrinking and growing sizes over the same lanes: what
			// a longer chunk left behind must not show through a shorter one.
			for off, k := 0, 0; off < len(rows); k++ {
				n := min([]int{rowChunk, 5, 700, 1, rowChunk}[k%5], len(rows)-off)
				chunk := rows[off : off+n]
				b, sel := tr.load(chunk)
				if b.N != n || len(sel) != n || len(b.Cols) != len(attrs) {
					t.Fatalf("typed=%v mask %d: load of %d rows gave N=%d, %d selected, %d columns", typed, m, n, b.N, len(sel), len(b.Cols))
				}
				// A scalar fallback reads the input rows themselves.
				if r := b.RowInto(n-1, nil); &r[0] != &chunk[n-1][0] {
					t.Fatalf("typed=%v mask %d: RowInto(%d) is not the input row", typed, m, n-1)
				}
				dst := make([]any, n*len(attrs))
				expr.BoxValues(b.Cols, sel, dst)
				for c, v := range b.Cols {
					if used != nil && !used[c] {
						if v != nil {
							t.Fatalf("typed=%v mask %d: unused column %d has a lane", typed, m, c)
						}
						continue
					}
					want := columnar.KindAny
					if typed {
						want = expr.NewClassVector(attrs[c].DataType(), 0).Kind
					}
					if v.Kind != want || v.Len() != n {
						t.Fatalf("typed=%v column %d (%s): kind %d len %d, want kind %d len %d", typed, c, attrs[c].DataType(), v.Kind, v.Len(), want, n)
					}
					for i, r := range chunk {
						if got := dst[i*len(attrs)+c]; !sameCell(got, r[c]) {
							t.Fatalf("typed=%v mask %d: row %d column %d (%s) boxed back as %#v, want %#v", typed, m, off+i, c, attrs[c].DataType(), got, r[c])
						}
					}
				}
				off += n
			}
		}
	}
}
