package physical

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dfs"
	"repro/internal/expr"
	"repro/internal/memory"
	"repro/internal/row"
	"repro/internal/types"
)

// refSortLess is the row comparator sorts ran before a run became an index
// sort over key lanes: every key evaluated again on every comparison.
func refSortLess(ctx *ExecContext, orders []*expr.SortOrder, input []*expr.AttributeReference) func(a, b row.Row) bool {
	evals := make([]func(row.Row) any, len(orders))
	for i, o := range orders {
		evals[i] = ctx.evaluator(bind(o.Child, input))
	}
	return func(a, b row.Row) bool {
		for i, ev := range evals {
			c := row.Compare(ev(a), ev(b))
			if orders[i].Descending {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	}
}

// sortPropertyRows builds n rows of an id column and one column of every
// orderable type, each drawn from a few values (heavy ties) plus NULL; the
// DOUBLE column holds NaN, ±0.0 and ±Inf.
func sortPropertyRows(rng *rand.Rand, n int) ([]*expr.AttributeReference, []row.Row) {
	names := []string{"id", "i", "l", "d", "s", "b", "dt", "dec"}
	ts := []types.DataType{types.Long, types.Int, types.Long, types.Double, types.String, types.Boolean, types.Date, types.DecimalType{Precision: 10, Scale: 2}}
	doubles := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -2.5, 7}
	strs := []string{"", "a", "ab", "b", "é"}
	gen := []func() any{
		func() any { return int32(rng.Intn(4) - 2) },
		func() any { return int64(rng.Intn(4)-2) << 40 },
		func() any { return doubles[rng.Intn(len(doubles))] },
		func() any { return strs[rng.Intn(len(strs))] },
		func() any { return rng.Intn(2) == 0 },
		func() any { return int32(rng.Intn(3) + 18000) },
		func() any { return types.NewDecimal(int64(rng.Intn(5)-2)*25, 2) },
	}
	rows := make([]row.Row, n)
	for i := range rows {
		r := row.Row{int64(i)}
		for _, g := range gen {
			if rng.Intn(6) == 0 {
				r = append(r, nil)
			} else {
				r = append(r, g())
			}
		}
		rows[i] = r
	}
	return attrsOf(names, ts), rows
}

func ids(rows []row.Row) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].(int64)
	}
	return out
}

// A sort's answer is the stable sort under the old row comparator, row for
// row, whatever the keys: 1-3 of every orderable type, ascending or
// descending, heavy ties, NULL, NaN and signed zeros, DECIMAL through
// CompareAt's boxed fallback. So are a global SortExec's at every memory
// budget (range partitioning, spilled runs and their merge included) and a
// TopKExec's first n rows, over rows and over a batch child.
func TestSortMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	attrs, rows := sortPropertyRows(rng, 700)
	list := make([]expr.Expression, len(attrs))
	for i, a := range attrs {
		list[i] = a
	}
	// A projection over the cached table vectorizes: TopK's batch child.
	scan, cached := NewLocalScan(attrs, rows), &ProjectExec{List: list, Child: cachedScan(attrs, rows)}
	for trial := 0; trial < 40; trial++ {
		keys := rng.Perm(len(attrs) - 1)[:1+rng.Intn(3)]
		orders := make([]*expr.SortOrder, len(keys))
		for i, k := range keys {
			if orders[i] = expr.Asc(attrs[1+k]); rng.Intn(2) == 0 {
				orders[i] = expr.Desc(attrs[1+k])
			}
		}
		label := ordersString(orders)
		for _, codegen := range []bool{true, false} {
			ctx := execCtx(codegen)
			want := slices.Clone(rows)
			less := refSortLess(ctx, orders, attrs)
			sort.SliceStable(want, func(i, j int) bool { return less(want[i], want[j]) })
			if got := bindOrder(ctx, orders, attrs).sort(slices.Clone(rows)); !slices.Equal(ids(got), ids(want)) {
				t.Fatalf("%s codegen=%v: run sort differs from the stable reference", label, codegen)
			}
			for _, budget := range []int64{0, 64 << 10, 1} {
				ctx := execCtx(codegen)
				if budget > 0 {
					ctx.Pool, ctx.SpillFS = memory.NewPool(budget, nil), dfs.New()
				}
				got := collect(t, globalSort(orders, scan), ctx)
				if !slices.Equal(ids(got), ids(want)) {
					t.Fatalf("%s codegen=%v budget=%d: SortExec differs from the stable reference", label, codegen, budget)
				}
				if budget == 1 && ctx.Pool.SpillCount() == 0 {
					t.Fatalf("%s: a one-byte budget spilled nothing", label)
				}
				if ctx.CleanupSpills(); ctx.SpillFS != nil && ctx.SpillFS.NumFiles() != 0 {
					t.Fatalf("%s budget=%d: %d spill files left", label, budget, ctx.SpillFS.NumFiles())
				}
			}
			n := []int{1, 7, 64, len(rows) + 5}[trial%4]
			top := &TopKExec{N: n, Orders: orders, Child: scan}
			batch := Fuse(Vectorize(Collapse(&TopKExec{N: n, Orders: orders, Child: cached})))
			if _, ok := batch.Children()[0].(BatchTop); !ok {
				t.Fatalf("TopK over a cached projection has no batch child:\n%s", batch)
			}
			for _, p := range []SparkPlan{top, batch} {
				got := collect(t, p, ctx)
				if wantN := want[:min(n, len(want))]; !slices.Equal(ids(got), ids(wantN)) {
					t.Fatalf("%s codegen=%v n=%d over %s: top rows differ from the stable reference's first n", label, codegen, n, p.Children()[0].SimpleString())
				}
			}
		}
	}
}
