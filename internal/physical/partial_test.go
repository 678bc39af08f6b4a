package physical

import (
	"fmt"
	"testing"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/row"
	"repro/internal/types"
)

// A map task decides once, from its first partialWindow rows however they
// are batched. A task whose window leaves at most partialMaxGroups groups
// keeps probing its table for every later batch, even when its groups outgrow
// the bound afterwards (a task that re-entered the window each batch would cut
// its selection past the end, or skip late), and sends one record a group: a
// key set of a few thousand values over a long task (i%3000) collapses rather
// than passing its rows on. A nearly distinct one puts exactly the window's
// rows in its table, splitting the batch that straddles it, and passes every
// later row on: the table's bucket set, then one per batch that passed rows.
func TestPartialAggDecidesOnce(t *testing.T) {
	const total, buckets = 18*partialWindow + 500, 3
	newLanes := func() []expr.VecAggregator {
		l, _ := expr.NewVecAggregator(expr.NewCountStar())
		return []expr.VecAggregator{l}
	}
	for _, c := range []struct {
		name string
		key  func(i int) int64
		skip bool
	}{
		{"i%10", func(i int) int64 { return int64(i % 10) }, false},
		{"i%3000", func(i int) int64 { return int64(i % 3000) }, false},
		{fmt.Sprintf("i%%%d", partialMaxGroups), func(i int) int64 { return int64(i % partialMaxGroups) }, false},
		{"i/2", func(i int) int64 { return int64(i / 2) }, false}, // 2 048 groups in the window, 37 114 in all
		{fmt.Sprintf("i%%%d", partialMaxGroups+1), func(i int) int64 { return int64(i % (partialMaxGroups + 1)) }, true},
		{"i", func(i int) int64 { return int64(i) }, true},
	} {
		skips := c.skip
		keys := columnar.NewVector(types.Long, total)
		distinct := map[int64]bool{}
		for i := range total {
			if keys.I64[i] = c.key(i); !skips || i < partialWindow {
				distinct[keys.I64[i]] = true
			}
		}
		batch := &expr.VecBatch{Cols: []*columnar.Vector{keys}, N: total}
		for _, size := range []int{700, 1000, partialWindow, partialWindow + 1, total} {
			t.Run(fmt.Sprintf("%s/batch=%d", c.name, size), func(t *testing.T) {
				a := newPartialAgg([]types.DataType{types.Long}, nil, newLanes, buckets)
				passing := 0 // batches with rows past the window
				for lo := 0; lo < total; lo += size {
					hi := min(lo+size, total)
					live := make([]int32, 0, hi-lo)
					for i := lo; i < hi; i++ {
						live = append(live, int32(i))
					}
					a.add(batch.Cols, live, func(lanes []expr.VecAggregator, sel, gidx []int32, n int) {
						lanes[0].Update(batch, sel, gidx, n)
					})
					if hi > partialWindow {
						passing++
					}
				}
				var skipped metrics.Counter
				om := &OperatorMetrics{}
				out := a.finish(om, &skipped)
				wantGroups, wantBlocks, wantPassed := len(distinct), buckets, int64(0)
				if skips {
					wantBlocks, wantPassed = buckets*(1+passing), total-partialWindow
				}
				if a.window != 0 || (a.pass != nil) != skips || a.count() != wantGroups || len(out) != wantBlocks {
					t.Fatalf("window %d left, skip %v, %d groups, %d blocks; want 0, %v, %d, %d",
						a.window, a.pass != nil, a.count(), len(out), skips, wantGroups, wantBlocks)
				}
				if om.Passed.Load() != wantPassed || skipped.Load() != om.Skipped.Load() || (skipped.Load() == 1) != skips {
					t.Fatalf("recorded %d rows passed in %d tasks (counter %d), want %d", om.Passed.Load(), om.Skipped.Load(), skipped.Load(), wantPassed)
				}
				// Every row is counted once, in the bucket its key hashes to,
				// and the blocks hold one record a group: the table's, then
				// one a passed row.
				var rows int64
				records := 0
				for i, b := range out {
					records += len(b.sel)
					counts := b.lanes[0].Result(len(b.hashes))
					for _, g := range b.sel {
						if b.hashes[g]%buckets != uint64(i%buckets) {
							t.Fatalf("block %d holds a group of bucket %d", i, b.hashes[g]%buckets)
						}
						rows += counts.I64[g]
					}
				}
				if rows != total {
					t.Fatalf("the blocks count %d rows, want %d", rows, total)
				}
				if want := wantGroups + int(wantPassed); records != want {
					t.Fatalf("the blocks hold %d records, want %d", records, want)
				}
			})
		}
	}
}

// A grouped aggregate's partial blocks report their size, so its exchange's
// shuffle span and rdd.shuffle.bytes read what the blocks hold — 8 B a group
// for the BIGINT key, its row hash, and COUNT's and SUM's state — within 2x,
// where they read 0 when the blocks could not be sized. Adaptive execution
// sizes the aggregate's reduce tasks from the same numbers.
func TestAggregateShuffleReportsBlockBytes(t *testing.T) {
	attrs := attrsOf([]string{"k", "v"}, []types.DataType{types.Long, types.Long})
	rows := make([]row.Row, 4000)
	for i := range rows {
		rows[i] = row.Row{int64(i % 500), int64(i)}
	}
	ctx := execCtx(true)
	ctx.RDD.SetTracing(true)
	collect(t, newAggregate([]expr.Expression{attrs[0]}, []expr.Expression{
		attrs[0], expr.NewAlias(expr.NewCountStar(), "n"), expr.NewAlias(&expr.Sum{Child: attrs[1]}, "s"),
	}, NewLocalScan(attrs, rows), 0), ctx)
	var bytes, records int64
	for _, s := range ctx.RDD.Trace().Snapshot() {
		if s.Kind == metrics.SpanShuffle {
			bytes, records = bytes+s.Bytes, records+s.Records
		}
	}
	lanes := 4 * 8 * records
	if counter := ctx.RDD.Metrics().Counter("rdd.shuffle.bytes").Load(); records == 0 || counter != bytes || bytes < lanes/2 || bytes > 2*lanes {
		t.Fatalf("%d partial groups shuffled: span %d B, counter %d B; want within 2x of %d B", records, bytes, counter, lanes)
	}
}
