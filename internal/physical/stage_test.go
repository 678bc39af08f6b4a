package physical_test

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/rangejoin"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/types"
)

// gatedScan is a one-partition leaf over rows that, while hold is set, blocks
// each task until its job is cancelled — after announcing itself on started.
func gatedScan(attrs []*expr.AttributeReference, rows []row.Row, hold *atomic.Bool, started chan<- struct{}) physical.SparkPlan {
	return &physical.ScanExec{Name: "gated", Attrs: attrs, Build: func(ctx *physical.ExecContext) *rdd.RDD[row.Row] {
		return rdd.GenerateCtx(ctx.RDD, "gated", 1, func(jc context.Context, _ int) ([]row.Row, error) {
			if hold.Load() {
				select {
				case started <- struct{}{}:
				case <-jc.Done():
				}
				<-jc.Done()
				return nil, jc.Err()
			}
			return rows, nil
		})
	}}
}

// canon renders rows as a sorted multiset.
func canon(rows []row.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// A stage cancelled mid-run must not poison the next run of the same RDD
// graph: cluster workers keep a statement's built RDD for the life of the
// session, so the same operator instance runs again. Every build side, map
// side and candidate set is an rdd.Stage, and with it follows this rule.
func TestStageSurvivesCancelledRun(t *testing.T) {
	attrs := func(prefix string) []*expr.AttributeReference {
		return []*expr.AttributeReference{
			expr.NewAttribute(prefix+"lo", types.Long, false), expr.NewAttribute(prefix+"hi", types.Long, false)}
	}
	bAttrs, pAttrs := attrs("b"), attrs("p")
	var bRows, pRows []row.Row
	for i := int64(0); i < 8; i++ {
		bRows = append(bRows, row.Row{i, i + 3})
	}
	for i := int64(0); i < 40; i++ {
		pRows = append(pRows, row.Row{i % 10, i})
	}
	schema := types.StructType{}.Add("plo", types.Long, false).Add("phi", types.Long, false)
	cached := physical.NewInMemoryScan(pAttrs, columnar.BuildTable(schema, [][]row.Row{pRows}, 16), nil, nil)

	// Each case joins probe rows against a build side behind the gate.
	exchange := func(form physical.ExchangeForm, child physical.SparkPlan, keys ...expr.Expression) *physical.ExchangeExec {
		return &physical.ExchangeExec{Form: form, Child: child, Keys: keys}
	}
	cases := map[string]func(build physical.SparkPlan) physical.SparkPlan{
		"broadcast": func(build physical.SparkPlan) physical.SparkPlan {
			return &physical.BroadcastHashJoinExec{BuildRight: true, EquiJoin: physical.EquiJoin{
				Left: physical.NewLocalScan(pAttrs, pRows), Right: exchange(physical.BroadcastExchange, build), Type: plan.InnerJoin,
				LeftKeys: []expr.Expression{pAttrs[0]}, RightKeys: []expr.Expression{bAttrs[0]}}}
		},
		"fused": func(build physical.SparkPlan) physical.SparkPlan {
			return physical.Fuse(&physical.BroadcastHashJoinExec{BuildRight: true, EquiJoin: physical.EquiJoin{
				Left: cached, Right: exchange(physical.BroadcastExchange, build), Type: plan.InnerJoin,
				LeftKeys: []expr.Expression{pAttrs[0]}, RightKeys: []expr.Expression{bAttrs[0]}}})
		},
		"nested loop": func(build physical.SparkPlan) physical.SparkPlan {
			return &physical.NestedLoopJoinExec{Left: physical.NewLocalScan(pAttrs, pRows), Right: exchange(physical.BroadcastExchange, build),
				Type: plan.InnerJoin, Cond: expr.LT(pAttrs[0], bAttrs[0])}
		},
		"interval": func(build physical.SparkPlan) physical.SparkPlan {
			return &rangejoin.IntervalJoinExec{Left: build, Right: physical.NewLocalScan(pAttrs, pRows),
				LeftStart: bAttrs[0], LeftEnd: bAttrs[1], RightPoint: pAttrs[0]}
		},
		"shuffle map side": func(build physical.SparkPlan) physical.SparkPlan {
			orders := []*expr.SortOrder{{Child: bAttrs[1], Descending: true}}
			return &physical.SortExec{Global: true, Orders: orders, Child: &physical.ExchangeExec{Form: physical.RangeExchange, Child: build, Orders: orders}}
		},
		"top-K candidates": func(build physical.SparkPlan) physical.SparkPlan {
			return &physical.TopKExec{N: 3, Child: build, Orders: []*expr.SortOrder{{Child: bAttrs[1]}}}
		},
		"skew-split join": func(build physical.SparkPlan) physical.SparkPlan {
			probe := exchange(physical.HashExchange, physical.NewLocalScan(pAttrs, pRows), pAttrs[0])
			probe.SkewSplits = []int{2, 2}
			return &physical.ShuffledHashJoinExec{EquiJoin: physical.EquiJoin{
				Left: probe, Right: exchange(physical.HashExchange, build, bAttrs[0]), Type: plan.InnerJoin,
				LeftKeys: []expr.Expression{pAttrs[0]}, RightKeys: []expr.Expression{bAttrs[0]}}}
		},
	}
	for name, join := range cases {
		var hold atomic.Bool
		hold.Store(true)
		started := make(chan struct{})
		p := join(gatedScan(bAttrs, bRows, &hold, started))
		if _, fused := p.(*physical.FusedBroadcastJoinExec); fused != (name == "fused") {
			t.Fatalf("%s planned as %T", name, p)
		}
		ctx := &physical.ExecContext{RDD: rdd.NewContext(2), Codegen: true, ShufflePartitions: 2}
		r := p.Execute(ctx)

		jc, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1) // the one send must not block after a test failure
		go func() {
			_, err := r.CollectContext(jc)
			errc <- err
		}()
		<-started // the stage is running, ahead of the tasks that read it
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled mid-stage, got %v", name, err)
		}

		hold.Store(false)
		got, err := r.Collect()
		if err != nil {
			t.Fatalf("%s: the cancelled stage poisoned the next run: %v", name, err)
		}
		want, err := join(gatedScan(bAttrs, bRows, &hold, started)).Execute(ctx).Collect()
		if err != nil || len(got) == 0 || canon(got) != canon(want) {
			t.Fatalf("%s: after a cancelled stage %v, a fresh operator gives %v (%v)", name, got, want, err)
		}
		if n := ctx.RDD.Metrics().Counter("rdd.stages.nested").Load(); n != 0 {
			t.Fatalf("%s: rdd.stages.nested = %d: a task ran a stage the action did not", name, n)
		}
	}
}
