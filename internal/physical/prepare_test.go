package physical

import (
	"context"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/row"
	"repro/internal/types"
)

// A plan no preparation rule matches comes back as the very tree it went in
// as, and preparing it costs each rule only the Children slices its walk asks
// for: on Sort → HashAggregate → Limit → LocalScan, three rules of three
// one-child nodes, 9 allocations.
func TestPrepareReturnsUnmatchedTree(t *testing.T) {
	attrs := attrsOf([]string{"k", "v"}, []types.DataType{types.Int, types.Int})
	var p SparkPlan = &SortExec{Orders: []*expr.SortOrder{expr.Asc(attrs[0])}, Global: true,
		Child: &HashAggregateExec{
			Grouping: []expr.Expression{attrs[0]},
			Aggs:     []expr.Expression{attrs[0], expr.NewAlias(&expr.Sum{Child: attrs[1]}, "s")},
			Child:    &LimitExec{N: 10, Child: NewLocalScan(attrs, []row.Row{{int32(1), int32(2)}})},
		}}
	pl := NewPlanner(DefaultPlannerConfig())
	if got, err := pl.Prepare.Execute(p); err != nil || got != p {
		t.Fatalf("Prepare.Execute rebuilt a tree no rule matches (err %v):\n%s", err, got)
	}
	if allocs := testing.AllocsPerRun(100, func() { pl.Prepare.Execute(p) }); allocs > 9 {
		t.Fatalf("preparing an unmatched 4-node chain allocated %.0f times, want <= 9", allocs)
	}
}

// joinPlan is a global sort over a shuffled join of a filtered scan and a
// scan. Its static post-order ordinals: left scan 0, left pipeline 1 (after
// Collapse), left hash exchange 2, right scan 3, right hash exchange 4, join 5,
// range exchange 6, sort 7.
func joinPlan() SparkPlan {
	l := attrsOf([]string{"lk", "lv"}, []types.DataType{types.Int, types.Int})
	r := attrsOf([]string{"rk", "rv"}, []types.DataType{types.Int, types.Int})
	var lrows, rrows []row.Row
	for i := range 40 {
		lrows = append(lrows, row.Row{int32(i % 7), int32(i)})
		rrows = append(rrows, row.Row{int32(i % 5), int32(-i)})
	}
	return Collapse(globalSort([]*expr.SortOrder{expr.Asc(l[1]), expr.Asc(r[1])}, shuffledJoin(EquiJoin{
		Left:     &FilterExec{Cond: expr.GT(l[1], expr.Lit(int32(3))), Child: NewLocalScan(l, lrows)},
		Right:    NewLocalScan(r, rrows),
		LeftKeys: []expr.Expression{l[0]}, RightKeys: []expr.Expression{r[0]},
		Type: plan.InnerJoin,
	}, 0)))
}

// The adaptive driver names each decision by its exchange's post-order
// ordinal in the static plan, and replaying its decisions over the static
// plan rebuilds the tree it executed.
func TestAdaptiveDecisionsReplayByOrdinal(t *testing.T) {
	static := joinPlan()
	ctx := execCtx(true)
	ctx.Adaptive = true
	adapted, ds, err := AdaptPlan(context.Background(), ctx, static)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 || ds[0].Stage != 2 || ds[1].Stage != 4 || ds[2].Stage != 6 ||
		ds[0].Kind != "coalesce" || ds[1].Kind != "coalesce" || ds[2].Kind != "coalesce" {
		t.Fatalf("decisions %+v, want coalesces at the join's exchanges (2, 4) and the sort's (6)", ds)
	}
	replayed, err := ApplyDecisions(static, ds)
	if err != nil {
		t.Fatal(err)
	}
	if Format(replayed) != Format(adapted) {
		t.Fatalf("replay:\n%s\nexecuted:\n%s", Format(replayed), Format(adapted))
	}
	if !rowsEqual(collect(t, replayed, execCtx(true)), collect(t, static, execCtx(true))) {
		t.Fatal("the replayed plan answers differently from the static plan")
	}
}

func TestApplyDecisionsByOrdinal(t *testing.T) {
	static := joinPlan()
	if got, err := ApplyDecisions(static, nil); err != nil || got != static {
		t.Fatalf("no decisions rebuilt the plan (err %v)", err)
	}
	got, err := ApplyDecisions(static, []Decision{
		{Stage: 4, Kind: "promote", BuildRight: true, Note: "adapted: promoted"},
		{Stage: 6, Kind: "coalesce", Parts: 1, Note: "adapted: coalesced"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sort := got.(*SortExec)
	rangeEx := exchangeOf(sort.Child)
	bhj, ok := rangeEx.Child.(*BroadcastHashJoinExec)
	if !ok || !bhj.BuildRight || exchangeOf(bhj.Right).Form != BroadcastExchange || exchangeOf(bhj.Right).Adapted() != "adapted: promoted" ||
		rangeEx.Partitions != 1 || rangeEx.Adapted() != "adapted: coalesced" {
		t.Fatalf("decisions applied to the wrong nodes:\n%s", Format(got))
	}
	shj := exchangeOf(static.(*SortExec).Child).Child.(*ShuffledHashJoinExec)
	if bhj.Left != shj.Left || exchangeOf(bhj.Right).Child != exchangeOf(shj.Right).Child || exchangeOf(static.(*SortExec).Child).Partitions != 0 {
		t.Fatal("replay must reuse untouched subtrees and leave the static plan as it was")
	}
}

// A decision that names no node, or a node its kind cannot rewrite, refuses
// the whole list: a worker then falls back instead of running another plan.
func TestApplyDecisionsRefuses(t *testing.T) {
	for _, c := range []struct {
		d    Decision
		want string
	}{
		{Decision{Stage: 8, Kind: "coalesce", Parts: 1}, "coalesce decision names stage 8 of a 8-node plan"},
		{Decision{Stage: -1, Kind: "skew"}, "skew decision names stage -1 of a 8-node plan"},
		{Decision{Stage: 0, Kind: "coalesce", Parts: 1}, "coalesce decision on *physical.ScanExec"},
		{Decision{Stage: 1, Kind: "promote"}, "promote decision on *physical.PipelineExec"},
		{Decision{Stage: 6, Kind: "skew", Splits: []int{2}}, "skew decision on a range exchange"},
		{Decision{Stage: 2, Kind: "demote"}, "demote decision on a hash exchange"},
		{Decision{Stage: 2, Kind: "reorder"}, `unknown decision kind "reorder"`},
	} {
		ds := []Decision{{Stage: 6, Kind: "coalesce", Parts: 1}, c.d}
		if got, err := ApplyDecisions(joinPlan(), ds); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got %v, err %v; want an error naming %q", c.d, got, err, c.want)
		}
	}
}
