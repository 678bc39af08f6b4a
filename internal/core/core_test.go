package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/row"
	"repro/internal/types"
)

func usersRelation() *plan.LocalRelation {
	schema := types.NewStruct(
		types.StructField{Name: "name", Type: types.String, Nullable: false},
		types.StructField{Name: "age", Type: types.Int, Nullable: true},
		types.StructField{Name: "deptId", Type: types.Int, Nullable: false},
	)
	return plan.NewLocalRelation(schema, []row.Row{
		{"Alice", int32(22), int32(1)},
		{"Bob", int32(19), int32(2)},
		{"Carol", int32(35), int32(1)},
		{"Dan", nil, int32(2)},
	})
}

func TestFilterProjectEndToEnd(t *testing.T) {
	for _, codegen := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.Codegen = codegen
		e := NewEngine(cfg)
		rel := usersRelation()
		age := rel.Attrs[1]
		name := rel.Attrs[0]

		lp := &plan.Project{
			List: []expr.Expression{name},
			Child: &plan.Filter{
				Cond:  expr.LT(age, expr.Lit(21)),
				Child: rel,
			},
		}
		qe, err := e.Execute(lp)
		if err != nil {
			t.Fatalf("codegen=%v: %v", codegen, err)
		}
		rows, err := qe.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0] != "Bob" {
			t.Fatalf("codegen=%v: got %v, want [Bob]", codegen, rows)
		}
	}
}

func TestGroupByCountEndToEnd(t *testing.T) {
	e := NewEngine(DefaultConfig())
	rel := usersRelation()
	dept := rel.Attrs[2]

	lp := &plan.Aggregate{
		Grouping: []expr.Expression{dept},
		Aggs: []expr.Expression{
			dept,
			expr.NewAlias(expr.NewCountStar(), "n"),
			expr.NewAlias(&expr.Avg{Child: rel.Attrs[1]}, "avgAge"),
		},
		Child: rel,
	}
	qe, err := e.Execute(lp)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := qe.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d groups, want 2: %v", len(rows), rows)
	}
	byDept := map[int32]row.Row{}
	for _, r := range rows {
		byDept[r[0].(int32)] = r
	}
	if byDept[1][1] != int64(2) || byDept[2][1] != int64(2) {
		t.Fatalf("counts wrong: %v", rows)
	}
	if got := byDept[1][2].(float64); got != 28.5 {
		t.Fatalf("avg dept1 = %v, want 28.5", got)
	}
	// Dan's NULL age is excluded from AVG.
	if got := byDept[2][2].(float64); got != 19 {
		t.Fatalf("avg dept2 = %v, want 19", got)
	}
}

func TestJoinEndToEnd(t *testing.T) {
	e := NewEngine(DefaultConfig())
	users := usersRelation()
	depts := plan.NewLocalRelation(types.NewStruct(
		types.StructField{Name: "id", Type: types.Int, Nullable: false},
		types.StructField{Name: "dept", Type: types.String, Nullable: false},
	), []row.Row{
		{int32(1), "eng"},
		{int32(2), "sales"},
	})

	lp := &plan.Project{
		List: []expr.Expression{users.Attrs[0], depts.Attrs[1]},
		Child: &plan.Join{
			Left:  plan.LogicalPlan(users),
			Right: depts,
			Type:  plan.InnerJoin,
			Cond:  expr.EQ(users.Attrs[2], depts.Attrs[0]),
		},
	}
	qe, err := e.Execute(lp)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := qe.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4: %v", len(rows), rows)
	}
}

func TestUnresolvedColumnFailsEagerly(t *testing.T) {
	e := NewEngine(DefaultConfig())
	rel := usersRelation()
	lp := &plan.Filter{
		Cond:  expr.LT(expr.UnresolvedAttr("nosuch"), expr.Lit(21)),
		Child: rel,
	}
	if _, err := e.Execute(lp); err == nil {
		t.Fatal("expected analysis error for unknown column")
	}
}

func TestSharkConfigProducesSameResults(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), SharkConfig()} {
		e := NewEngine(cfg)
		rel := usersRelation()
		lp := &plan.Aggregate{
			Grouping: nil,
			Aggs:     []expr.Expression{expr.NewAlias(&expr.Sum{Child: rel.Attrs[1]}, "s")},
			Child:    rel,
		}
		qe, err := e.Execute(lp)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := qe.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0] != int64(76) {
			t.Fatalf("sum = %v, want 76", rows)
		}
	}
}

// A statement's event pays for its own spans: finishEvent over a full trace
// ring allocates within 16 KB of the same call over a ring holding only the
// statement's spans.
func TestFinishEventCostsOwnSpans(t *testing.T) {
	e := NewEngine(DefaultConfig())
	q, err := e.Execute(usersRelation())
	if err != nil {
		t.Fatal(err)
	}
	tb := e.RDDCtx.Trace()
	own := func() {
		for i := 0; i < 12; i++ {
			tb.Append(metrics.Span{Trace: "q-own", Kind: metrics.SpanTask, Partition: i})
		}
	}
	perEvent := func() int64 {
		const runs = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			q.finishEvent(queryTrace{id: "q-own"}, "collect", time.Now(), 4, nil)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	own()
	empty := perEvent()
	for i := 0; i < metrics.DefaultTraceCapacity; i++ {
		tb.Append(metrics.Span{Trace: "q-other", Kind: metrics.SpanTask, Partition: i})
	}
	own()
	if tb.Len() != metrics.DefaultTraceCapacity {
		t.Fatalf("ring holds %d spans, want it full", tb.Len())
	}
	if full := perEvent(); full-empty > 16<<10 {
		t.Fatalf("finishEvent allocates %d B over a full ring, %d B over an empty one", full, empty)
	}
	if ev := e.Events.Events(); len(ev[len(ev)-1].Workers) != 1 || ev[len(ev)-1].Workers[0].Tasks != 12 {
		t.Fatalf("event counts %+v, want the statement's 12 task spans", ev[len(ev)-1].Workers)
	}
}
