package plan_test

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/row"
	"repro/internal/stats"
	"repro/internal/types"
)

var leafSchema = types.NewStruct(
	types.StructField{Name: "k", Type: types.Long, Nullable: false},
	types.StructField{Name: "s", Type: types.String, Nullable: false},
)

func leafRows(n int) []row.Row {
	rows := make([]row.Row, n)
	for i := range rows {
		rows[i] = row.Row{int64(i), fmt.Sprintf("s%d", i%10)}
	}
	return rows
}

// A relation's rows are walked for their flat size once per relation: the
// two copies the analyzer makes of a self-joined table share the walk, and
// planning the join again adds none.
func TestLocalRelationSizedOnce(t *testing.T) {
	rel := plan.NewLocalRelation(leafSchema, leafRows(50_000))
	cat := analysis.NewCatalog()
	cat.RegisterTable("t", rel)
	selfJoin := func() plan.LogicalPlan {
		return &plan.Join{
			Left:  &plan.SubqueryAlias{Name: "a", Child: &plan.UnresolvedRelation{Name: "t"}},
			Right: &plan.SubqueryAlias{Name: "b", Child: &plan.UnresolvedRelation{Name: "t"}},
			Type:  plan.InnerJoin,
			Cond:  expr.EQ(expr.UnresolvedAttr("a", "k"), expr.UnresolvedAttr("b", "k")),
		}
	}
	before := plan.FlatSizeWalks.Load()
	var want plan.Statistics
	for i := 0; i < 2; i++ {
		analyzed, err := analysis.Analyze(cat, selfJoin())
		if err != nil {
			t.Fatal(err)
		}
		j := analyzed.(*plan.Join)
		if l, r := leafOf(j.Left), leafOf(j.Right); l == r || &l.Rows[0] != &r.Rows[0] {
			t.Fatalf("self-join sides must be two relations over the same rows: %p %p", l, r)
		}
		if _, err := physical.NewPlanner(physical.PlannerConfig{BroadcastThreshold: 1 << 20}).Plan(analyzed); err != nil {
			t.Fatal(err)
		}
		got := plan.Stats(j.Right)
		if i == 0 {
			want = plan.Stats(rel)
		}
		if got.SizeInBytes != want.SizeInBytes || got.RowCount != 50_000 || got.SizeInBytes == 0 {
			t.Fatalf("round %d: copy estimates %+v, the catalog relation %+v", i, got, want)
		}
	}
	if walks := plan.FlatSizeWalks.Load() - before; walks != 1 {
		t.Fatalf("rows walked %d times, want once", walks)
	}
}

func leafOf(p plan.LogicalPlan) *plan.LocalRelation {
	for {
		if l, ok := p.(*plan.LocalRelation); ok {
			return l
		}
		p = p.Children()[0]
	}
}

// Collected statistics still win over the flat size, and a relation built
// as a bare literal — no memo cell — estimates the same as a constructed one.
func TestLocalRelationStatsSources(t *testing.T) {
	rows := leafRows(1000)
	built := plan.NewLocalRelation(leafSchema, rows)
	literal := &plan.LocalRelation{Attrs: built.Attrs, Rows: rows}
	for i := 0; i < 2; i++ {
		if b, l := plan.Stats(built), plan.Stats(literal); l.SizeInBytes != b.SizeInBytes || l.RowCount != 1000 || l.SizeInBytes == 0 {
			t.Fatalf("literal estimates %+v, constructed %+v", l, b)
		}
	}
	if s := plan.Stats(&plan.LocalRelation{}); s.SizeInBytes != 0 || s.RowCount != 0 {
		t.Fatalf("empty literal estimates %+v", s)
	}
	flat := plan.Stats(built)
	ts := stats.FromRows(leafSchema, rows)
	ts.SizeInBytes = flat.SizeInBytes + 12345
	built.TableStats = ts
	if s := plan.Stats(built); s.SizeInBytes != ts.SizeInBytes || len(s.Columns) == 0 {
		t.Fatalf("collected statistics ignored: %+v", s)
	}
}
