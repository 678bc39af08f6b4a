package plan

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/expr"
	"repro/internal/row"
	"repro/internal/stats"
	"repro/internal/types"
)

// statRelation builds a 1000-row relation with collected statistics:
// k uniform over [0,100), v uniform over [0,1000), s cycling 10 strings.
func statRelation(t *testing.T) *LocalRelation {
	t.Helper()
	schema := types.NewStruct(
		types.StructField{Name: "k", Type: types.Long, Nullable: false},
		types.StructField{Name: "v", Type: types.Long, Nullable: true},
		types.StructField{Name: "s", Type: types.String, Nullable: false},
	)
	var rows []row.Row
	for i := 0; i < 1000; i++ {
		var v any = int64(i % 1000)
		if i%20 == 0 {
			v = nil
		}
		rows = append(rows, row.Row{int64(i % 100), v, fmt.Sprintf("s%d", i%10)})
	}
	rel := NewLocalRelation(schema, rows)
	rel.TableStats = stats.FromRows(schema, rows)
	return rel
}

// Property: every predicate shape yields a selectivity within [0, 1].
func TestSelectivityBounds(t *testing.T) {
	rel := statRelation(t)
	s := Stats(rel)
	k, v := rel.Attrs[0], rel.Attrs[1]
	preds := []expr.Expression{
		expr.Lit(true), expr.Lit(false), expr.Lit(nil),
		expr.EQ(k, expr.Lit(int64(5))),
		expr.EQ(k, expr.Lit(int64(-1000))), // outside [min,max]
		expr.NEQ(k, expr.Lit(int64(5))),
		expr.LT(k, expr.Lit(int64(-5))),
		expr.LT(k, expr.Lit(int64(1_000_000))),
		expr.GE(v, expr.Lit(int64(500))),
		expr.GT(expr.Lit(int64(50)), k), // literal on the left
		&expr.And{Left: expr.LT(k, expr.Lit(int64(50))), Right: expr.GE(v, expr.Lit(int64(100)))},
		&expr.Or{Left: expr.EQ(k, expr.Lit(int64(1))), Right: expr.EQ(k, expr.Lit(int64(2)))},
		&expr.Not{Child: expr.LE(k, expr.Lit(int64(10)))},
		&expr.IsNull{Child: v},
		&expr.IsNotNull{Child: v},
		&expr.In{Value: k, List: []expr.Expression{expr.Lit(int64(1)), expr.Lit(int64(2))}},
		expr.EQ(k, v), // attr-attr comparison
	}
	for _, p := range preds {
		sel := Selectivity(p, s)
		if sel < 0 || sel > 1 {
			t.Errorf("Selectivity(%s) = %v out of [0,1]", p, sel)
		}
	}
	// Deep conjunctions stay bounded.
	deep := expr.Expression(expr.Lit(true))
	for i := 0; i < 40; i++ {
		deep = &expr.And{Left: deep, Right: expr.LT(k, expr.Lit(int64(90-i)))}
	}
	if sel := Selectivity(deep, s); sel < 0 || sel > 1 {
		t.Errorf("deep conjunction selectivity = %v", sel)
	}
}

// Property: tightening a range predicate never increases the estimated
// cardinality (monotone propagation).
func TestSelectivityMonotone(t *testing.T) {
	rel := statRelation(t)
	k := rel.Attrs[0]
	prevRows := int64(-1)
	for lim := int64(0); lim <= 110; lim += 10 {
		f := &Filter{Cond: expr.LT(k, expr.Lit(lim)), Child: rel}
		s := Stats(f)
		if prevRows >= 0 && s.RowCount < prevRows {
			t.Fatalf("lim=%d rows=%d < previous %d (not monotone)", lim, s.RowCount, prevRows)
		}
		prevRows = s.RowCount
	}
	// Stacked filters keep shrinking (min/max tightening composes).
	one := Stats(&Filter{Cond: expr.LT(k, expr.Lit(int64(50))), Child: rel})
	two := Stats(&Filter{
		Cond:  expr.LT(k, expr.Lit(int64(25))),
		Child: &Filter{Cond: expr.LT(k, expr.Lit(int64(50))), Child: rel},
	})
	if two.RowCount > one.RowCount {
		t.Fatalf("stacked filter rows=%d > single filter rows=%d", two.RowCount, one.RowCount)
	}
}

// Equality selectivity uses 1/NDV; range selectivity interpolates min/max.
func TestSelectivityFromColumnStats(t *testing.T) {
	rel := statRelation(t)
	s := Stats(rel)
	k := rel.Attrs[0] // 100 distinct values
	if got := Selectivity(expr.EQ(k, expr.Lit(int64(7))), s); got < 0.005 || got > 0.02 {
		t.Errorf("eq selectivity = %v, want ~1/100", got)
	}
	if got := Selectivity(expr.LT(k, expr.Lit(int64(50))), s); got < 0.4 || got > 0.6 {
		t.Errorf("range selectivity = %v, want ~0.5", got)
	}
	if got := Selectivity(expr.EQ(k, expr.Lit(int64(12345))), s); got != 0 {
		t.Errorf("out-of-range equality selectivity = %v, want 0", got)
	}
}

func TestJoinCardinality(t *testing.T) {
	fact := statRelation(t) // 1000 rows, k has 100 distinct
	dim := statRelation(t)  // reused schema; fresh attrs
	dimAttrs := make([]*expr.AttributeReference, len(dim.Attrs))
	for i, a := range dim.Attrs {
		dimAttrs[i] = a.WithFreshID()
	}
	dim.Attrs = dimAttrs
	j := &Join{
		Left: fact, Right: dim, Type: InnerJoin,
		Cond: expr.EQ(fact.Attrs[0], dim.Attrs[0]),
	}
	s := Stats(j)
	// |L|*|R|/max(ndv) = 1000*1000/100 = 10000.
	if s.RowCount < 5_000 || s.RowCount > 20_000 {
		t.Fatalf("join cardinality = %d, want ~10000", s.RowCount)
	}
	if s.SizeInBytes <= 0 || s.SizeInBytes >= defaultSizeInBytes {
		t.Fatalf("join size = %d", s.SizeInBytes)
	}
}

func TestAggregateCardinalityFromNDV(t *testing.T) {
	rel := statRelation(t)
	k := rel.Attrs[0]
	agg := &Aggregate{
		Grouping: []expr.Expression{k},
		Aggs:     []expr.Expression{k},
		Child:    rel,
	}
	s := Stats(agg)
	if s.RowCount != 100 {
		t.Fatalf("aggregate rows = %d, want 100 (group-key NDV)", s.RowCount)
	}
	// Ungrouped aggregates produce one row.
	global := &Aggregate{
		Aggs:  []expr.Expression{expr.NewAlias(k, "any_k")},
		Child: rel,
	}
	if s := Stats(global); s.RowCount != 1 {
		t.Fatalf("global aggregate rows = %d, want 1", s.RowCount)
	}
}

// Property: a grouping expression's NDV comes from its column where the
// expression bounds it — SUBSTR(col, …) by NDV(col), col % c by 2|c|−1 (|c|
// over a non-negative column) and by NDV(col) — and everything else,
// nested expressions included, keeps the RowCount/16 fallback. No estimate
// exceeds the child's rows or drops below one.
func TestAggregateCardinalityFromKeyExpressions(t *testing.T) {
	rel := statRelation(t) // k: [0,100), 100 distinct; s: 10 distinct
	k, s := rel.Attrs[0], rel.Attrs[2]
	// d: [-50,50), 100 distinct, so its remainders take either sign.
	dSchema := types.NewStruct(types.StructField{Name: "d", Type: types.Long, Nullable: false})
	var dRows []row.Row
	for i := 0; i < 1000; i++ {
		dRows = append(dRows, row.Row{int64(i%100 - 50)})
	}
	signed := NewLocalRelation(dSchema, dRows)
	signed.TableStats = stats.FromRows(dSchema, dRows)
	d := signed.Attrs[0]
	// The same rows without statistics: only the row count is known.
	bare := statRelation(t)
	bare.TableStats = nil
	bk, bs := bare.Attrs[0], bare.Attrs[2]

	substr := func(e expr.Expression) expr.Expression {
		return &expr.Substring{Str: e, Pos: expr.Lit(int32(1)), Len: expr.Lit(int32(1))}
	}
	mod := func(e expr.Expression, c int64) expr.Expression { return expr.Mod(e, expr.Lit(c)) }
	const fallback = 1000 / 16
	for _, tc := range []struct {
		name  string
		child LogicalPlan
		key   expr.Expression
		want  int64
	}{
		{"substr with stats", rel, substr(s), 10},
		{"substr without stats", bare, substr(bs), fallback},
		{"mod over a non-negative column", rel, mod(k, 7), 7},
		{"mod by a negative literal", rel, mod(k, -7), 7},
		{"mod with NDV below |c|", rel, mod(k, 1000), 100},
		{"mod over a signed column", signed, mod(d, 7), 13},
		{"mod by a negative literal over a signed column", signed, mod(d, -7), 13},
		{"mod over a signed column with NDV below 2|c|-1", signed, mod(d, 60), 100},
		{"mod without stats", bare, mod(bk, 7), 13},
		{"mod by zero", rel, mod(k, 0), fallback},
		{"nested substr", rel, substr(substr(s)), fallback},
		{"nested mod", rel, mod(expr.Add(k, expr.Lit(int64(1))), 7), fallback},
		{"mod by a column", rel, expr.Mod(k, k), fallback},
	} {
		agg := &Aggregate{Grouping: []expr.Expression{tc.key}, Aggs: []expr.Expression{expr.NewAlias(tc.key, "g")}, Child: tc.child}
		got := Stats(agg).RowCount
		if got != tc.want {
			t.Errorf("%s: GROUP BY %s estimates %d groups, want %d", tc.name, tc.key, got, tc.want)
		}
		if rows := Stats(tc.child).RowCount; got < 1 || got > rows {
			t.Errorf("%s: %d groups out of [1, %d]", tc.name, got, rows)
		}
	}
}

// Figure 8's Q2a groups 150 000 uservisits by SUBSTR(sourceIP, 1, 8): its
// estimate is within q-error 4 of the groups it actually has.
func TestQ2GroupEstimateWithinQError(t *testing.T) {
	const n = 150_000
	schema := datagen.UserVisitsSchema()
	rows := make([]row.Row, n)
	prefixes := make(map[string]struct{})
	for i := range rows {
		rows[i] = datagen.UserVisitRow(7, int64(i), n/3)
		ip := rows[i][0].(string)
		prefixes[ip[:min(8, len(ip))]] = struct{}{}
	}
	rel := NewLocalRelation(schema, rows)
	rel.TableStats = stats.FromRows(schema, rows)
	key := &expr.Substring{Str: rel.Attrs[0], Pos: expr.Lit(int32(1)), Len: expr.Lit(int32(8))}
	agg := &Aggregate{Grouping: []expr.Expression{key}, Aggs: []expr.Expression{expr.NewAlias(key, "p")}, Child: rel}
	est, actual := float64(Stats(agg).RowCount), float64(len(prefixes))
	if q := max(est/actual, actual/est); q > 4 {
		t.Fatalf("Q2a estimates %.0f groups for %.0f: q-error %.2f > 4", est, actual, q)
	}
}

// Satellite regressions: Limit caps unknown-cardinality children with a
// per-row estimate; Sample/Aggregate no longer zero out row counts.
func TestLimitCapsUnknownChild(t *testing.T) {
	huge := &LogicalRDD{Attrs: statRelation(t).Attrs} // unknown size
	s := Stats(&Limit{N: 10, Child: huge})
	if s.RowCount != 10 {
		t.Fatalf("limit rows = %d, want 10", s.RowCount)
	}
	if s.SizeInBytes >= 1<<20 {
		t.Fatalf("LIMIT 10 over unknown scan estimated at %d bytes — defeats broadcast", s.SizeInBytes)
	}
}

func TestSampleAndAggregateKeepRowCounts(t *testing.T) {
	rel := statRelation(t)
	if s := Stats(&Sample{Fraction: 0.1, Seed: 1, Child: rel}); s.RowCount != 100 {
		t.Fatalf("sample rows = %d, want 100", s.RowCount)
	}
	// Sized-but-uncounted child: row count is derived, not dropped to 0.
	sized := &LogicalRDD{Attrs: rel.Attrs, SizeHint: 44 * 1000}
	if s := Stats(&Sample{Fraction: 0.5, Seed: 1, Child: sized}); s.RowCount == 0 {
		t.Fatal("sample over sized relation dropped RowCount to 0")
	}
	agg := &Aggregate{
		Grouping: []expr.Expression{rel.Attrs[0]},
		Aggs:     []expr.Expression{rel.Attrs[0]},
		Child:    sized,
	}
	if s := Stats(agg); s.RowCount == 0 {
		t.Fatal("aggregate over sized relation dropped RowCount to 0")
	}
}

func TestFormatEstimatedAnnotatesEveryResolvedNode(t *testing.T) {
	rel := statRelation(t)
	p := &Limit{N: 5, Child: &Filter{
		Cond:  expr.LT(rel.Attrs[0], expr.Lit(int64(50))),
		Child: rel,
	}}
	out := FormatEstimated(p)
	for i, line := range splitLines(out) {
		if line == "" {
			continue
		}
		if !containsEst(line) {
			t.Fatalf("line %d lacks est annotation: %q", i, line)
		}
	}
	// Unresolved nodes render plain rather than panicking.
	raw := &Filter{Cond: expr.UnresolvedAttr("nope"), Child: &UnresolvedRelation{Name: "t"}}
	if out := FormatEstimated(raw); containsEst(out) {
		t.Fatalf("unresolved plan should not carry estimates: %q", out)
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func containsEst(s string) bool {
	for i := 0; i+4 <= len(s); i++ {
		if s[i:i+4] == "est:" {
			return true
		}
	}
	return false
}
