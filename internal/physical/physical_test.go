package physical

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/columnar"
	"repro/internal/dfs"
	"repro/internal/expr"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/types"
)

func execCtx(codegen bool) *ExecContext {
	return &ExecContext{RDD: rdd.NewContext(4), Codegen: codegen, ShufflePartitions: 3, Planner: PlannerConfig{TargetPartitionBytes: 4 << 20}}
}

func attrsOf(names []string, ts []types.DataType) []*expr.AttributeReference {
	out := make([]*expr.AttributeReference, len(names))
	for i := range names {
		out[i] = expr.NewAttribute(names[i], ts[i], true)
	}
	return out
}

func collect(t *testing.T, p SparkPlan, ctx *ExecContext) []row.Row {
	t.Helper()
	rows, err := p.Execute(ctx).Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return rows
}

func sortRows(rows []row.Row) {
	sort.Slice(rows, func(i, j int) bool {
		return row.Compare(rows[i], rows[j]) < 0
	})
}

func rowsEqual(a, b []row.Row) bool {
	if len(a) != len(b) {
		return false
	}
	sortRows(a)
	sortRows(b)
	for i := range a {
		if row.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

func TestProjectAndFilterExec(t *testing.T) {
	attrs := attrsOf([]string{"a"}, []types.DataType{types.Int})
	scan := NewLocalScan(attrs, []row.Row{{int32(1)}, {int32(2)}, {int32(3)}, {nil}})
	p := &ProjectExec{
		List:  []expr.Expression{expr.NewAlias(expr.Add(attrs[0], expr.Lit(int32(10))), "a10")},
		Child: &FilterExec{Cond: expr.GT(attrs[0], expr.Lit(int32(1))), Child: scan},
	}
	for _, codegen := range []bool{true, false} {
		got := collect(t, p, execCtx(codegen))
		if len(got) != 2 {
			t.Fatalf("codegen=%v rows=%v", codegen, got)
		}
	}
}

func TestPipelineCollapseEquivalence(t *testing.T) {
	attrs := attrsOf([]string{"a", "b"}, []types.DataType{types.Int, types.Int})
	var rows []row.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, row.Row{int32(i), int32(i % 7)})
	}
	scan := NewLocalScan(attrs, rows)
	f1 := &FilterExec{Cond: expr.GT(attrs[0], expr.Lit(int32(10))), Child: scan}
	p1 := &ProjectExec{
		List: []expr.Expression{
			attrs[0],
			expr.NewAlias(expr.Mul(attrs[1], expr.Lit(int32(2))), "b2"),
		},
		Child: f1,
	}
	var plain SparkPlan = &FilterExec{Cond: expr.LT(p1.Output()[1], expr.Lit(int32(10))), Child: p1}
	// Collapse builds a new tree (operators are immutable), so the same
	// plan can execute both ways.
	collapsed := Collapse(plain)
	if _, isPipe := collapsed.(*PipelineExec); !isPipe {
		t.Fatalf("chain should fuse into a pipeline, got %T", collapsed)
	}
	if got := len(collapsed.(*PipelineExec).Stages); got != 3 {
		t.Fatalf("fused stages = %d, want 3", got)
	}
	a := collect(t, plain, execCtx(true))
	b := collect(t, collapsed, execCtx(true))
	if !rowsEqual(a, b) {
		t.Fatalf("collapse changed results: %v vs %v", a, b)
	}
	// Output schema matches too.
	if attrsString(plain.Output()) != attrsString(collapsed.Output()) {
		t.Fatalf("output mismatch: %v vs %v", plain.Output(), collapsed.Output())
	}
}

func TestHashAggregateGroupedAndGlobal(t *testing.T) {
	attrs := attrsOf([]string{"k", "v"}, []types.DataType{types.Int, types.Int})
	rows := []row.Row{
		{int32(1), int32(10)},
		{int32(2), int32(20)},
		{int32(1), int32(30)},
		{int32(2), nil},
	}
	scan := NewLocalScan(attrs, rows)
	agg := &HashAggregateExec{
		Grouping: []expr.Expression{attrs[0]},
		Aggs: []expr.Expression{
			attrs[0],
			expr.NewAlias(&expr.Sum{Child: attrs[1]}, "s"),
			expr.NewAlias(&expr.Count{Child: attrs[1]}, "c"),
			expr.NewAlias(&expr.Avg{Child: attrs[1]}, "a"),
		},
		Child: scan,
	}
	for _, codegen := range []bool{true, false} { // covers fast + generic paths
		got := collect(t, agg, execCtx(codegen))
		if len(got) != 2 {
			t.Fatalf("groups = %v", got)
		}
		byKey := map[int32]row.Row{}
		for _, r := range got {
			byKey[r[0].(int32)] = r
		}
		if byKey[1][1] != int64(40) || byKey[1][2] != int64(2) || byKey[1][3] != 20.0 {
			t.Fatalf("codegen=%v group1 = %v", codegen, byKey[1])
		}
		if byKey[2][1] != int64(20) || byKey[2][2] != int64(1) {
			t.Fatalf("codegen=%v group2 = %v", codegen, byKey[2])
		}
	}

	// Global aggregate over empty input yields a single row.
	empty := NewLocalScan(attrs, nil)
	global := &HashAggregateExec{
		Aggs: []expr.Expression{
			expr.NewAlias(expr.NewCountStar(), "n"),
			expr.NewAlias(&expr.Sum{Child: attrs[1]}, "s"),
		},
		Child: empty,
	}
	got := collect(t, global, execCtx(true))
	if len(got) != 1 || got[0][0] != int64(0) || got[0][1] != nil {
		t.Fatalf("empty global agg = %v", got)
	}
}

func TestAggregateWithExpressionOverAggs(t *testing.T) {
	// avg(v) embedded in an arithmetic expression + grouping expr reuse:
	// the splitAggregates machinery.
	attrs := attrsOf([]string{"k", "v"}, []types.DataType{types.Int, types.Int})
	rows := []row.Row{{int32(1), int32(10)}, {int32(1), int32(20)}}
	agg := &HashAggregateExec{
		Grouping: []expr.Expression{attrs[0]},
		Aggs: []expr.Expression{
			expr.NewAlias(expr.Add(expr.NewCast(attrs[0], types.Double), &expr.Avg{Child: attrs[1]}), "kPlusAvg"),
		},
		Child: NewLocalScan(attrs, rows),
	}
	got := collect(t, agg, execCtx(true))
	if len(got) != 1 || got[0][0] != 16.0 { // 1 + 15
		t.Fatalf("got %v", got)
	}
}

// An aggregate's rows and their order depend only on the data and the
// session's bucket count: forcing its reduce tasks through every count from 1
// to the buckets, over a fused pipeline and over rows transposed (compiled and
// interpreted), at budgets ∞, 64 KB and 1 B, returns the same rows in the same
// order — the reducers fold whole buckets, one after another. The wide table's
// keys are ~90 % distinct over two partitions of 9 000 rows (3 773 and 4 054
// groups in their windows, over partialMaxGroups), so its map tasks stop
// partial aggregation after their window and pass one-row partials on.
func TestAggregateOrderIndependentOfReducers(t *testing.T) {
	const buckets = 4
	attrs := attrsOf([]string{"k", "v", "s"}, []types.DataType{types.Long, types.Long, types.String})
	schema := types.StructType{}
	for _, a := range attrs {
		schema = schema.Add(a.Name, a.DataType(), true)
	}
	rows := make([]row.Row, 3000)
	for i := range rows {
		var k any = int64(i * 7919 % 2003)
		if i%97 == 0 {
			k = nil
		}
		rows[i] = row.Row{k, int64(i), fmt.Sprintf("s%d", i*31%13)}
	}
	var parts [][]row.Row // 5 map partitions of uneven size
	for lo, n := 0, 400; lo < len(rows); lo, n = lo+n, n+100 {
		parts = append(parts, rows[lo:min(lo+n, len(rows))])
	}
	scan := NewInMemoryScan(attrs, columnar.BuildTable(schema, parts, 256), nil, nil)
	wide := make([]row.Row, 18000)
	for i := range wide {
		var k any = int64(i)
		switch {
		case i%97 == 0:
			k = nil
		case i%10 == 0:
			k = int64(i / 10 % 700 * 13)
		}
		wide[i] = row.Row{k, int64(i), fmt.Sprintf("s%d", i*31%13)}
	}
	wideScan := NewInMemoryScan(attrs, columnar.BuildTable(schema, [][]row.Row{wide[:9000], wide[9000:]}, 1000), nil, nil)
	shapes := map[string]struct {
		keys []expr.Expression
		scan SparkPlan
	}{
		"k":           {[]expr.Expression{attrs[0]}, scan},
		"(k, s)":      {[]expr.Expression{expr.Mod(attrs[0], expr.Lit(int64(50))), attrs[2]}, scan},
		"k over wide": {[]expr.Expression{attrs[0]}, wideScan},
	}
	for name, shape := range shapes {
		keys := shape.keys
		aggs := append(slices.Clone(keys),
			expr.NewAlias(&expr.Sum{Child: attrs[1]}, "sum"), expr.NewAlias(expr.NewCountStar(), "n"),
			expr.NewAlias(expr.NewMin(attrs[2]), "min"), expr.NewAlias(&expr.First{Child: attrs[1]}, "first"))
		var want string
		for _, budget := range []int64{0, 64 << 10, 1} {
			for _, engine := range []string{"fused", "row", "interpreted"} {
				for reducers := buckets; reducers >= 1; reducers-- {
					var p SparkPlan = &HashAggregateExec{Grouping: keys, Aggs: aggs, Child: shape.scan, Partitions: reducers}
					if engine == "fused" {
						if p = Fuse(Vectorize(p)); !strings.HasPrefix(p.SimpleString(), "FusedHashAggregate") {
							t.Fatalf("%s: did not fuse: %s", name, p)
						}
					}
					ctx := execCtx(engine != "interpreted")
					ctx.ShufflePartitions = buckets
					if budget > 0 {
						ctx.Pool, ctx.SpillFS = memory.NewPool(budget, nil), dfs.New()
					}
					out := p.Execute(ctx)
					got, err := out.Collect()
					ctx.CleanupSpills()
					if err != nil {
						t.Fatalf("%s %s budget=%d reducers=%d: %v", name, engine, budget, reducers, err)
					}
					if out.NumPartitions() != reducers {
						t.Fatalf("%s %s: %d reduce tasks, want %d", name, engine, out.NumPartitions(), reducers)
					}
					if budget == 1 && ctx.Pool.SpillCount() == 0 {
						t.Fatalf("%s %s: a one-byte budget spilled nothing", name, engine)
					}
					if skipped := ctx.RDD.Metrics().Counter("agg.partial.skipped").Load(); (skipped == 2) != (shape.scan == wideScan) {
						t.Fatalf("%s %s: %d map tasks skipped partial aggregation", name, engine, skipped)
					}
					text := fmt.Sprint(got)
					if want == "" {
						want = text
					} else if text != want {
						t.Fatalf("GROUP BY %s, %s phase 1, budget=%d, %d reducers: rows or order differ from %d buckets in %d reducers:\n got %.300s\nwant %.300s",
							name, engine, budget, reducers, buckets, buckets, text, want)
					}
				}
			}
		}
	}
}

// referenceJoin is a straightforward nested-loop implementation used as the
// oracle for the hash join property tests. A side's key function returns nil
// for a row whose key has a NULL component.
func referenceJoin(left, right []row.Row, nLeft, nRight int, jt plan.JoinType,
	lkey, rkey func(row.Row) row.Row, match func(l, r row.Row) bool) []row.Row {
	var out []row.Row
	rightMatched := make([]bool, len(right))
	for _, l := range left {
		matched := false
		for ri, r := range right {
			lk, rk := lkey(l), rkey(r)
			if lk == nil || rk == nil || !row.Equal(lk, rk) || !match(l, r) {
				continue
			}
			matched = true
			rightMatched[ri] = true
			if jt != plan.LeftSemiJoin {
				out = append(out, append(append(row.Row{}, l...), r...))
			}
		}
		switch {
		case jt == plan.LeftSemiJoin && matched:
			out = append(out, l)
		case !matched && (jt == plan.LeftOuterJoin || jt == plan.FullOuterJoin):
			out = append(out, append(append(row.Row{}, l...), make(row.Row, nRight)...))
		}
	}
	if jt == plan.RightOuterJoin || jt == plan.FullOuterJoin {
		for ri, r := range right {
			if !rightMatched[ri] {
				out = append(out, append(make(row.Row, nLeft), r...))
			}
		}
	}
	return out
}

// joinShape is one join-key shape of the property test: the key column types
// of each side and a generator of one (non-NULL) key. Rows are
// [key columns..., id INT].
type joinShape struct {
	name        string
	left, right []types.DataType
	key         func(rng *rand.Rand) row.Row
	table       string // the group table its join builds when the keys are typed
}

var decimalKey = types.DecimalType{Precision: 10, Scale: 2}

var joinShapes = []joinShape{
	{"int=bigint", []types.DataType{types.Int}, []types.DataType{types.Long}, func(rng *rand.Rand) row.Row {
		return row.Row{int32(rng.Intn(6))}
	}, "i64"},
	{"string", []types.DataType{types.String}, []types.DataType{types.String}, func(rng *rand.Rand) row.Row {
		return row.Row{[]string{"", "a", "b", "ab", "héllo"}[rng.Intn(5)]}
	}, "str"},
	{"(int,int)", []types.DataType{types.Int, types.Int}, []types.DataType{types.Int, types.Int}, func(rng *rand.Rand) row.Row {
		return row.Row{int32(rng.Intn(3)), int32(rng.Intn(3))}
	}, "pair"},
	{"(int,string,int)", []types.DataType{types.Int, types.String, types.Int}, []types.DataType{types.Int, types.String, types.Int}, func(rng *rand.Rand) row.Row {
		return row.Row{int32(rng.Intn(2)), []string{"x", "y"}[rng.Intn(2)], int32(rng.Intn(2))}
	}, "generic"},
	{"double", []types.DataType{types.Double}, []types.DataType{types.Double}, func(rng *rand.Rand) row.Row {
		// NaN equals NaN and -0.0 equals 0.0, whichever side holds which.
		return row.Row{[]float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -2.25, math.Inf(1)}[rng.Intn(6)]}
	}, "generic"},
	{"decimal", []types.DataType{decimalKey}, []types.DataType{decimalKey}, func(rng *rand.Rand) row.Row {
		return row.Row{types.NewDecimal(int64(rng.Intn(5))*25, 2)}
	}, "generic"},
}

// joinSide generates n rows with the given key column types: small key
// domains give duplicate keys, and one key component in eight is NULL.
func (s joinShape) joinSide(rng *rand.Rand, n int, keyTypes []types.DataType) []row.Row {
	out := make([]row.Row, n)
	for i := range out {
		k := s.key(rng)
		for c, v := range k {
			if x, ok := v.(int32); ok && keyTypes[c].Equals(types.Long) {
				k[c] = int64(x)
			}
			if rng.Intn(8) == 0 {
				k[c] = nil
			}
		}
		out[i] = append(k, int32(i))
	}
	return out
}

// oracleKey reads a row's key for referenceJoin: nil if any component is
// NULL, integers widened so INT and BIGINT sides compare equal.
func oracleKey(width int) func(row.Row) row.Row {
	return func(r row.Row) row.Row {
		k := make(row.Row, width)
		for c := range k {
			switch v := r[c].(type) {
			case nil:
				return nil
			case int32:
				k[c] = int64(v)
			default:
				k[c] = v
			}
		}
		return k
	}
}

func sideAttrs(prefix string, keyTypes []types.DataType) []*expr.AttributeReference {
	var names []string
	for c := range keyTypes {
		names = append(names, prefix+"k"+string(rune('0'+c)))
	}
	return attrsOf(append(names, prefix+"id"), append(append([]types.DataType{}, keyTypes...), types.Int))
}

// cachedScan puts rows behind the columnar cache, the leaf fused operators
// run over.
func cachedScan(attrs []*expr.AttributeReference, rows []row.Row) SparkPlan {
	schema := types.StructType{}
	for _, a := range attrs {
		schema = schema.Add(a.Name, a.DataType(), true)
	}
	return NewInMemoryScan(attrs, columnar.BuildTable(schema, [][]row.Row{rows[:len(rows)/2], rows[len(rows)/2:]}, 8), nil, nil)
}

// Property: the shuffled, broadcast (either legal build side) and fused hash
// joins agree with the nested-loop oracle for every key shape and join type
// (the fused one for every type a join may broadcast), compiled and
// interpreted, with and without a residual predicate — NULL keys on both
// sides, duplicate build keys and empty sides included. The
// shuffled joins run a 3-reducer exchange with SkewSplits unset. The fused
// join runs for a row consumer and for two batch consumers: a fused aggregate
// grouping on every output column (its groups are the join's rows, which the
// id columns keep distinct), and a second fused join probing from its output.
func TestHashJoinsMatchReference(t *testing.T) {
	joinTypes := []plan.JoinType{
		plan.InnerJoin, plan.LeftOuterJoin, plan.RightOuterJoin,
		plan.FullOuterJoin, plan.LeftSemiJoin,
	}
	sizes := [][2]int{{0, 7}, {9, 0}, {1, 1}, {30, 12}, {14, 30}, {25, 25}}
	for _, shape := range joinShapes {
		rng := rand.New(rand.NewSource(42))
		leftAttrs, rightAttrs := sideAttrs("l", shape.left), sideAttrs("r", shape.right)
		nk := len(shape.left)
		lid, rid := leftAttrs[nk], rightAttrs[nk]
		for _, size := range sizes {
			leftRows, rightRows := shape.joinSide(rng, size[0], shape.left), shape.joinSide(rng, size[1], shape.right)
			for _, jt := range joinTypes {
				for _, residual := range []bool{false, true} {
					match := func(l, r row.Row) bool { return true }
					var cond expr.Expression
					if residual {
						match = func(l, r row.Row) bool { return l[nk].(int32) < r[nk].(int32) }
						cond = expr.LT(lid, rid)
					}
					want := referenceJoin(leftRows, rightRows, nk+1, nk+1, jt, oracleKey(nk), oracleKey(nk), match)
					check := func(label string, p SparkPlan, want []row.Row) {
						t.Helper()
						for _, codegen := range []bool{true, false} {
							got := collect(t, p, execCtx(codegen))
							if !rowsEqual(got, append([]row.Row{}, want...)) {
								t.Fatalf("%s %s %dx%d residual=%v codegen=%v %s: got %d rows, want %d\n%v\n%v",
									shape.name, jt, size[0], size[1], residual, codegen, label, len(got), len(want), got, want)
							}
						}
					}
					leftScan, rightScan := NewLocalScan(leftAttrs, leftRows), NewLocalScan(rightAttrs, rightRows)
					ej := EquiJoin{
						Left: leftScan, Right: rightScan,
						LeftKeys: plan.AttrExprs(leftAttrs[:nk]), RightKeys: plan.AttrExprs(rightAttrs[:nk]),
						Type: jt, Residual: cond,
					}
					check("shuffled", &ShuffledHashJoinExec{EquiJoin: ej}, want)
					canRight, canLeft := canBuildSides(jt)
					for _, buildRight := range []bool{true, false} {
						if (buildRight && !canRight) || (!buildRight && !canLeft) {
							continue
						}
						check("broadcast", &BroadcastHashJoinExec{EquiJoin: ej, BuildRight: buildRight}, want)
						// The same join probing from a cached leaf: always
						// fused, the keys read by kernels — NaN and -0.0, the
						// DECIMAL and the three-column key included.
						cached := ej
						if buildRight {
							cached.Left = cachedScan(leftAttrs, leftRows)
						} else {
							cached.Right = cachedScan(rightAttrs, rightRows)
						}
						p := Fuse(Vectorize(Collapse(&BroadcastHashJoinExec{EquiJoin: cached, BuildRight: buildRight})))
						note := fmt.Sprintf("fused: true, table=%s, kernels %d/%d native", shape.table, nk, nk)
						if f, fused := p.(*FusedBroadcastJoinExec); !fused || f.Fusion() != note {
							t.Fatalf("%s %s buildRight=%v residual=%v: want a fused join noting %q\n%s",
								shape.name, jt, buildRight, residual, note, p)
						}
						check("over cache", p, want)
					}
				}
			}
		}
	}
}

func TestJoinResidualCondition(t *testing.T) {
	leftAttrs := attrsOf([]string{"lk", "lv"}, []types.DataType{types.Int, types.Int})
	rightAttrs := attrsOf([]string{"rk", "rv"}, []types.DataType{types.Int, types.Int})
	leftRows := []row.Row{{int32(1), int32(5)}, {int32(1), int32(50)}}
	rightRows := []row.Row{{int32(1), int32(10)}}
	j := &ShuffledHashJoinExec{EquiJoin: EquiJoin{
		Left:      NewLocalScan(leftAttrs, leftRows),
		Right:     NewLocalScan(rightAttrs, rightRows),
		LeftKeys:  []expr.Expression{leftAttrs[0]},
		RightKeys: []expr.Expression{rightAttrs[0]},
		Type:      plan.InnerJoin,
		Residual:  expr.LT(leftAttrs[1], rightAttrs[1]), // lv < rv
	}}
	got := collect(t, j, execCtx(true))
	if len(got) != 1 || got[0][1] != int32(5) {
		t.Fatalf("residual filter wrong: %v", got)
	}
}

func TestNestedLoopJoin(t *testing.T) {
	leftAttrs := attrsOf([]string{"a"}, []types.DataType{types.Int})
	rightAttrs := attrsOf([]string{"b"}, []types.DataType{types.Int})
	left := NewLocalScan(leftAttrs, []row.Row{{int32(1)}, {int32(5)}})
	right := NewLocalScan(rightAttrs, []row.Row{{int32(3)}, {int32(7)}})
	j := &NestedLoopJoinExec{
		Left: left, Right: right,
		Type: plan.InnerJoin,
		Cond: expr.LT(leftAttrs[0], rightAttrs[0]),
	}
	got := collect(t, j, execCtx(true))
	// pairs with a<b: (1,3), (1,7), (5,7)
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestSortExec(t *testing.T) {
	attrs := attrsOf([]string{"a", "b"}, []types.DataType{types.Int, types.String})
	rows := []row.Row{
		{int32(3), "c"}, {int32(1), "a"}, {nil, "n"}, {int32(2), "b"}, {int32(1), "z"},
	}
	s := &SortExec{
		Orders: []*expr.SortOrder{expr.Asc(attrs[0]), expr.Desc(attrs[1])},
		Global: true,
		Child:  NewLocalScan(attrs, rows),
	}
	got := collect(t, s, execCtx(true))
	// NULLS FIRST ascending; ties broken by b DESC.
	if got[0][0] != nil || got[1][1] != "z" || got[2][1] != "a" || got[4][0] != int32(3) {
		t.Fatalf("sorted = %v", got)
	}
}

func TestLimitAndUnionExec(t *testing.T) {
	attrs := attrsOf([]string{"a"}, []types.DataType{types.Int})
	rows := make([]row.Row, 10)
	for i := range rows {
		rows[i] = row.Row{int32(i)}
	}
	scan := NewLocalScan(attrs, rows)
	l := &LimitExec{N: 4, Child: scan}
	if got := collect(t, l, execCtx(true)); len(got) != 4 {
		t.Fatalf("limit = %v", got)
	}
	u := &UnionExec{Kids: []SparkPlan{scan, scan}}
	if got := collect(t, u, execCtx(true)); len(got) != 20 {
		t.Fatalf("union = %d rows", len(got))
	}
}

// DISTINCT has no operator of its own: it plans as a grouping on every output
// column with no aggregate functions, and so fuses over a cached table like
// any other aggregation.
func TestDistinctPlansAsAggregate(t *testing.T) {
	attrs := attrsOf([]string{"a", "b"}, []types.DataType{types.Int, types.String})
	rows := []row.Row{
		{int32(1), "x"}, {int32(1), "x"}, {int32(1), "y"}, {nil, "x"}, {nil, "x"},
	}
	local, err := plannerFor(1 << 20).Plan(&plan.Distinct{Child: &plan.LocalRelation{Attrs: attrs, Rows: rows}})
	if err != nil {
		t.Fatal(err)
	}
	agg, ok := local.(*HashAggregateExec)
	if !ok || attrsString(agg.Output()) != attrsString(attrs) {
		t.Fatalf("DISTINCT must plan as a HashAggregate with the child's output:\n%s", local)
	}
	scan := cachedScan(attrs, rows).(*InMemoryScanExec)
	cached, err := plannerFor(1 << 20).Plan(&plan.Distinct{Child: &plan.InMemoryRelation{Attrs: attrs, Table: scan.Table}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cached.String(), "FusedHashAggregate") || !strings.Contains(cached.String(), "fused: true, table=generic") {
		t.Fatalf("DISTINCT over a cached table must fuse and name its table:\n%s", cached)
	}
	for _, p := range []SparkPlan{local, cached} {
		for _, codegen := range []bool{true, false} {
			got := collect(t, p, execCtx(codegen))
			want := []row.Row{{int32(1), "x"}, {int32(1), "y"}, {nil, "x"}}
			if !rowsEqual(got, want) {
				t.Fatalf("codegen=%v distinct = %v\n%s", codegen, got, p)
			}
		}
	}
}

func TestSampleExecDeterministic(t *testing.T) {
	attrs := attrsOf([]string{"a"}, []types.DataType{types.Int})
	rows := make([]row.Row, 1000)
	for i := range rows {
		rows[i] = row.Row{int32(i)}
	}
	s := &SampleExec{Fraction: 0.3, Seed: 11, Child: NewLocalScan(attrs, rows)}
	a := collect(t, s, execCtx(true))
	b := collect(t, s, execCtx(true))
	if !rowsEqual(a, b) {
		t.Fatal("sampling must be deterministic for a fixed seed")
	}
	if len(a) < 200 || len(a) > 400 {
		t.Fatalf("sample size %d far from 300", len(a))
	}
}

func TestRangeScanExec(t *testing.T) {
	attr := expr.NewAttribute("id", types.Long, false)
	r := NewRangeScan(attr, 0, 10, 1, 3)
	got := collect(t, r, execCtx(true))
	if len(got) != 10 || got[0][0] != int64(0) || got[9][0] != int64(9) {
		t.Fatalf("range = %v", got)
	}
}

// Planner-level tests.

func plannerFor(threshold int64) *Planner {
	cfg := DefaultPlannerConfig()
	cfg.BroadcastThreshold = threshold
	return NewPlanner(cfg)
}

func TestPlannerJoinSelection(t *testing.T) {
	left := plan.NewLocalRelation(types.NewStruct(
		types.StructField{Name: "a", Type: types.Int, Nullable: false},
	), []row.Row{{int32(1)}})
	right := plan.NewLocalRelation(types.NewStruct(
		types.StructField{Name: "b", Type: types.Int, Nullable: false},
	), []row.Row{{int32(1)}})
	j := &plan.Join{
		Left: left, Right: right, Type: plan.InnerJoin,
		Cond: expr.EQ(left.Attrs[0], right.Attrs[0]),
	}
	// Tiny tables broadcast.
	p, err := plannerFor(1 << 20).Plan(j)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*BroadcastHashJoinExec); !ok {
		t.Fatalf("small table should broadcast, got %T", p)
	}
	// Threshold 0: everything shuffles.
	p, err = plannerFor(0).Plan(j)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*ShuffledHashJoinExec); !ok {
		t.Fatalf("expected shuffled join, got %T", p)
	}
	// No equi keys: nested loop.
	nl := &plan.Join{
		Left: left, Right: right, Type: plan.InnerJoin,
		Cond: expr.LT(left.Attrs[0], right.Attrs[0]),
	}
	p, err = plannerFor(1 << 20).Plan(nl)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*NestedLoopJoinExec); !ok {
		t.Fatalf("expected nested loop, got %T", p)
	}
}

// TestPlannerJoinUnderBudget: a memory budget reaches join planning only
// through the broadcast limit. A join whose build side has unknown size plans
// as the unbudgeted shuffled hash join, with the same partition cap, at any
// budget; a build side known to fit in half the budget still broadcasts.
func TestPlannerJoinUnderBudget(t *testing.T) {
	probe := &plan.LogicalRDD{Attrs: attrsOf([]string{"a"}, []types.DataType{types.Int})}
	unknown := &plan.LogicalRDD{Attrs: attrsOf([]string{"b"}, []types.DataType{types.Int})}
	small := plan.NewLocalRelation(types.NewStruct(
		types.StructField{Name: "c", Type: types.Int, Nullable: false},
	), []row.Row{{int32(1)}, {int32(2)}})
	join := func(build plan.LogicalPlan) *plan.Join {
		return &plan.Join{
			Left: probe, Right: build, Type: plan.InnerJoin,
			Cond: expr.EQ(probe.Attrs[0], build.Output()[0]),
		}
	}
	planWith := func(budget int64, j *plan.Join) SparkPlan {
		t.Helper()
		cfg := DefaultPlannerConfig()
		cfg.MemoryBudget = budget
		p, err := NewPlanner(cfg).Plan(j)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	want, ok := planWith(0, join(unknown)).(*ShuffledHashJoinExec)
	if !ok {
		t.Fatalf("unbudgeted join over an unknown-size build side: want ShuffledHashJoinExec")
	}
	for _, budget := range []int64{1, 64 << 10, 64 << 20} {
		p := planWith(budget, join(unknown))
		shj, ok := p.(*ShuffledHashJoinExec)
		if !ok || shj.Partitions != want.Partitions {
			t.Fatalf("budget %d: planned %s, want ShuffledHashJoin with parts=%d", budget, p, want.Partitions)
		}
	}
	size := plan.Stats(small).SizeInBytes
	if p := planWith(2*size, join(small)); !isBroadcast(p) {
		t.Fatalf("build side of %d B under budget %d: planned %s, want a broadcast", size, 2*size, p)
	}
	if p := planWith(2*size-2, join(small)); isBroadcast(p) {
		t.Fatalf("build side of %d B over half of budget %d broadcast:\n%s", size, 2*size-2, p)
	}
}

func isBroadcast(p SparkPlan) bool {
	_, ok := p.(*BroadcastHashJoinExec)
	return ok
}

func TestExtractEquiKeys(t *testing.T) {
	left := plan.NewLocalRelation(types.NewStruct(
		types.StructField{Name: "a", Type: types.Int, Nullable: false},
	), nil)
	right := plan.NewLocalRelation(types.NewStruct(
		types.StructField{Name: "b", Type: types.Int, Nullable: false},
	), nil)
	j := &plan.Join{
		Left: left, Right: right, Type: plan.InnerJoin,
		Cond: &expr.And{
			Left:  expr.EQ(right.Attrs[0], left.Attrs[0]), // flipped sides
			Right: expr.LT(left.Attrs[0], expr.Lit(int32(9))),
		},
	}
	lk, rk, residual := ExtractEquiKeys(j)
	if len(lk) != 1 || len(rk) != 1 {
		t.Fatalf("keys = %v %v", lk, rk)
	}
	if lk[0].(*expr.AttributeReference).ID_ != left.Attrs[0].ID_ {
		t.Error("flipped equi-key should normalize to left side")
	}
	if residual == nil || !strings.Contains(residual.String(), "< 9") {
		t.Errorf("residual = %v", residual)
	}
}

func TestPlannerStrategyExtension(t *testing.T) {
	rel := plan.NewLocalRelation(types.NewStruct(
		types.StructField{Name: "a", Type: types.Int, Nullable: false},
	), nil)
	pl := plannerFor(1 << 20)
	claimed := false
	pl.Strategies = append(pl.Strategies, func(p *Planner, lp plan.LogicalPlan) (SparkPlan, bool, error) {
		if _, ok := lp.(*plan.LocalRelation); ok {
			claimed = true
		}
		return nil, false, nil // observe but decline
	})
	if _, err := pl.Plan(rel); err != nil {
		t.Fatal(err)
	}
	if !claimed {
		t.Error("custom strategies must be consulted")
	}
}
