package physical

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/columnar"
	"repro/internal/datasource"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/row"
	"repro/internal/types"
)

func cachedTableForTest(rng *rand.Rand, nRows, parts, batchSize int) (*columnar.CachedTable, []*expr.AttributeReference) {
	schema := types.StructType{}.
		Add("id", types.Long, true).
		Add("score", types.Int, true).
		Add("name", types.String, true).
		Add("weight", types.Double, true)
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	partitions := make([][]row.Row, parts)
	for i := 0; i < nRows; i++ {
		r := row.Row{int64(i), int32(rng.Intn(1000)), words[rng.Intn(len(words))], rng.Float64() * 100}
		if rng.Intn(11) == 0 {
			r[rng.Intn(4)] = nil
		}
		partitions[i%parts] = append(partitions[i%parts], r)
	}
	table := columnar.BuildTable(schema, partitions, batchSize)
	attrs := make([]*expr.AttributeReference, len(schema.Fields))
	for i, f := range schema.Fields {
		attrs[i] = expr.NewAttribute(f.Name, f.Type, f.Nullable)
	}
	return table, attrs
}

// runBoth plans p twice — preparation rules Vectorize and Fuse off, then on —
// and asserts the results are identical including row order: the
// byte-identical contract of the acceptance criteria.
func runBoth(t *testing.T, p SparkPlan, label string) {
	t.Helper()
	rowRes := collect(t, Collapse(p), execCtx(true))
	vecRes := collect(t, Fuse(Vectorize(Collapse(p))), execCtx(true))
	if len(rowRes) != len(vecRes) {
		t.Fatalf("%s: row path %d rows, vectorized %d", label, len(rowRes), len(vecRes))
	}
	for i := range rowRes {
		if len(rowRes[i]) != len(vecRes[i]) {
			t.Fatalf("%s row %d: arity %d vs %d", label, i, len(rowRes[i]), len(vecRes[i]))
		}
		for j := range rowRes[i] {
			if !row.Equal(rowRes[i][j], vecRes[i][j]) {
				t.Fatalf("%s row %d col %d: row-path=%v (%T), vectorized=%v (%T)",
					label, i, j, rowRes[i][j], rowRes[i][j], vecRes[i][j], vecRes[i][j])
			}
		}
	}
}

func TestVectorizeRuleSwapsCachePipelines(t *testing.T) {
	table, attrs := cachedTableForTest(rand.New(rand.NewSource(1)), 500, 3, 64)
	scan := NewInMemoryScan(attrs, table, nil, nil)
	pipe := Collapse(&ProjectExec{
		List:  []expr.Expression{attrs[0], attrs[1]},
		Child: &FilterExec{Cond: expr.GT(attrs[1], expr.Lit(int32(500))), Child: scan},
	})
	p := Vectorize(pipe)
	v, ok := p.(*VectorizedPipelineExec)
	if !ok {
		t.Fatalf("Vectorize did not swap: %T", p)
	}
	if v.Native != 2 {
		t.Errorf("native stages = %d, want 2", v.Native)
	}
	if len(v.Output()) != 2 {
		t.Errorf("output arity = %d", len(v.Output()))
	}
}

func TestVectorizeRuleSkipsNonNativePipelines(t *testing.T) {
	table, attrs := cachedTableForTest(rand.New(rand.NewSource(2)), 100, 2, 32)
	scan := NewInMemoryScan(attrs, table, nil, nil)
	// NOT requires 3-valued logic: scalar fallback only, so no native stage.
	pipe := Collapse(&FilterExec{
		Cond:  &expr.Not{Child: expr.GT(attrs[1], expr.Lit(int32(10)))},
		Child: scan,
	})
	if _, ok := Vectorize(pipe).(*VectorizedPipelineExec); ok {
		t.Fatal("pipeline with zero native stages must stay row-at-a-time")
	}
	// Non-cache leaves are never vectorized.
	local := NewLocalScan(attrs, []row.Row{{int64(1), int32(2), "x", 3.0}})
	pipe2 := Collapse(&FilterExec{Cond: expr.GT(attrs[1], expr.Lit(int32(0))), Child: local})
	if _, ok := Vectorize(pipe2).(*VectorizedPipelineExec); ok {
		t.Fatal("non-cache pipelines must not be vectorized")
	}
}

func TestVectorizedExecMatchesRowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	table, attrs := cachedTableForTest(rng, 2000, 4, 128)
	newScan := func() SparkPlan { return NewInMemoryScan(attrs, table, nil, nil) }
	id, score, name, weight := attrs[0], attrs[1], attrs[2], attrs[3]

	cases := []struct {
		label string
		build func() SparkPlan
	}{
		{"filter-project", func() SparkPlan {
			return &ProjectExec{
				List:  []expr.Expression{name, expr.NewAlias(expr.Add(score, expr.Lit(int32(5))), "s5")},
				Child: &FilterExec{Cond: expr.GT(score, expr.Lit(int32(300))), Child: newScan()},
			}
		}},
		{"filter-only-keeps-all-columns", func() SparkPlan {
			return &FilterExec{Cond: expr.GT(score, expr.Lit(int32(700))), Child: newScan()}
		}},
		{"and-or-mix", func() SparkPlan {
			cond := &expr.Or{
				Left:  &expr.And{Left: expr.GT(score, expr.Lit(int32(100))), Right: &expr.Comparison{Op: expr.OpLT, Left: score, Right: expr.Lit(int32(200))}},
				Right: &expr.Comparison{Op: expr.OpEQ, Left: name, Right: expr.Lit("gamma")},
			}
			return &FilterExec{Cond: cond, Child: newScan()}
		}},
		{"null-handling", func() SparkPlan {
			return &ProjectExec{
				List:  []expr.Expression{id, score},
				Child: &FilterExec{Cond: &expr.IsNotNull{Child: name}, Child: newScan()},
			}
		}},
		{"is-null", func() SparkPlan {
			return &FilterExec{Cond: &expr.IsNull{Child: score}, Child: newScan()}
		}},
		{"in-list", func() SparkPlan {
			return &FilterExec{
				Cond:  &expr.In{Value: name, List: []expr.Expression{expr.Lit("alpha"), expr.Lit("delta")}},
				Child: newScan(),
			}
		}},
		{"double-arith", func() SparkPlan {
			return &ProjectExec{
				List:  []expr.Expression{expr.NewAlias(expr.Mul(weight, expr.Lit(2.0)), "w2")},
				Child: &FilterExec{Cond: &expr.Comparison{Op: expr.OpGE, Left: weight, Right: expr.Lit(50.0)}, Child: newScan()},
			}
		}},
		{"scalar-fallback-stage", func() SparkPlan {
			// Upper is not kernel-compilable: its stage falls back per-row
			// inside the batch loop, the filter stays native.
			return &ProjectExec{
				List:  []expr.Expression{expr.NewAlias(expr.Upper(name), "u"), score},
				Child: &FilterExec{Cond: expr.GT(score, expr.Lit(int32(250))), Child: newScan()},
			}
		}},
		{"multi-stage", func() SparkPlan {
			inner := &ProjectExec{
				List: []expr.Expression{
					name,
					expr.NewAlias(expr.Mul(score, expr.Lit(int32(3))), "s3"),
				},
				Child: &FilterExec{Cond: expr.GT(score, expr.Lit(int32(100))), Child: newScan()},
			}
			s3 := inner.Output()[1]
			return &FilterExec{Cond: &expr.Comparison{Op: expr.OpLT, Left: s3, Right: expr.Lit(int32(2000))}, Child: inner}
		}},
		{"mod-by-zero-null", func() SparkPlan {
			mod := &expr.BinaryArith{Op: expr.OpMod, Left: score, Right: &expr.BinaryArith{Op: expr.OpMod, Left: score, Right: expr.Lit(int32(7))}}
			return &ProjectExec{List: []expr.Expression{expr.NewAlias(mod, "m")}, Child: newScan()}
		}},
	}
	for _, tc := range cases {
		runBoth(t, tc.build(), tc.label)
	}
}

func TestVectorizedExecWithPrunedOrdinalsAndBatchSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	table, attrs := cachedTableForTest(rng, 1000, 2, 50)
	// Prune to (score, name), as the optimizer would for this query.
	pruned := []*expr.AttributeReference{attrs[1], attrs[2]}
	ordinals := []int{1, 2}
	keep := func(stats []columnar.ColStats) bool {
		// Skip batches whose score max is below the predicate constant.
		if stats[1].Max == nil {
			return true
		}
		return row.Compare(stats[1].Max, int32(400)) >= 0
	}
	scan := NewInMemoryScan(pruned, table, ordinals, keep)
	p := &ProjectExec{
		List:  []expr.Expression{pruned[1]},
		Child: &FilterExec{Cond: expr.GT(pruned[0], expr.Lit(int32(400))), Child: scan},
	}
	if v, ok := Vectorize(Collapse(p)).(*VectorizedPipelineExec); !ok {
		t.Fatalf("expected vectorized plan, got %T", v)
	}
	runBoth(t, p, "pruned+batchskip")
}

func TestVectorizedExecEmptyTable(t *testing.T) {
	schema := types.StructType{}.Add("x", types.Int, true)
	table := columnar.BuildTable(schema, [][]row.Row{nil, {}}, 16)
	attrs := []*expr.AttributeReference{expr.NewAttribute("x", types.Int, true)}
	runBoth(t, &FilterExec{
		Cond:  expr.GT(attrs[0], expr.Lit(int32(0))),
		Child: NewInMemoryScan(attrs, table, nil, nil),
	}, "empty")
}

// The fused probe runs from whichever pipeline the join streams: for either
// build side, and for the outer join and the key without a kernel that once
// kept the row operator, it matches the row join row for row (runBoth), prints
// its real build side, group table and kernel census, and survives a
// WithNewChildren round trip.
func TestFusedBroadcastJoinEitherBuildSide(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	big, bigAttrs := cachedTableForTest(rng, 1500, 3, 128)
	small, smallAttrs := cachedTableForTest(rng, 40, 1, 64)
	pipe := func(table *columnar.CachedTable, attrs []*expr.AttributeReference) SparkPlan {
		return &FilterExec{Cond: expr.GT(attrs[1], expr.Lit(int32(100))), Child: NewInMemoryScan(attrs, table, nil, nil)}
	}
	fusedAs := func(j *BroadcastHashJoinExec, note string) {
		t.Helper()
		j = broadcastJoin(j.EquiJoin, j.BuildRight)
		f, ok := Fuse(Vectorize(Collapse(j))).(*FusedBroadcastJoinExec)
		if !ok {
			t.Fatalf("not fused: %s", j)
		}
		if want := j.SimpleString(); f.SimpleString() != "Fused"+want {
			t.Fatalf("fused join prints %q, want it to name the row join's build side: %q", f.SimpleString(), want)
		}
		if f.Fusion() != note {
			t.Fatalf("%s: fused join note %q, want %q", f.SimpleString(), f.Fusion(), note)
		}
		runBoth(t, j, f.SimpleString())
		if again := f.WithNewChildren(f.Children()); again.String() != f.String() {
			t.Fatalf("WithNewChildren(Children()) changed the tree:\n%s\nvs\n%s", again, f)
		}
	}
	for _, buildRight := range []bool{true, false} {
		j := &BroadcastHashJoinExec{BuildRight: buildRight, EquiJoin: EquiJoin{
			Left: pipe(big, bigAttrs), Right: pipe(small, smallAttrs),
			LeftKeys: []expr.Expression{bigAttrs[2]}, RightKeys: []expr.Expression{smallAttrs[2]},
			Type: plan.InnerJoin,
		}}
		if !buildRight {
			j.Left, j.Right = j.Right, j.Left
			j.LeftKeys, j.RightKeys = j.RightKeys, j.LeftKeys
		}
		fusedAs(j, "fused: true, table=str, kernels 1/1 native")
	}
	fusedAs(&BroadcastHashJoinExec{EquiJoin: EquiJoin{
		Left: pipe(small, smallAttrs), Right: pipe(big, bigAttrs),
		LeftKeys: []expr.Expression{smallAttrs[2]}, RightKeys: []expr.Expression{bigAttrs[2]},
		Type: plan.RightOuterJoin,
	}}, "fused: true, table=str, kernels 1/1 native")
	// A probe key with no kernel takes the boxed fallback, and with it both
	// sides of the table take boxed keys.
	fusedAs(&BroadcastHashJoinExec{BuildRight: true, EquiJoin: EquiJoin{
		Left: pipe(big, bigAttrs), Right: pipe(small, smallAttrs),
		LeftKeys:  []expr.Expression{expr.Upper(bigAttrs[2]), bigAttrs[1]},
		RightKeys: []expr.Expression{expr.Upper(smallAttrs[2]), smallAttrs[1]},
		Type:      plan.LeftOuterJoin,
	}}, "fused: true, table=generic, kernels 1/2 native, fallback: "+expr.Upper(bigAttrs[2]).String())
}

// cutRuns hands tasks contiguous runs that cover every partition once, never
// fewer than min(slots, partitions) of them, and only a run of one partition may
// exceed the target.
func TestCutRuns(t *testing.T) {
	fill := func(n int, b int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = b
		}
		return out
	}
	rng := rand.New(rand.NewSource(9))
	random := make([]int64, 500)
	for i := range random {
		random[i] = rng.Int63n(3000)
	}
	huge := fill(40, 10)
	huge[17] = 1 << 30
	for _, c := range []struct {
		name          string
		bytes         []int64
		target        int64
		slots         int
		minRuns, runs int // runs: exact count expected, 0 = only the lower bound
	}{
		{"trickle", fill(2000, 3800), 4 << 20, 2, 2, 2},
		{"trickle over two rounds", fill(2000, 3800), 2 << 20, 2, 2, 4},
		{"eight slots", fill(2000, 3800), 4 << 20, 8, 8, 8},
		{"all empty", fill(300, 0), 4 << 20, 4, 4, 4},
		{"single huge", huge, 4 << 20, 2, 2, 3},
		{"huge first", append([]int64{1 << 30}, fill(5, 1)...), 1 << 20, 4, 4, 0},
		{"huge last", append(fill(5, 1), 1<<30), 1 << 20, 4, 4, 0},
		{"every partition over target", fill(9, 5<<20), 4 << 20, 2, 2, 9},
		{"fewer partitions than slots", fill(3, 10), 4 << 20, 8, 3, 3},
		{"one partition", fill(1, 10), 4 << 20, 8, 1, 1},
		{"random sizes", random, 64 << 10, 3, 3, 0},
		{"tiny target", random, 1, 3, 3, 0},
	} {
		cuts := cutRuns(c.bytes, c.target, c.slots)
		n := len(cuts) - 1
		if cuts[0] != 0 || cuts[n] != len(c.bytes) {
			t.Fatalf("%s: cuts %v do not span 0..%d", c.name, cuts, len(c.bytes))
		}
		if n < c.minRuns || (c.runs > 0 && n != c.runs) {
			t.Fatalf("%s: %d runs, want at least %d (exactly %d when non-zero)", c.name, n, c.minRuns, c.runs)
		}
		for r := 0; r < n; r++ {
			if cuts[r] >= cuts[r+1] {
				t.Fatalf("%s: run %d is empty or out of order: %v", c.name, r, cuts)
			}
			var sum int64
			for _, b := range c.bytes[cuts[r]:cuts[r+1]] {
				sum += b
			}
			if cuts[r+1]-cuts[r] > 1 && sum > c.target {
				t.Fatalf("%s: run %d holds %d partitions and %d bytes, over the %d target", c.name, r, cuts[r+1]-cuts[r], sum, c.target)
			}
		}
	}
}

// usedRecorder is a cache leaf that notes which columns its consumer asked it
// to decode.
type usedRecorder struct {
	*InMemoryScanExec
	used []bool
}

func (s *usedRecorder) OpenBatches(ctx *ExecContext, used []bool) BatchSource {
	s.used = append([]bool(nil), used...)
	return s.InMemoryScanExec.OpenBatches(ctx, used)
}

// A fused join over a projection-free probe scan decodes, for a batch
// consumer, the probe columns that consumer reads plus its own key and
// residual columns; a row consumer still gets every column.
func TestFusedJoinProbeDecodesWhatIsRead(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	big, bigAttrs := cachedTableForTest(rng, 900, 3, 128)
	small, smallAttrs := cachedTableForTest(rng, 40, 1, 64)
	leaf := &usedRecorder{InMemoryScanExec: NewInMemoryScan(bigAttrs, big, nil, nil)}
	join := func(residual expr.Expression) *FusedBroadcastJoinExec {
		j := broadcastJoin(EquiJoin{
			Left: leaf, Right: NewInMemoryScan(smallAttrs, small, nil, nil),
			LeftKeys: []expr.Expression{bigAttrs[2]}, RightKeys: []expr.Expression{smallAttrs[2]},
			Type: plan.InnerJoin, Residual: residual,
		}, true)
		return Fuse(Vectorize(Collapse(j))).(*FusedBroadcastJoinExec)
	}
	reads := make([]bool, 8)
	reads[0], reads[5] = true, true // probe id, build score
	for _, c := range []struct {
		name     string
		residual expr.Expression
		used     []bool
		want     []bool
	}{
		{"batch consumer", nil, reads, []bool{true, false, true, false}},
		{"batch consumer, residual", expr.GT(bigAttrs[3], smallAttrs[3]), reads, []bool{true, false, true, true}},
		{"row consumer", nil, nil, []bool{true, true, true, true}},
	} {
		f := join(c.residual)
		if c.used == nil {
			collect(t, f, execCtx(true))
		} else {
			src := f.OpenBatches(execCtx(true), c.used)
			for p := 0; p < src.NumPartitions; p++ {
				if err := src.Batches(context.Background(), p, new(expr.Scratch), func(datasource.Batch) {}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !slices.Equal(leaf.used, c.want) {
			t.Fatalf("%s: probe scan decoded columns %v, want %v", c.name, leaf.used, c.want)
		}
	}
}
