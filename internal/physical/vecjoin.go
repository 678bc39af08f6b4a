package physical

import (
	"context"
	"fmt"
	"time"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
)

// FusedBroadcastJoinExec is the whole-stage fusion of a vectorized pipeline
// with a broadcast-hash-join probe: the build side is loaded once into a
// type-specialized hash table (int64, string, or (int64, int64) keys — the
// shapes the Fuse rule admits), and the probe loop reads join keys straight
// off the decoded column vectors, boxing a probe row only when it actually
// matches (or needs null-extension under LEFT OUTER). The probe pipeline is
// the join's left input when the build side is the right one, and its right
// input for an inner join that builds left; either way the emitted rows are
// byte-identical to BroadcastHashJoinExec's: left cells before right cells,
// probe rows in pipeline order, matches in build-collect order.
type FusedBroadcastJoinExec struct {
	PlanEstimate
	PlanMetrics
	FusionNote
	Join *BroadcastHashJoinExec // key/type/build-side config; its probe-side child is unused here
	Pipe *VectorizedPipelineExec
}

func (f *FusedBroadcastJoinExec) Children() []SparkPlan {
	l, r := f.Join.sides(f.Pipe, f.Join.buildSide())
	return []SparkPlan{l, r}
}
func (f *FusedBroadcastJoinExec) WithNewChildren(children []SparkPlan) SparkPlan {
	j := *f.Join
	j.Left, j.Right = children[0], children[1]
	if vp, ok := j.probeSide().(*VectorizedPipelineExec); ok {
		c := *f
		c.Join = &j
		c.Pipe = vp
		return &c
	}
	// The probe pipeline degraded: fall back to the row join.
	return transferEstimate(&j, f)
}
func (f *FusedBroadcastJoinExec) Output() []*expr.AttributeReference {
	l, r := f.Join.sides(f.Pipe, f.Join.buildSide())
	return joinOutput(f.Join.Type, l.Output(), r.Output())
}
func (f *FusedBroadcastJoinExec) SimpleString() string { return "Fused" + f.Join.SimpleString() }
func (f *FusedBroadcastJoinExec) String() string       { return Format(f) }

func (f *FusedBroadcastJoinExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	j := f.Join
	om := f.EnableMetrics(ctx.Metrics)
	if !ctx.Vectorized {
		// Runtime knob off: run the identical row join, sharing this node's
		// metrics so EXPLAIN ANALYZE annotates the printed tree.
		jr := *j
		jr.Left, jr.Right = j.sides(f.Pipe, j.buildSide())
		jr.PlanMetrics.m = om
		return jr.Execute(ctx)
	}

	buildPlan := j.buildSide()
	probeKeys, buildKeys := j.probeBuildKeys()
	buildEvals := bindKeys(ctx, buildKeys, buildPlan.Output())
	probeVecs := make([]expr.VecEval, len(probeKeys))
	for i, k := range bindAll(probeKeys, f.Pipe.Output()) {
		// The Fuse rule only admits keys that compile natively.
		probeVecs[i], _ = expr.CompileVec(k)
	}
	nProbe, nBuild := len(f.Pipe.Output()), len(buildPlan.Output())
	// Probe cells land after the build cells when the build side is the left.
	probeAt, buildAt := 0, nProbe
	if !j.BuildRight {
		probeAt, buildAt = nBuild, 0
	}
	leftOuter := j.Type == plan.LeftOuterJoin

	vp := f.Pipe.compile(ctx, om, nil)

	build := buildPlan.Execute(ctx)
	lazy := &lazyBuild[probeTable]{}
	strKey := len(probeKeys) == 1 && expr.VecClassOf(probeKeys[0].DataType()) == expr.VecClassStr
	return rdd.GenerateCtx(ctx.RDD, "fusedJoinProbe", vp.src.NumPartitions, func(jc context.Context, p int) ([]row.Row, error) {
		ht, err := lazy.get(jc, func(jc context.Context) (probeTable, error) {
			rows, err := build.CollectContext(jc)
			if err != nil {
				return nil, err
			}
			if om != nil {
				om.RecordBuild(len(rows), rowsSize(rows))
			}
			return buildProbeTable(rows, buildEvals, strKey), nil
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var out []row.Row
		kvecs := make([]*columnar.Vector, len(probeVecs))
		// emit joins probe row i with one build row (nil null-extends): the
		// probe cells are boxed straight into the output row.
		emit := func(batch *expr.VecBatch, i int, b row.Row) {
			r := make(row.Row, nProbe+nBuild)
			for c, v := range batch.Cols {
				r[probeAt+c] = v.Get(i)
			}
			copy(r[buildAt:], b)
			out = append(out, r)
		}
		vp.each(p, func(batch *expr.VecBatch, live []int32) {
			for i, kv := range probeVecs {
				kvecs[i] = kv(batch, live)
			}
			for _, i := range live {
				ii := int(i)
				// A NULL probe key has no bucket, like a key nothing matches.
				bucket, _ := ht.bucket(kvecs, ii)
				if leftOuter && len(bucket) == 0 {
					emit(batch, ii, nil)
				}
				for _, b := range bucket {
					emit(batch, ii, b)
				}
			}
		})
		om.RecordPartition(len(out), time.Since(start))
		return out, nil
	})
}

// ---------------------------------------------------------------------------
// Specialized build-side tables

// probeTable buckets build rows by join key. bucket returns the rows whose
// key equals probe row i's key (in build-collect order, matching the row
// path) and whether the probe key was non-NULL — a NULL key never matches.
type probeTable interface {
	bucket(keys []*columnar.Vector, i int) ([]row.Row, bool)
}

// buildProbeTable loads the collected build side into the specialized table
// for the plan's key shape. Build keys evaluate through the scalar path —
// the build side is small (it broadcast) and arbitrary expressions stay
// supported — and normalize to the probe lanes' representation.
func buildProbeTable(rows []row.Row, keyEvals []func(row.Row) any, strKey bool) probeTable {
	switch {
	case strKey:
		t := &strTable{m: make(map[string][]row.Row, len(rows))}
		for _, r := range rows {
			v := keyEvals[0](r)
			if v == nil {
				continue
			}
			k := v.(string)
			t.m[k] = append(t.m[k], r)
		}
		return t
	case len(keyEvals) == 1:
		t := &i64Table{m: make(map[int64][]row.Row, len(rows))}
		for _, r := range rows {
			v := keyEvals[0](r)
			if v == nil {
				continue
			}
			k := normI64(v)
			t.m[k] = append(t.m[k], r)
		}
		return t
	default:
		t := &pairTable{m: make(map[[2]int64][]row.Row, len(rows))}
		for _, r := range rows {
			v0, v1 := keyEvals[0](r), keyEvals[1](r)
			if v0 == nil || v1 == nil {
				continue
			}
			k := [2]int64{normI64(v0), normI64(v1)}
			t.m[k] = append(t.m[k], r)
		}
		return t
	}
}

// normI64 widens a boxed int64-class value (INT/DATE box as int32,
// BIGINT/TIMESTAMP as int64) to the vector lane representation.
func normI64(v any) int64 {
	switch x := v.(type) {
	case int32:
		return int64(x)
	case int64:
		return x
	}
	panic(fmt.Sprintf("physical: non-integral build key %T escaped the fusion gate", v))
}

type i64Table struct{ m map[int64][]row.Row }

func (t *i64Table) bucket(keys []*columnar.Vector, i int) ([]row.Row, bool) {
	v := keys[0]
	if v.IsNull(i) {
		return nil, false
	}
	return t.m[v.I64[i&v.Mask()]], true
}

type strTable struct{ m map[string][]row.Row }

func (t *strTable) bucket(keys []*columnar.Vector, i int) ([]row.Row, bool) {
	v := keys[0]
	if v.IsNull(i) {
		return nil, false
	}
	return t.m[v.Str[i&v.Mask()]], true
}

type pairTable struct{ m map[[2]int64][]row.Row }

func (t *pairTable) bucket(keys []*columnar.Vector, i int) ([]row.Row, bool) {
	v0, v1 := keys[0], keys[1]
	if v0.IsNull(i) || v1.IsNull(i) {
		return nil, false
	}
	return t.m[[2]int64{v0.I64[i&v0.Mask()], v1.I64[i&v1.Mask()]}], true
}
