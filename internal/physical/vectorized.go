package physical

import (
	"context"
	"fmt"
	"time"

	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/rdd"
	"repro/internal/row"
)

// VectorizedPipelineExec runs a fused filter/project pipeline batch-at-a-time
// directly over a batch-producing leaf (the columnar cache or a columnar
// data source): each batch's referenced columns are decoded ONCE into typed
// vectors, predicates narrow the selection vector the leaf starts it with,
// and rows are materialized only at the pipeline boundary for the surviving
// positions. This removes the per-row boxing and interface dispatch that the
// row-at-a-time path pays between the leaf and the first operator — the gap
// EXPERIMENTS.md measures against the native baseline.
//
// The Vectorize preparation rule swaps it in for PipelineExec over a
// BatchScan when at least one stage compiles to native kernels; with the rule
// off (PlannerConfig.Vectorize) plans keep the row-at-a-time PipelineExec.
type VectorizedPipelineExec struct {
	PlanEstimate
	PlanMetrics
	FusionNote
	// Stages are listed bottom (first applied) to top, as in PipelineExec.
	Stages []stage
	Scan   BatchScan
	// Native counts stages that compiled to native batch kernels (the rest
	// run through the per-row scalar fallback inside the batch loop).
	Native int
}

func (v *VectorizedPipelineExec) Children() []SparkPlan { return []SparkPlan{v.Scan} }
func (v *VectorizedPipelineExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *v
	c.Scan = children[0].(BatchScan)
	return &c
}
func (v *VectorizedPipelineExec) Output() []*expr.AttributeReference {
	return stagesOutput(v.Stages, v.Scan.Output())
}
func (v *VectorizedPipelineExec) SimpleString() string {
	return fmt.Sprintf("VectorizedPipeline (%d stages, %d native)", len(v.Stages), v.Native)
}
func (v *VectorizedPipelineExec) String() string { return Format(v) }

// vecStage is a stage compiled to batch kernels.
type vecStage struct {
	isFilter bool
	pred     expr.VecPred
	evals    []expr.VecEval
	native   bool
}

// compileVecStages binds and compiles the stage chain against the scan
// output. It returns the compiled stages, which scan output positions the
// first batch must decode, and how many stages compiled natively. The decode
// set is everything a stage references before the first projection replaces
// the batch; with no projection the scan's columns are the pipeline's output,
// and it adds what the consumer reads of them: the bound expressions sink
// lists for a fused sink, or, sink being nil, every column — rows materialize
// in full.
func compileVecStages(stages []stage, attrs []*expr.AttributeReference, sink []expr.Expression) ([]vecStage, []bool, int) {
	used := make([]bool, len(attrs))
	out := make([]vecStage, len(stages))
	native := 0
	projected := false
	cur := attrs
	for i, st := range stages {
		if st.isFilter {
			cond := bind(st.cond, cur)
			if !projected {
				markBoundRefs(cond, used)
			}
			pred, ok := expr.CompileVecPredicate(cond)
			out[i] = vecStage{isFilter: true, pred: pred, native: ok}
			if ok {
				native++
			}
			continue
		}
		bound := bindAll(st.list, cur)
		evals := make([]expr.VecEval, len(bound))
		allNative := true
		for j, e := range bound {
			if !projected {
				markBoundRefs(e, used)
			}
			ev, ok := expr.CompileVec(e)
			evals[j] = ev
			allNative = allNative && ok
		}
		out[i] = vecStage{evals: evals, native: allNative}
		if allNative {
			native++
		}
		projected = true
		cur = namedAttrs(st.list)
	}
	if !projected {
		for _, e := range sink {
			markBoundRefs(e, used)
		}
		for j := range used {
			used[j] = used[j] || sink == nil
		}
	}
	return out, used, native
}

// markBoundRefs records which input ordinals a bound expression touches.
func markBoundRefs(e expr.Expression, used []bool) {
	if b, ok := e.(*expr.BoundReference); ok {
		used[b.Ordinal] = true
		return
	}
	for _, c := range e.Children() {
		markBoundRefs(c, used)
	}
}

func (v *VectorizedPipelineExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	om := v.EnableMetrics(ctx.Metrics)
	vp := v.compile(ctx, om, nil)
	return rdd.GenerateCtx(ctx.RDD, "cacheScanVec", vp.src.NumPartitions, func(jc context.Context, p int) ([]row.Row, error) {
		start := time.Now()
		var out []row.Row
		err := vp.each(jc, p, func(batch *expr.VecBatch, live []int32) {
			for _, i := range live {
				out = append(out, batch.Row(int(i)))
			}
		})
		om.RecordPartition(len(out), time.Since(start))
		return out, err
	})
}

// vecPipe is a vectorized pipeline compiled for execution: the batch loop
// shared by the pipeline itself and by the fused sinks that absorb it.
type vecPipe struct {
	src          BatchSource
	om           *OperatorMetrics
	stages       []vecStage
	fallbackRows *metrics.Counter // vec.fallback.rows
}

// compile binds the stage chain for execution; sink is compileVecStages'.
func (v *VectorizedPipelineExec) compile(ctx *ExecContext, om *OperatorMetrics, sink []expr.Expression) *vecPipe {
	stages, used, _ := compileVecStages(v.Stages, v.Scan.Output(), sink)
	return &vecPipe{src: v.Scan.OpenBatches(ctx, used), om: om, stages: stages,
		fallbackRows: ctx.RDD.Metrics().Counter("vec.fallback.rows")}
}

// each runs partition p's batches through the stages, starting from the
// selection the scan hands over, and passes every batch with surviving rows
// to fn as (final batch, selection). The batch headers are per-partition
// scratch reused across batches and the selection may be the scan's: fn must
// not retain either past its return. Rows a stage ran through the boxed
// scalar fallback are counted once per batch.
func (vp *vecPipe) each(jc context.Context, p int, fn func(batch *expr.VecBatch, live []int32)) error {
	var in expr.VecBatch
	staged := make([]expr.VecBatch, len(vp.stages))
	next, err := vp.src.Batches(jc, p)
	if err != nil {
		return err
	}
	for b, ok := next(); ok; b, ok = next() {
		if vp.om != nil {
			vp.om.Batches.Add(1)
		}
		live, n := b.Sel, b.N
		if len(live) == 0 {
			continue
		}
		in = expr.VecBatch{Cols: b.Cols, N: n}
		batch := &in
		var boxed int
		for i, st := range vp.stages {
			if !st.native {
				boxed += len(live)
			}
			if st.isFilter {
				if live = st.pred(batch, live); len(live) == 0 {
					break
				}
				continue
			}
			next := &staged[i]
			next.Cols, next.N = next.Cols[:0], n
			for _, ev := range st.evals {
				next.Cols = append(next.Cols, ev(batch, live))
			}
			batch = next
		}
		if boxed > 0 {
			vp.fallbackRows.Add(int64(boxed))
		}
		if len(live) > 0 {
			fn(batch, live)
		}
	}
	return nil
}

// identitySel is the selection of all n rows.
func identitySel(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// namedAttrs is the output schema of a list of named expressions (a
// projection's, an aggregation's results).
func namedAttrs(list []expr.Expression) []*expr.AttributeReference {
	out := make([]*expr.AttributeReference, len(list))
	for i, e := range list {
		out[i] = e.(expr.Named).ToAttribute()
	}
	return out
}

// stagesOutput threads a schema through a stage chain.
func stagesOutput(stages []stage, attrs []*expr.AttributeReference) []*expr.AttributeReference {
	for _, st := range stages {
		if !st.isFilter {
			attrs = namedAttrs(st.list)
		}
	}
	return attrs
}

// Vectorize is the preparation rule (run after Collapse) that swaps
// PipelineExec for VectorizedPipelineExec wherever the pipeline sits
// directly on a BatchScan and at least one fused stage compiles to native
// batch kernels — otherwise vectorization is pure decode overhead and the
// row pipeline is kept.
func Vectorize(p SparkPlan) SparkPlan { return transformUp(p, vectorize) }

func vectorize(p SparkPlan) SparkPlan {
	pipe, ok := p.(*PipelineExec)
	if !ok {
		return p
	}
	scan, ok := pipe.Child.(BatchScan)
	if !ok {
		return p
	}
	_, _, native := compileVecStages(pipe.Stages, scan.Output(), nil)
	if native == 0 {
		return p
	}
	return transferEstimate(&VectorizedPipelineExec{Stages: pipe.Stages, Scan: scan, Native: native}, pipe)
}
