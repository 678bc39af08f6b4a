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
	return boxedRows(v, ctx)
}

// Results implements BatchTop: each batch with survivors goes to sink.
func (v *VectorizedPipelineExec) Results(ctx *ExecContext, sink ResultSink) *rdd.RDD[expr.Arena] {
	om := v.EnableMetrics(ctx.Metrics)
	vp := v.compile(ctx, om, nil)
	return rdd.GenerateCtx(ctx.RDD, "cacheScanVec", vp.tasks(), func(jc context.Context, p int) ([]expr.Arena, error) {
		start, rows := time.Now(), 0
		var out []expr.Arena
		err := vp.each(jc, p, func(batch *expr.VecBatch, live []int32) {
			out, rows = append(out, sink(batch.Cols, live)), rows+len(live)
		})
		om.RecordPartition(rows, time.Since(start))
		return out, err
	})
}

// vecPipe is a vectorized pipeline compiled for execution: the batch loop
// shared by the pipeline itself and by the fused sinks that absorb it.
type vecPipe struct {
	src BatchSource
	// runs cuts the source's partitions into tasks: task t pulls the batches
	// of partitions runs[t] .. runs[t+1]-1, in order.
	runs         []int
	om           *OperatorMetrics
	stages       []vecStage
	fallbackRows *metrics.Counter // vec.fallback.rows
}

// compile binds the stage chain for execution — the one place a BatchSource is
// opened, so the pipeline and the fused sinks that absorb it all run the same
// tasks; sink is compileVecStages'. A source that knows its partitions' sizes
// and has more of them than task slots is cut into runs of small adjacent
// partitions: a task per hundred-row partition costs more in goroutine, group
// table and partial block than the rows in it. Partition order, and with it
// first-seen group order and every result, is the uncut plan's.
func (v *VectorizedPipelineExec) compile(ctx *ExecContext, om *OperatorMetrics, sink []expr.Expression) *vecPipe {
	stages, used, _ := compileVecStages(v.Stages, v.Scan.Output(), sink)
	vp := &vecPipe{src: v.Scan.OpenBatches(ctx, used), om: om, stages: stages,
		fallbackRows: ctx.RDD.Metrics().Counter("vec.fallback.rows")}
	n, slots := vp.src.NumPartitions, ctx.RDD.Parallelism()
	vp.runs = ordinalsUpTo(n + 1) // a task per partition
	if vp.src.PartitionBytes != nil && ctx.TargetPartitionBytes > 0 && n > slots {
		vp.runs = cutRuns(vp.src.PartitionBytes, ctx.TargetPartitionBytes, slots)
	}
	if vp.tasks() < n {
		ctx.RDD.Metrics().Counter("scan.partitions.coalesced").Add(int64(n - vp.tasks()))
		if leaf := v.Scan.(MetricsAnnotated).Runtime(); leaf != nil {
			leaf.RunPartitions, leaf.Runs = n, vp.tasks()
		}
	}
	return vp
}

// cutRuns cuts partitions of the given sizes into contiguous runs for tasks on
// the given number of slots, and returns where each run starts, then
// len(bytes). A run closes before the partition that would take it past the
// cap, so only a run of one partition can exceed it. The cap is the target
// shrunk to an even share of the total over a whole number of rounds of the
// slots — a last round that fills only some of them idles the rest — and there
// are at least min(slots, len(bytes)) runs: a run also closes while every run
// still owed has a partition left to start with.
func cutRuns(bytes []int64, target int64, slots int) []int {
	n := len(bytes)
	minRuns := min(slots, n)
	var total int64
	for _, b := range bytes {
		total += b
	}
	if rounds := (total + target*int64(slots) - 1) / (target * int64(slots)); rounds > 0 {
		target = (total + rounds*int64(slots) - 1) / (rounds * int64(slots))
	}
	cuts := []int{0}
	var sum int64
	for p, b := range bytes {
		if p > cuts[len(cuts)-1] && (sum+b > target || n-p <= minRuns-len(cuts)) {
			cuts, sum = append(cuts, p), 0
		}
		sum += b
	}
	return append(cuts, n)
}

// tasks is how many tasks the pipeline runs as.
func (vp *vecPipe) tasks() int { return len(vp.runs) - 1 }

// each runs the batches of task t's partitions through the stages, starting
// from the selection the scan hands over, and passes every batch with
// surviving rows to fn as (final batch, selection). The batch headers and the
// slab the filters cut their selections from are per-task scratch reused
// across batches, and the selection may be the scan's: fn must not retain
// either past its return. Rows a stage ran through the boxed scalar fallback
// are counted once per batch.
func (vp *vecPipe) each(jc context.Context, t int, fn func(batch *expr.VecBatch, live []int32)) error {
	var in expr.VecBatch
	var sels expr.SelSlab
	staged := make([]expr.VecBatch, len(vp.stages))
	for p := vp.runs[t]; p < vp.runs[t+1]; p++ {
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
			sels.Reset()
			in = expr.VecBatch{Cols: b.Cols, N: n, Sels: &sels}
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
				next.Cols, next.N, next.Sels = next.Cols[:0], n, &sels
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

func ordinalsUpTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
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
