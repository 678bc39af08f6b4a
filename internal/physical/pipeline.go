package physical

import (
	"fmt"
	"time"

	"repro/internal/catalyst"
	"repro/internal/expr"
	"repro/internal/rdd"
	"repro/internal/row"
)

// ProjectExec evaluates a projection list per row.
type ProjectExec struct {
	PlanEstimate
	PlanMetrics
	List  []expr.Expression
	Child SparkPlan
}

func (p *ProjectExec) Children() []SparkPlan { return []SparkPlan{p.Child} }
func (p *ProjectExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *p
	c.Child = children[0]
	return &c
}
func (p *ProjectExec) Output() []*expr.AttributeReference { return namedAttrs(p.List) }
func (p *ProjectExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	return runStage(ctx, &p.PlanMetrics, stage{list: p.List}, p.Child)
}
func (p *ProjectExec) SimpleString() string { return "Project [" + exprListString(p.List) + "]" }
func (p *ProjectExec) String() string       { return Format(p) }

// FilterExec keeps rows matching the predicate.
type FilterExec struct {
	PlanEstimate
	PlanMetrics
	Cond  expr.Expression
	Child SparkPlan
}

func (f *FilterExec) Children() []SparkPlan { return []SparkPlan{f.Child} }
func (f *FilterExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *f
	c.Child = children[0]
	return &c
}
func (f *FilterExec) Output() []*expr.AttributeReference { return f.Child.Output() }
func (f *FilterExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	return runStage(ctx, &f.PlanMetrics, stage{isFilter: true, cond: f.Cond}, f.Child)
}
func (f *FilterExec) SimpleString() string { return fmt.Sprintf("Filter %s", f.Cond) }
func (f *FilterExec) String() string       { return Format(f) }

// runStage executes an uncollapsed projection or filter as a one-stage
// pipeline that records into the operator's own metrics.
func runStage(ctx *ExecContext, pm *PlanMetrics, st stage, child SparkPlan) *rdd.RDD[row.Row] {
	pm.EnableMetrics(ctx.Metrics)
	return (&PipelineExec{PlanMetrics: *pm, Stages: []stage{st}, Child: child}).Execute(ctx)
}

// stage is one step of a fused pipeline.
type stage struct {
	isFilter bool
	cond     expr.Expression   // when isFilter
	list     []expr.Expression // when !isFilter
}

// PipelineExec fuses a chain of projections and filters into a single
// MapPartitions pass — the paper's §4.3.3 rule-based physical optimization
// ("pipelining projections or filters into one Spark map operation"). The
// CollapsePipelines preparation rule builds these from adjacent
// Project/Filter operators.
type PipelineExec struct {
	PlanEstimate
	PlanMetrics
	FusionNote
	// Stages are listed bottom (first applied) to top.
	Stages []stage
	Child  SparkPlan
}

func (p *PipelineExec) Children() []SparkPlan { return []SparkPlan{p.Child} }
func (p *PipelineExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *p
	c.Child = children[0]
	return &c
}
func (p *PipelineExec) Output() []*expr.AttributeReference {
	return stagesOutput(p.Stages, p.Child.Output())
}

// compiledStage is a stage bound and compiled against its input schema.
type compiledStage struct {
	isFilter bool
	pred     func(row.Row) bool
	evals    []func(row.Row) any
}

func (p *PipelineExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	attrs := p.Child.Output()
	stages := make([]compiledStage, len(p.Stages))
	for i, st := range p.Stages {
		if st.isFilter {
			stages[i] = compiledStage{isFilter: true, pred: ctx.predicate(bind(st.cond, attrs))}
			continue
		}
		bound := bindAll(st.list, attrs)
		evals := make([]func(row.Row) any, len(bound))
		for j, e := range bound {
			evals[j] = ctx.evaluator(e)
		}
		stages[i] = compiledStage{evals: evals}
		attrs = namedAttrs(st.list)
	}
	om := p.EnableMetrics(ctx.Metrics)
	return rdd.MapPartitions(p.Child.Execute(ctx), func(_ int, in []row.Row) []row.Row {
		start := time.Now()
		out := make([]row.Row, 0, len(in))
	rows:
		for _, r := range in {
			for _, st := range stages {
				if st.isFilter {
					if !st.pred(r) {
						continue rows
					}
					continue
				}
				next := make(row.Row, len(st.evals))
				for i, ev := range st.evals {
					next[i] = ev(r)
				}
				r = next
			}
			out = append(out, r)
		}
		om.RecordPartition(len(out), time.Since(start))
		return out
	})
}
func (p *PipelineExec) SimpleString() string {
	return fmt.Sprintf("WholeStagePipeline (%d stages)", len(p.Stages))
}
func (p *PipelineExec) String() string { return Format(p) }

// Collapse is the physical preparation rule fusing adjacent Project/Filter
// operators into PipelineExec nodes, bottom-up.
func Collapse(p SparkPlan) SparkPlan {
	return catalyst.TransformUp(p, func(p SparkPlan) (SparkPlan, bool) {
		switch n := p.(type) {
		case *ProjectExec:
			// The fused pipeline produces the top operator's output, so it
			// inherits that operator's estimate.
			return transferEstimate(fuse(stage{list: n.List}, n.Child), n), true
		case *FilterExec:
			return transferEstimate(fuse(stage{isFilter: true, cond: n.Cond}, n.Child), n), true
		}
		return nil, false
	})
}

func fuse(top stage, child SparkPlan) SparkPlan {
	if pipe, ok := child.(*PipelineExec); ok {
		stages := make([]stage, 0, len(pipe.Stages)+1)
		stages = append(stages, pipe.Stages...)
		stages = append(stages, top)
		return &PipelineExec{Stages: stages, Child: pipe.Child}
	}
	return &PipelineExec{Stages: []stage{top}, Child: child}
}
