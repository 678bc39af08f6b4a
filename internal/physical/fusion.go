package physical

import (
	"fmt"
	"strings"

	"repro/internal/catalyst"
	"repro/internal/expr"
)

// Whole-stage fusion (the Flare/Tungsten lesson): scan → filter → project →
// aggregate-update or join-probe as ONE loop over columnar batches, with no
// row materialized between operators. The Fuse rule records its decision on
// every candidate in a FusionNote ("fused: true"; on a presplit exchange over
// rows, "rows transposed" — a sink adds its group table and how many of its
// kernels are native; or "fallback: <reason>"), which EXPLAIN prints.
type FusionNote struct{ note string }

// SetFusion records the fusion decision.
func (f *FusionNote) SetFusion(note string) { f.note = note }

// Fusion returns the recorded decision, or "" when the node was never a
// fusion candidate (fusion disabled, or an operator class fusion ignores).
func (f *FusionNote) Fusion() string { return f.note }

// FusionAnnotated is implemented by operators that carry a fusion decision.
type FusionAnnotated interface{ Fusion() string }

// Fuse is the preparation rule, run after Vectorize, that fuses an
// aggregate's phase 1 (its presplit exchange's map side) or a broadcast join's
// probe into the vectorized pipeline or bare batch scan feeding it; a fused
// join is a batch scan to whatever sits on it, and a pipeline over one
// vectorizes, then fuses, in the batch's next iterations. Phase 1 over any
// other input runs the same sink over its rows transposed.
func Fuse(p SparkPlan) SparkPlan {
	return catalyst.TransformUp(p, func(p SparkPlan) (SparkPlan, bool) {
		switch n := p.(type) {
		case *ExchangeExec: // a presplit exchange's phase 1 is the aggregate's sink
			if n.Form != PresplitExchange || n.batches {
				return nil, false
			}
			if vp := fusablePipe(n.Child); vp != nil {
				c := *n
				c.Child, c.batches, c.sink = vp, true, compileSink(n.Keys, n.Aggs, vp.Output(), true)
				c.SetFusion(c.sink.note("fused: true", exprTypes(n.Keys)))
				return &c, true
			}
			if n.Fusion() == "" { // compiled once: a rule that matches nothing allocates nothing
				n.SetFusion(compileSink(n.Keys, n.Aggs, n.Child.Output(), true).note("rows transposed", exprTypes(n.Keys)))
			}
			return nil, false
		case *BroadcastHashJoinExec:
			vp := fusablePipe(n.probeSide())
			if vp == nil {
				n.SetFusion("fallback: probe side not vectorized")
				return nil, false
			}
			f := &FusedBroadcastJoinExec{Join: n.withProbeSide(vp)}
			f.SetFusion(n.probeNote(vp.Output()))
			return transferEstimate(f, n), true
		case *VectorizedPipelineExec:
			n.SetFusion("fused: true")
		case *PipelineExec:
			switch _, batches := n.Child.(BatchScan); {
			case batches:
				n.SetFusion("fallback: no native kernels")
			case len(n.Child.Children()) == 0:
				n.SetFusion("fallback: scan not columnar")
			default:
				n.SetFusion("fallback: input not a scan")
			}
		}
		return nil, false
	})
}

// fusablePipe returns the vectorized pipeline a sink can absorb: the child
// itself when it already vectorized, or a synthesized zero-stage pipeline
// when the sink sits directly on a batch scan (a bare GROUP BY with no
// filter still deserves the batch-native update loop).
func fusablePipe(p SparkPlan) *VectorizedPipelineExec {
	switch c := p.(type) {
	case *VectorizedPipelineExec:
		return c
	case BatchScan:
		vp := &VectorizedPipelineExec{Scan: c}
		vp.SetFusion("fused: true")
		transferEstimate(vp, c)
		return vp
	}
	return nil
}

// keyKernels compiles a batch sink's key expressions — group keys, or a
// join's keys — over its input: one kernel per key, whether it is native, and
// the name of every key left on the boxed scalar fallback. Without codegen
// every key is the interpreter lifted to batches, none of them native.
func keyKernels(keys []expr.Expression, input []*expr.AttributeReference, codegen bool) (evals []expr.VecEval, native []bool, fallbacks []string) {
	evals, native = make([]expr.VecEval, len(keys)), make([]bool, len(keys))
	for i, k := range keys {
		if evals[i], native[i] = vecKernel(bind(k, input), codegen); codegen && !native[i] {
			fallbacks = append(fallbacks, k.String())
		}
	}
	return evals, native, fallbacks
}

// sinkNote is a batch sink's EXPLAIN annotation: how it is fed ("fused: true",
// or "rows transposed" for a row input) and what actually runs — the group
// table, how many of the sink's kernels are native, and the inputs that are
// not.
func sinkNote(how, table string, kernels int, fallbacks []string) string {
	s := fmt.Sprintf("%s, table=%s, kernels %d/%d native", how, table, kernels-len(fallbacks), kernels)
	if len(fallbacks) > 0 {
		s += ", fallback: " + strings.Join(fallbacks, ", ")
	}
	return s
}
