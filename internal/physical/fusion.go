package physical

import (
	"fmt"
	"strings"

	"repro/internal/catalyst"
	"repro/internal/expr"
)

// Whole-stage fusion (the Flare/Tungsten lesson, translated to Go): past
// basic vectorization, the next win is running an entire pipeline —
// scan → filter → project → aggregate-update or join-probe — as ONE loop
// over columnar batches, with no row materialization at the operator
// boundary. The Fuse preparation rule below rewrites the plan tree to the
// fused operators and records its decision on every candidate node so
// EXPLAIN can show exactly what got fused and why the rest did not.

// FusionNote records the Fuse rule's decision on a physical operator
// ("fused: true" or, on an aggregate over rows, "rows transposed" — a sink
// adds its group table and how many of its key / aggregate-input kernels are
// native — or "fallback: <reason>"). Operators embed it; EXPLAIN and EXPLAIN
// ANALYZE print it through the FusionAnnotated interface.
type FusionNote struct{ note string }

// SetFusion records the fusion decision.
func (f *FusionNote) SetFusion(note string) { f.note = note }

// Fusion returns the recorded decision, or "" when the node was never a
// fusion candidate (fusion disabled, or an operator class fusion ignores).
func (f *FusionNote) Fusion() string { return f.note }

// FusionAnnotated is implemented by operators that carry a fusion decision.
type FusionAnnotated interface{ Fusion() string }

// Fuse is the preparation rule, run after Vectorize, that absorbs an
// aggregation or a broadcast-hash-join probe into the batch pipeline feeding
// it. Admission is one condition — the input (a join's probe side) is a
// vectorized pipeline or a bare batch scan, and a fused join is itself a
// batch scan to whatever sits on it; an aggregate over any other input runs
// the same sink over its rows transposed — because the sinks cover every shape:
// the generic group table serves any key, a key or aggregate input without a
// native kernel runs through the boxed per-row fallback, and the probe loop
// is the row join's own, for every join type and residual. A pipeline over a
// join fused here vectorizes, and then fuses, in the batch's next iterations.
func Fuse(p SparkPlan) SparkPlan {
	return catalyst.TransformUp(p, func(p SparkPlan) (SparkPlan, bool) {
		switch n := p.(type) {
		case *HashAggregateExec:
			vp := fusablePipe(n.Child)
			if vp == nil {
				if n.Fusion() == "" { // compiled once: a rule that matches nothing allocates nothing
					n.SetFusion(n.compileSink(n.Child.Output(), true).note("rows transposed", n.keyTypes()))
				}
				return nil, false
			}
			f := &FusedAggregateExec{Agg: n, Pipe: vp, sink: n.compileSink(vp.Output(), true)}
			f.SetFusion(f.sink.note("fused: true", n.keyTypes()))
			return transferEstimate(f, n), true
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
