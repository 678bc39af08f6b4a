package physical

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/plan"
)

// Whole-stage fusion (the Flare/Tungsten lesson, translated to Go): past
// basic vectorization, the next win is running an entire pipeline —
// scan → filter → project → aggregate-update or join-probe — as ONE loop
// over columnar batches, with no row materialization at the operator
// boundary. The Fuse preparation rule below rewrites the plan tree to the
// fused operators and records its decision on every candidate node so
// EXPLAIN can show exactly what got fused and why the rest did not.

// FusionNote records the Fuse rule's decision on a physical operator
// ("fused: true" — a fused aggregate or join adds its group table, an
// aggregate also how many of its key / aggregate-input kernels are native —
// or "fallback: <reason>"). Operators embed it; EXPLAIN and EXPLAIN ANALYZE
// print it through the FusionAnnotated interface.
type FusionNote struct{ note string }

// SetFusion records the fusion decision.
func (f *FusionNote) SetFusion(note string) { f.note = note }

// Fusion returns the recorded decision, or "" when the node was never a
// fusion candidate (fusion disabled, or an operator class fusion ignores).
func (f *FusionNote) Fusion() string { return f.note }

// FusionAnnotated is implemented by operators that carry a fusion decision.
type FusionAnnotated interface{ Fusion() string }

// Fuse is the preparation rule, run after Vectorize, that absorbs an
// aggregation or a broadcast-hash-join probe into the vectorized pipeline
// feeding it. Aggregations always fuse over a vectorized (or bare batch
// scan) input — the generic group table and the per-row aggregate escape
// hatch cover every key and function shape. Join probes fuse only for the
// shapes the batch probe loop reproduces byte-identically (build right,
// inner or left-outer, or build left, inner; no residual; 1×int64,
// 1×string, or 2×int64 keys with native probe kernels); everything else
// keeps the row operator and says why.
func Fuse(p SparkPlan) SparkPlan {
	children := p.Children()
	if len(children) > 0 {
		newChildren := make([]SparkPlan, len(children))
		changed := false
		for i, c := range children {
			nc := Fuse(c)
			newChildren[i] = nc
			if nc != c {
				changed = true
			}
		}
		if changed {
			p = p.WithNewChildren(newChildren)
		}
	}
	switch n := p.(type) {
	case *HashAggregateExec:
		vp := fusablePipe(n.Child)
		if vp == nil {
			n.SetFusion("fallback: input not vectorized")
			return p
		}
		f := &FusedAggregateExec{Agg: n, Pipe: vp, sink: n.compileSink(vp.Output())}
		f.SetFusion(f.sink.note(n.keyTypes()))
		return transferEstimate(f, n)
	case *BroadcastHashJoinExec:
		if reason := joinFuseBlocker(n); reason != "" {
			n.SetFusion("fallback: " + reason)
			return p
		}
		f := &FusedBroadcastJoinExec{Join: n, Pipe: fusablePipe(n.probeSide())}
		_, buildKeys := n.probeBuildKeys()
		_, table := newGroupIndexer(exprTypes(buildKeys), nil, 0)
		f.SetFusion("fused: true, table=" + table)
		return transferEstimate(f, n)
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
	return p
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

// joinFuseBlocker reports why a broadcast join cannot take the fused probe
// path ("" = fusable). The conditions mirror exactly what
// FusedBroadcastJoinExec.Execute handles.
func joinFuseBlocker(j *BroadcastHashJoinExec) string {
	if !j.BuildRight && j.Type != plan.InnerJoin {
		// Probing from the right null-extends and orders an outer join's
		// output differently; only the inner join is reproduced.
		return "build side not right"
	}
	if j.Type != plan.InnerJoin && j.Type != plan.LeftOuterJoin {
		return fmt.Sprintf("join type %s", j.Type)
	}
	if j.Residual != nil {
		return "residual predicate"
	}
	vp := fusablePipe(j.probeSide())
	if vp == nil {
		return "probe side not vectorized"
	}
	if r := keyShapeBlocker(j.LeftKeys, j.RightKeys); r != "" {
		return r
	}
	probeKeys, _ := j.probeBuildKeys()
	for _, k := range bindAll(probeKeys, vp.Output()) {
		if _, ok := expr.CompileVec(k); !ok {
			return "probe key not native"
		}
	}
	return ""
}

// keyShapeBlocker admits the key shapes that index without boxing: a single
// int64-class key, a single string key, or an (int64, int64) pair — with
// matching classes on both sides. (The generic table would serve any shape;
// no workload has measured the fused probe over it yet.)
func keyShapeBlocker(l, r []expr.Expression) string {
	cls := func(e expr.Expression) int { return expr.VecClassOf(e.DataType()) }
	switch len(l) {
	case 1:
		c := cls(l[0])
		if (c == expr.VecClassI64 || c == expr.VecClassStr) && cls(r[0]) == c {
			return ""
		}
	case 2:
		if cls(l[0]) == expr.VecClassI64 && cls(l[1]) == expr.VecClassI64 &&
			cls(r[0]) == expr.VecClassI64 && cls(r[1]) == expr.VecClassI64 {
			return ""
		}
	}
	return "key shape"
}
