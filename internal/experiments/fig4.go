// Package experiments implements the workloads and harnesses that
// regenerate every figure of the paper's evaluation (§6 Figures 8-10 and
// §4.3.4 Figure 4), plus the ablation studies DESIGN.md calls out. Both
// the testing.B benchmarks in bench_test.go and cmd/benchrunner drive
// these entry points.
package experiments

import (
	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/row"
	"repro/internal/types"
)

// Figure 4: evaluating x+x+x (integers) 10^9 times, comparing interpreted
// evaluation, hand-written code and (closure-)generated code. The paper
// reports interpreted ≈ 9.36 s, hand-written ≈ 0.54 s, generated ≈ 0.68 s.

// Fig4BatchRows is how many evaluations one GeneratedUnboxed call performs.
const Fig4BatchRows = 1024

// Fig4 bundles the evaluation strategies over the same expression tree; each
// function evaluates x+x+x for the given x (GeneratedUnboxed: for a batch of
// rows the first of which holds x).
type Fig4 struct {
	// Interpreted walks the expression tree per evaluation (virtual calls
	// + boxing), the pre-codegen Spark SQL path.
	Interpreted func(x int64) int64
	// Generated is the closure-compiled evaluator (generic, boxed
	// results) — Catalyst codegen's general path.
	Generated func(x int64) int64
	// GeneratedUnboxed is the unboxed compiled path, closest to the JVM
	// bytecode the paper generates and the evaluator fused pipelines actually
	// execute: the tree compiled to a batch kernel (expr.CompileVec) and run
	// over one Fig4BatchRows-row BIGINT batch. It returns the first row's
	// result; its per-evaluation cost is the call's divided by Fig4BatchRows.
	GeneratedUnboxed func(x int64) int64
	// HandWritten is the direct Go expression.
	HandWritten func(x int64) int64
}

// NewFig4 builds the evaluators for the tree Add(Add(x,x),x) over a
// single-column BIGINT row.
func NewFig4() Fig4 {
	attr := &expr.BoundReference{Ordinal: 0, Type: types.Long, Null: false}
	tree := expr.Add(expr.Add(attr, attr), attr)

	compiled := expr.Compile(tree)
	kernel, ok := expr.CompileVec(tree)
	if !ok {
		panic("experiments: x+x+x has no native batch kernel")
	}
	lane := make([]int64, Fig4BatchRows)
	sel := make([]int32, Fig4BatchRows)
	for i := range lane {
		lane[i], sel[i] = int64(i), int32(i)
	}
	batch := &expr.VecBatch{Cols: []*columnar.Vector{columnar.WrapLanes(types.Long, lane, nil)}, N: Fig4BatchRows}

	scratch := make(row.Row, 1)
	return Fig4{
		Interpreted: func(x int64) int64 {
			scratch[0] = x
			return tree.Eval(scratch).(int64)
		},
		Generated: func(x int64) int64 {
			scratch[0] = x
			return compiled(scratch).(int64)
		},
		GeneratedUnboxed: func(x int64) int64 {
			lane[0] = x
			return kernel(batch, sel).I64[0]
		},
		HandWritten: func(x int64) int64 {
			return x + x + x
		},
	}
}
