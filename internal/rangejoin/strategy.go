package rangejoin

import (
	"context"
	"fmt"

	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
)

// Strategy returns a physical-planner strategy recognizing the interval
// overlap join shape:
//
//	SELECT * FROM a JOIN b
//	WHERE a.start < b.start AND b.start < a.end
//
// (the single-relation validity predicates a.start < a.end, b.start < b.end
// are pushed below the join by the optimizer before planning). Install it
// with engine.AddStrategy(rangejoin.Strategy()) — the paper's extension
// point: "researchers ... were able to build a special planning rule ...
// approximately 100 lines of code".
func Strategy() physical.Strategy {
	return func(pl *physical.Planner, lp plan.LogicalPlan) (physical.SparkPlan, bool, error) {
		j, ok := lp.(*plan.Join)
		if !ok || j.Type != plan.InnerJoin || j.Cond == nil {
			return nil, false, nil
		}
		m, ok := matchIntervalJoin(j)
		if !ok {
			return nil, false, nil
		}
		left, err := pl.Plan(j.Left)
		if err != nil {
			return nil, false, err
		}
		right, err := pl.Plan(j.Right)
		if err != nil {
			return nil, false, err
		}
		return &IntervalJoinExec{
			Left: left, Right: right,
			LeftStart: m.leftStart, LeftEnd: m.leftEnd, RightPoint: m.rightPoint,
			Residual: m.residual,
		}, true, nil
	}
}

// match captures the recognized pattern: left interval attrs and the right
// probe attribute.
type match struct {
	leftStart, leftEnd, rightPoint *expr.AttributeReference
	residual                       expr.Expression
}

// matchIntervalJoin looks for conjuncts {L.s < R.p, R.p < L.e} with L.s,
// L.e from the left side and R.p from the right (or the mirrored layout).
func matchIntervalJoin(j *plan.Join) (match, bool) {
	leftSet := plan.OutputSet(j.Left)
	rightSet := plan.OutputSet(j.Right)

	// Only strict < conjuncts participate in the recognized pattern (the
	// interval tree's StabStrict implements strict containment); anything
	// else stays in the residual.
	type ltPair struct{ lo, hi *expr.AttributeReference }
	var pairs []ltPair
	var rest []expr.Expression
	for _, c := range expr.SplitConjuncts(j.Cond) {
		cmp, ok := c.(*expr.Comparison)
		if !ok || cmp.Op != expr.OpLT {
			rest = append(rest, c)
			continue
		}
		lo, okL := cmp.Left.(*expr.AttributeReference)
		hi, okR := cmp.Right.(*expr.AttributeReference)
		if !okL || !okR {
			rest = append(rest, c)
			continue
		}
		pairs = append(pairs, ltPair{lo, hi})
	}
	side := func(a *expr.AttributeReference) int {
		switch {
		case leftSet.Contains(a.ID_):
			return 0
		case rightSet.Contains(a.ID_):
			return 1
		}
		return -1
	}
	// Find i, j such that pairs[i] = (L.s < R.p) and pairs[j] = (R.p < L.e).
	for i, p1 := range pairs {
		if side(p1.lo) != 0 || side(p1.hi) != 1 {
			continue
		}
		for k, p2 := range pairs {
			if k == i || side(p2.lo) != 1 || side(p2.hi) != 0 {
				continue
			}
			if p2.lo.ID_ != p1.hi.ID_ {
				continue
			}
			// Remaining pairs join the residual.
			residual := rest
			for q, p := range pairs {
				if q != i && q != k {
					residual = append(residual, expr.LT(p.lo, p.hi))
				}
			}
			return match{
				leftStart:  p1.lo,
				leftEnd:    p2.hi,
				rightPoint: p1.hi,
				residual:   expr.JoinConjuncts(residual),
			}, true
		}
	}
	return match{}, false
}

// IntervalJoinExec builds an interval tree over the left (interval) side
// and stabs it with each right (point) row.
type IntervalJoinExec struct {
	physical.PlanEstimate
	Left, Right                    physical.SparkPlan
	LeftStart, LeftEnd, RightPoint *expr.AttributeReference
	Residual                       expr.Expression
}

// Children implements physical.SparkPlan.
func (e *IntervalJoinExec) Children() []physical.SparkPlan {
	return []physical.SparkPlan{e.Left, e.Right}
}

// WithNewChildren implements physical.SparkPlan.
func (e *IntervalJoinExec) WithNewChildren(children []physical.SparkPlan) physical.SparkPlan {
	c := *e
	c.Left, c.Right = children[0], children[1]
	return &c
}

// Output implements physical.SparkPlan (inner join: left ++ right).
func (e *IntervalJoinExec) Output() []*expr.AttributeReference {
	out := append([]*expr.AttributeReference{}, e.Left.Output()...)
	return append(out, e.Right.Output()...)
}

// SimpleString implements physical.SparkPlan.
func (e *IntervalJoinExec) SimpleString() string {
	return fmt.Sprintf("IntervalTreeJoin [%s,%s) contains %s", e.LeftStart, e.LeftEnd, e.RightPoint)
}

// String implements physical.SparkPlan.
func (e *IntervalJoinExec) String() string { return physical.Format(e) }

// Execute implements physical.SparkPlan.
func (e *IntervalJoinExec) Execute(ctx *physical.ExecContext) *rdd.RDD[row.Row] {
	leftOut := e.Left.Output()
	startEval := expr.MustBind(e.LeftStart, leftOut)
	endEval := expr.MustBind(e.LeftEnd, leftOut)
	pointEval := expr.MustBind(e.RightPoint, e.Right.Output())

	// The build side is a stage: collected once, before any probe task.
	type builtTree struct {
		tree *Tree
		rows []row.Row
	}
	build := physical.BuildStage(e.Left.Execute(ctx), nil, func(leftRows []row.Row) builtTree {
		intervals := make([]Interval, 0, len(leftRows))
		for i, r := range leftRows {
			s, en := startEval.Eval(r), endEval.Eval(r)
			if s == nil || en == nil {
				continue
			}
			intervals = append(intervals, Interval{Start: asLong(s), End: asLong(en), Payload: i})
		}
		return builtTree{tree: Build(intervals), rows: leftRows}
	})

	var residual func(l, r row.Row) bool
	if e.Residual != nil {
		input := append(append([]*expr.AttributeReference{}, leftOut...), e.Right.Output()...)
		pred := expr.MustBind(e.Residual, input)
		nl := len(leftOut)
		residual = func(l, r row.Row) bool {
			joined := make(row.Row, nl+len(r))
			copy(joined, l)
			copy(joined[nl:], r)
			return pred.Eval(joined) == true
		}
	}

	return rdd.MapPartitionsCtx(e.Right.Execute(ctx), func(jc context.Context, _ int, in []row.Row) ([]row.Row, error) {
		b, err := build.Value(jc)
		if err != nil {
			return nil, err
		}
		var out []row.Row
		var hits []Interval
		for _, r := range in {
			p := pointEval.Eval(r)
			if p == nil {
				continue
			}
			hits = b.tree.StabStrict(asLong(p), hits[:0])
			for _, h := range hits {
				l := b.rows[h.Payload]
				if residual != nil && !residual(l, r) {
					continue
				}
				joined := make(row.Row, len(l)+len(r))
				copy(joined, l)
				copy(joined[len(l):], r)
				out = append(out, joined)
			}
		}
		return out, nil
	}).Reads(build)
}

func asLong(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case int32:
		return int64(x)
	}
	panic(fmt.Sprintf("rangejoin: interval bounds must be integers, got %T", v))
}
