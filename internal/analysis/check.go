package analysis

import (
	"strings"

	"repro/internal/catalyst"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// CheckAnalysis validates a plan after the resolution batch: every node and
// expression must be resolved, filters must be boolean, aggregate output
// must only reference grouped columns or aggregates, and every referenced
// attribute must come from a child (the "sanity checks after each batch" of
// paper §4.2). Errors carry the offending fragment so the user sees the
// problem "as soon as they type an invalid line of code" (§3.4).
func CheckAnalysis(p plan.LogicalPlan) error {
	var err error
	catalyst.Foreach[plan.LogicalPlan](p, func(n plan.LogicalPlan) {
		if err != nil {
			return
		}
		// Unresolved relation/plan-level nodes.
		if !n.Resolved() {
			if u, ok := n.(*plan.UnresolvedRelation); ok {
				err = Errorf("table not found: %s", u.Name)
				return
			}
			// Find the unresolved expression for a pointed error message.
			for _, e := range n.Expressions() {
				if bad, found := firstUnresolved(e); found {
					err = Errorf("cannot resolve %s in operator %s", describe(bad), n.SimpleString())
					return
				}
			}
			err = Errorf("unresolved operator %s", n.SimpleString())
			return
		}
		if missing := plan.MissingReferences(n); len(missing) > 0 && len(n.Children()) > 0 {
			err = Errorf("operator %s references attributes missing from its children", n.SimpleString())
			return
		}
		switch node := n.(type) {
		case *plan.Filter:
			if !node.Cond.DataType().Equals(types.Boolean) {
				err = Errorf("filter condition %s must be BOOLEAN, not %s",
					node.Cond, node.Cond.DataType().Name())
			}
		case *plan.Join:
			if node.Cond != nil && !node.Cond.DataType().Equals(types.Boolean) {
				err = Errorf("join condition %s must be BOOLEAN, not %s",
					node.Cond, node.Cond.DataType().Name())
			}
		case *plan.Aggregate:
			err = checkAggregate(node)
		case *plan.Union:
			err = checkUnion(node)
		}
	})
	return err
}

func firstUnresolved(e expr.Expression) (expr.Expression, bool) {
	return catalyst.Find[expr.Expression](e, func(x expr.Expression) bool {
		return !x.Resolved() && expr.ChildrenResolved(x)
	})
}

func describe(e expr.Expression) string {
	switch x := e.(type) {
	case *expr.UnresolvedAttribute:
		return "column '" + strings.Join(x.Parts, ".") + "'"
	case *expr.UnresolvedFunction:
		return "function '" + x.Name + "'"
	default:
		return "'" + e.String() + "' (type mismatch)"
	}
}

// checkAggregate enforces SQL grouping semantics: expressions in the
// aggregate list must be aggregate functions or appear in (be derivable
// from) the grouping expressions.
func checkAggregate(a *plan.Aggregate) error {
	groupAttrs := make(expr.AttributeSet)
	for _, g := range a.Grouping {
		for id := range expr.References(g) {
			groupAttrs.Add(id)
		}
	}
	for _, e := range a.Aggs {
		if bad := findUngroupedRef(e, a.Grouping, groupAttrs); bad != nil {
			return Errorf("expression %s is neither grouped nor aggregated (add it to GROUP BY or wrap in an aggregate)", bad)
		}
	}
	return nil
}

// findUngroupedRef walks e skipping aggregate subtrees and whole
// expressions that structurally match a grouping expression, returning an
// attribute reference that escapes both.
func findUngroupedRef(e expr.Expression, grouping []expr.Expression, groupAttrs expr.AttributeSet) expr.Expression {
	if _, isAgg := e.(expr.AggregateFunc); isAgg {
		return nil
	}
	for _, g := range grouping {
		if expr.Equivalent(e, g) {
			return nil
		}
	}
	if attr, ok := e.(*expr.AttributeReference); ok {
		if groupAttrs.Contains(attr.ID_) {
			return nil
		}
		return attr
	}
	for _, c := range e.Children() {
		if bad := findUngroupedRef(c, grouping, groupAttrs); bad != nil {
			return bad
		}
	}
	return nil
}

func checkUnion(u *plan.Union) error {
	first := plan.Schema(u.Kids[0])
	for i, k := range u.Kids[1:] {
		s := plan.Schema(k)
		if len(s.Fields) != len(first.Fields) {
			return Errorf("UNION requires the same number of columns: %d vs %d",
				len(first.Fields), len(s.Fields))
		}
		for j := range s.Fields {
			if !s.Fields[j].Type.Equals(first.Fields[j].Type) {
				return Errorf("UNION column %d type mismatch in input %d: %s vs %s",
					j+1, i+2, first.Fields[j].Type.Name(), s.Fields[j].Type.Name())
			}
		}
	}
	return nil
}
