// Package plan implements Catalyst logical plan trees (paper §4.3):
// relational operators over attributes, with schema propagation, statistics
// for cost-based planning, and transform helpers that let analyzer and
// optimizer rules rewrite both the plan structure and the expressions
// embedded in it.
package plan

import (
	"strings"

	"repro/internal/catalyst"
	"repro/internal/expr"
	"repro/internal/types"
)

// LogicalPlan is a node of the logical operator tree. All implementations
// are pointer types in this package.
type LogicalPlan interface {
	// Children returns the child operators.
	Children() []LogicalPlan
	// WithNewChildren rebuilds the node with replacement children.
	WithNewChildren(children []LogicalPlan) LogicalPlan
	// Output returns the attributes this operator produces. Only valid
	// once the node is resolved.
	Output() []*expr.AttributeReference
	// Expressions returns the expressions embedded in this node (not in
	// children), in a stable order matching WithNewExpressions.
	Expressions() []expr.Expression
	// WithNewExpressions rebuilds the node with replacement expressions.
	WithNewExpressions(exprs []expr.Expression) LogicalPlan
	// Resolved reports whether this node and all children are resolved.
	Resolved() bool
	// SimpleString is the one-line description of this node alone.
	SimpleString() string
	// String renders the whole subtree for printing.
	String() string
}

// Format renders a plan subtree with indentation.
func Format(p LogicalPlan) string {
	var sb strings.Builder
	writeTree(&sb, p, 0)
	return sb.String()
}

func writeTree(sb *strings.Builder, p LogicalPlan, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	sb.WriteString(p.SimpleString())
	sb.WriteByte('\n')
	for _, c := range p.Children() {
		writeTree(sb, c, depth+1)
	}
}

// Schema converts a plan's output attributes to a StructType.
func Schema(p LogicalPlan) types.StructType {
	out := p.Output()
	fields := make([]types.StructField, len(out))
	for i, a := range out {
		fields[i] = types.StructField{Name: a.Name, Type: a.Type, Nullable: a.Null}
	}
	return types.StructType{Fields: fields}
}

// OutputSet returns the set of attribute IDs a plan produces.
func OutputSet(p LogicalPlan) expr.AttributeSet {
	return expr.NewAttributeSet(p.Output()...)
}

// TransformUp rewrites the plan bottom-up with a partial function.
func TransformUp(p LogicalPlan, f catalyst.PartialFunc[LogicalPlan]) LogicalPlan {
	return catalyst.TransformUp(p, f)
}

// TransformDown rewrites the plan top-down.
func TransformDown(p LogicalPlan, f catalyst.PartialFunc[LogicalPlan]) LogicalPlan {
	return catalyst.TransformDown(p, f)
}

// TransformExpressionsUp applies an expression rewrite to every expression
// of every node in the plan — the paper's transformAllExpressions.
func TransformExpressionsUp(p LogicalPlan, f catalyst.PartialFunc[expr.Expression]) LogicalPlan {
	return TransformUp(p, func(n LogicalPlan) (LogicalPlan, bool) {
		return TransformNodeExpressions(n, f)
	})
}

// TransformNodeExpressions rewrites the expressions of the one node n, not
// of its children, and reports whether any changed; when none did it returns
// nil and false.
func TransformNodeExpressions(n LogicalPlan, f catalyst.PartialFunc[expr.Expression]) (LogicalPlan, bool) {
	exprs, changed := catalyst.MapSlice(n.Expressions(), func(e expr.Expression) expr.Expression {
		return expr.TransformUp(e, f)
	})
	if !changed {
		return nil, false
	}
	return n.WithNewExpressions(exprs), true
}

// InputAttributes returns the union of all children's outputs — what
// expressions in this node may reference.
func InputAttributes(p LogicalPlan) []*expr.AttributeReference {
	var out []*expr.AttributeReference
	for _, c := range p.Children() {
		out = append(out, c.Output()...)
	}
	return out
}

// MissingReferences lists attribute IDs referenced by p's expressions but
// not produced by its children (analysis sanity check).
func MissingReferences(p LogicalPlan) []expr.ID {
	avail := expr.NewAttributeSet(InputAttributes(p)...)
	var missing []expr.ID
	seen := make(expr.AttributeSet)
	for _, e := range p.Expressions() {
		for id := range expr.References(e) {
			if !avail.Contains(id) && !seen.Contains(id) {
				seen.Add(id)
				missing = append(missing, id)
			}
		}
	}
	return missing
}

func childrenResolved(p LogicalPlan) bool {
	for _, c := range p.Children() {
		if !c.Resolved() {
			return false
		}
	}
	return true
}

func exprsResolved(exprs []expr.Expression) bool {
	for _, e := range exprs {
		if !e.Resolved() {
			return false
		}
	}
	return true
}

func exprListString(exprs []expr.Expression) string {
	parts := make([]string, len(exprs))
	for i, e := range exprs {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

// Statistics, Stats and the selectivity/cardinality estimation framework
// live in estimation.go.

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
