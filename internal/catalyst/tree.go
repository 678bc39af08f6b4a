// Package catalyst implements the core of the Catalyst optimizer framework
// (paper §4.1–4.2): a general library for representing immutable trees and
// applying rules to manipulate them. Expression trees, logical plans and
// physical plans all instantiate this framework: the analyzer's and the
// optimizer's batches rewrite logical plans, and the planner's one
// fixed-point batch, "Preparation" (physical.Planner.Prepare), collapses,
// vectorizes and fuses physical plans.
//
// Where Scala Catalyst rules use pattern matching with partial functions,
// Go rules are functions containing type switches; the Transform helpers
// provide the same "applies recursively to all nodes, skipping subtrees
// that do not match" behaviour, so a rule only reasons about the shapes it
// rewrites.
//
// Node identity is the framework's only notion of change: a transform that
// matches nothing returns its input without allocating, and a batch's fixed
// point is an iteration in which every rule did. Nothing here prints a tree.
package catalyst

// TreeNode is the interface every Catalyst tree node satisfies. The type
// parameter T is the node family (e.g. expr.Expression, plan.LogicalPlan):
// Go's substitute for Scala's F-bounded TreeNode[BaseType <: TreeNode[...]].
//
// Nodes are immutable: WithNewChildren returns a rebuilt copy. All
// implementations must be pointer types: identity is how the transforms
// reuse untouched subtrees and how the executor detects a fixed point.
type TreeNode[T any] interface {
	// Children returns the node's direct children in order.
	Children() []T
	// WithNewChildren returns a copy of the node with the given children.
	// len(children) must equal len(Children()).
	WithNewChildren(children []T) T
}

// PartialFunc is a rule body: it returns the replacement node and true when
// it matches, or the zero value and false to leave the node unchanged —
// Go's rendering of the Scala partial function passed to transform.
type PartialFunc[T any] func(T) (T, bool)

// TransformUp applies f to every node of the tree, children first (the
// default post-order traversal of Catalyst's transform method). Subtrees
// that f does not match are reused as-is.
func TransformUp[T TreeNode[T]](node T, f PartialFunc[T]) T {
	node = mapChildren(node, func(c T) T { return TransformUp(c, f) })
	if replaced, ok := f(node); ok {
		return replaced
	}
	return node
}

// TransformDown applies f to every node of the tree, parents first
// (pre-order). When f rewrites a node, the traversal continues into the
// replacement's children.
func TransformDown[T TreeNode[T]](node T, f PartialFunc[T]) T {
	if replaced, ok := f(node); ok {
		node = replaced
	}
	return mapChildren(node, func(c T) T { return TransformDown(c, f) })
}

// mapChildren rebuilds node with g applied to each child, reusing the node
// when no child changed.
func mapChildren[T TreeNode[T]](node T, g func(T) T) T {
	if children, changed := MapSlice(node.Children(), g); changed {
		return node.WithNewChildren(children)
	}
	return node
}

// MapSlice applies g to every element of s. While g returns each element
// itself it allocates nothing, and when it did so for all of them it returns
// s and false; from the first element g replaced, it builds a new slice and
// returns it and true. Elements are compared by identity, so they must be
// pointers or interfaces holding pointers.
func MapSlice[T any](s []T, g func(T) T) ([]T, bool) {
	var out []T
	for i, x := range s {
		nx := g(x)
		if out == nil {
			if any(nx) == any(x) {
				continue
			}
			out = make([]T, len(s))
			copy(out, s[:i])
		}
		out[i] = nx
	}
	if out == nil {
		return s, false
	}
	return out, true
}

// Foreach runs visit on every node of the tree, parents first.
func Foreach[T TreeNode[T]](node T, visit func(T)) {
	visit(node)
	for _, c := range node.Children() {
		Foreach(c, visit)
	}
}

// Collect gathers the nodes for which pred returns true, in pre-order.
func Collect[T TreeNode[T]](node T, pred func(T) bool) []T {
	var out []T
	Foreach(node, func(n T) {
		if pred(n) {
			out = append(out, n)
		}
	})
	return out
}

// Find returns the first node (pre-order) satisfying pred.
func Find[T TreeNode[T]](node T, pred func(T) bool) (T, bool) {
	if pred(node) {
		return node, true
	}
	for _, c := range node.Children() {
		if n, ok := Find(c, pred); ok {
			return n, true
		}
	}
	var zero T
	return zero, false
}

// Exists reports whether any node satisfies pred.
func Exists[T TreeNode[T]](node T, pred func(T) bool) bool {
	_, ok := Find(node, pred)
	return ok
}
