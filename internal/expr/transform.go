package expr

import (
	"reflect"

	"repro/internal/catalyst"
)

// This file specializes the catalyst tree machinery to expressions and adds
// attribute bookkeeping helpers used by the analyzer and optimizer.

// TransformUp rewrites the expression bottom-up with the partial function f.
func TransformUp(e Expression, f catalyst.PartialFunc[Expression]) Expression {
	return catalyst.TransformUp(e, f)
}

// TransformDown rewrites the expression top-down.
func TransformDown(e Expression, f catalyst.PartialFunc[Expression]) Expression {
	return catalyst.TransformDown(e, f)
}

// AttributeSet is a set of attribute IDs.
type AttributeSet map[ID]struct{}

// NewAttributeSet builds a set from attributes.
func NewAttributeSet(attrs ...*AttributeReference) AttributeSet {
	s := make(AttributeSet, len(attrs))
	for _, a := range attrs {
		s[a.ID_] = struct{}{}
	}
	return s
}

// Add inserts an ID.
func (s AttributeSet) Add(id ID) { s[id] = struct{}{} }

// Contains reports membership.
func (s AttributeSet) Contains(id ID) bool {
	_, ok := s[id]
	return ok
}

// ContainsAll reports whether every ID in other is in s.
func (s AttributeSet) ContainsAll(other AttributeSet) bool {
	for id := range other {
		if !s.Contains(id) {
			return false
		}
	}
	return true
}

// Union returns a new set with the contents of both.
func (s AttributeSet) Union(other AttributeSet) AttributeSet {
	out := make(AttributeSet, len(s)+len(other))
	for id := range s {
		out.Add(id)
	}
	for id := range other {
		out.Add(id)
	}
	return out
}

// References collects the set of attribute IDs an expression references.
func References(e Expression) AttributeSet {
	s := make(AttributeSet)
	collectRefs(e, s)
	return s
}

func collectRefs(e Expression, s AttributeSet) {
	if a, ok := e.(*AttributeReference); ok {
		s.Add(a.ID_)
		return
	}
	for _, c := range e.Children() {
		collectRefs(c, s)
	}
}

// ReferencesAll collects references across several expressions.
func ReferencesAll(exprs []Expression) AttributeSet {
	s := make(AttributeSet)
	for _, e := range exprs {
		collectRefs(e, s)
	}
	return s
}

// Attributes collects the distinct AttributeReferences in an expression, in
// first-appearance order.
func Attributes(e Expression) []*AttributeReference {
	var out []*AttributeReference
	seen := make(AttributeSet)
	var walk func(Expression)
	walk = func(x Expression) {
		if a, ok := x.(*AttributeReference); ok {
			if !seen.Contains(a.ID_) {
				seen.Add(a.ID_)
				out = append(out, a)
			}
			return
		}
		for _, c := range x.Children() {
			walk(c)
		}
	}
	walk(e)
	return out
}

// IsDeterministic reports whether e always produces the same output for the
// same input (UDFs are assumed deterministic in this reproduction; rand-like
// builtins would return false here). Pushdown rules only move deterministic
// predicates.
func IsDeterministic(e Expression) bool {
	return true
}

// SplitConjuncts flattens a tree of ANDs into its conjunct list — the
// working form for predicate pushdown.
func SplitConjuncts(e Expression) []Expression {
	if and, ok := e.(*And); ok {
		return append(SplitConjuncts(and.Left), SplitConjuncts(and.Right)...)
	}
	return []Expression{e}
}

// JoinConjuncts rebuilds a conjunction from a list; it returns nil for an
// empty list.
func JoinConjuncts(conjuncts []Expression) Expression {
	if len(conjuncts) == 0 {
		return nil
	}
	out := conjuncts[0]
	for _, c := range conjuncts[1:] {
		out = &And{Left: out, Right: c}
	}
	return out
}

// Equivalent reports whether two expressions render identically and have
// the same shape: the same node type and, where resolved, the same DataType
// at every node. Attribute IDs make the rendering precise; the shape tells
// apart what folding prints alike, as a folded CAST(1 AS BIGINT) prints 1.
func Equivalent(a, b Expression) bool {
	return a.String() == b.String() && sameShape(a, b)
}

func sameShape(a, b Expression) bool {
	if reflect.TypeOf(a) != reflect.TypeOf(b) {
		return false
	}
	if a.Resolved() && b.Resolved() && !a.DataType().Equals(b.DataType()) {
		return false
	}
	ac, bc := a.Children(), b.Children()
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if !sameShape(ac[i], bc[i]) {
			return false
		}
	}
	return true
}
