package physical

// SparkPlan is a physical operator.
type SparkPlan interface {
	Children() []SparkPlan
	WithNewChildren(children []SparkPlan) SparkPlan
}

// transformUp rewrites a plan bottom-up: children first, then fn on the node
// (rebuilt over its new children when any changed). The preparation rules
// Collapse, Vectorize and Fuse are each one fn.
func transformUp(p SparkPlan, fn func(SparkPlan) SparkPlan) SparkPlan {
	children := p.Children()
	newChildren := make([]SparkPlan, len(children))
	changed := false
	for i, c := range children {
		newChildren[i] = transformUp(c, fn)
		changed = changed || newChildren[i] != c
	}
	if changed {
		p = p.WithNewChildren(newChildren)
	}
	return fn(p)
}

// fused wraps a node; rebuilding it rebuilds the node it wraps, which is no
// walk.
type fused struct{ inner SparkPlan }

func (f *fused) Children() []SparkPlan { return f.inner.Children() }
func (f *fused) WithNewChildren(children []SparkPlan) SparkPlan {
	return &fused{inner: f.inner.WithNewChildren(children)}
}
