package physical

import "fmt"

// rewriteAt replaces the node at path with f(node), copying spine nodes.
func rewriteAt(p SparkPlan, path []int, f func(SparkPlan) (SparkPlan, error)) (SparkPlan, error) {
	if len(path) == 0 {
		return f(p)
	}
	kids := p.Children()
	i := path[0]
	if i < 0 || i >= len(kids) {
		return nil, fmt.Errorf("physical: adaptive path index %d out of range on %T", i, p)
	}
	nk, err := rewriteAt(kids[i], path[1:], f)
	if err != nil {
		return nil, err
	}
	out := make([]SparkPlan, len(kids))
	copy(out, kids)
	out[i] = nk
	return p.WithNewChildren(out), nil
}

type adaptiveDriver struct{ next int }

// adapt is the driver's pruned walk: it stops where a subtree is opaque.
func (d *adaptiveDriver) adapt(p SparkPlan) SparkPlan {
	kids := p.Children()
	for i, k := range kids {
		kids[i] = d.adapt(k)
	}
	d.next++
	return p.WithNewChildren(kids)
}
