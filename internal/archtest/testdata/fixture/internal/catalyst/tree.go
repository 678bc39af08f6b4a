package catalyst

import "strings"

// TreeNode is a tree node that prints itself.
type TreeNode[T any] interface {
	Children() []T
	String() string
	WithNewChildren(children []T) T
}

// TransformUp is the framework's own walk, which the hand-walk gate allows.
func TransformUp[T TreeNode[T]](node T, f func(T) T) T {
	kids := node.Children()
	for i, c := range kids {
		kids[i] = TransformUp(c, f)
	}
	return f(node.WithNewChildren(kids))
}

// Changed detects a rewrite by its rendering.
func Changed[T TreeNode[T]](a, b T) bool { return a.String() != b.String() }

type Leaf struct{ name string }

func (l Leaf) String() string { return strings.ToUpper(l.name) }
