package catalyst

import "fmt"

// Rule is a named tree-to-tree function (paper §4.2). The function may run
// arbitrary code, but most rules are built from TransformUp/TransformDown
// with a type-switch body. A rule that matches nothing must return its input
// node itself: the executor reads any other node as a change.
type Rule[T TreeNode[T]] struct {
	Name  string
	Apply func(T) T
}

// FixedPoint and Once are batch execution strategies: a Once batch applies
// its rules a single time (e.g. join reordering), while a FixedPoint
// batch re-runs until the tree stops changing or MaxIterations is reached
// (paper §4.2: "Catalyst groups rules into batches, and executes each batch
// until it reaches a fixed point").
const (
	defaultMaxIterations = 100
)

// Batch groups rules that run together to a fixed point.
type Batch[T TreeNode[T]] struct {
	Name string
	// Once, when true, applies the rules exactly one time.
	Once bool
	// MaxIterations bounds fixed-point execution; 0 means the default
	// (100). Exceeding the bound is reported through the executor's
	// OnMaxIterations hook (a development-time sanity check).
	MaxIterations int
	Rules         []Rule[T]
}

// RuleExecutor runs batches of rules over a tree (paper Figure 3: the
// analyzer, optimizer and physical preparation are each a RuleExecutor with
// different batches).
type RuleExecutor[T TreeNode[T]] struct {
	Batches []Batch[T]
	// OnMaxIterations, if non-nil, is called when a fixed-point batch hits
	// its iteration bound without converging.
	OnMaxIterations func(batch string, iterations int)
	// Check, if non-nil, runs after each batch as a sanity check (paper
	// §4.2: "after each batch, developers can also run sanity checks").
	// A non-nil error panics in development; production engines surface
	// it via Execute's error return.
	Check func(T) error
}

// Execute runs all batches in order and returns the transformed tree. A
// fixed-point batch stops at the first iteration in which every rule returned
// the very node it was given.
func (e *RuleExecutor[T]) Execute(tree T) (T, error) {
	for _, batch := range e.Batches {
		maxIter := batch.MaxIterations
		if batch.Once {
			maxIter = 1
		} else if maxIter <= 0 {
			maxIter = defaultMaxIterations
		}
		for i := 0; i < maxIter; i++ {
			changed := false
			for _, rule := range batch.Rules {
				next := rule.Apply(tree)
				changed = changed || any(next) != any(tree)
				tree = next
			}
			if !changed {
				break // fixed point reached
			}
			if i == maxIter-1 && !batch.Once && e.OnMaxIterations != nil {
				e.OnMaxIterations(batch.Name, maxIter)
			}
		}
		if e.Check != nil {
			if err := e.Check(tree); err != nil {
				return tree, fmt.Errorf("catalyst: batch %q sanity check: %w", batch.Name, err)
			}
		}
	}
	return tree, nil
}
