package catalyst

import (
	"errors"
	"fmt"
	"testing"
)

// node is a minimal TreeNode for exercising the framework: an arithmetic
// tree of adds and literals, like the paper's §4.2 examples.
type node struct {
	op   string // "lit", "add", "attr"
	val  int
	name string
	mark bool // not rendered by String
	kids []*node
}

func lit(v int) *node             { return &node{op: "lit", val: v} }
func attr(name string) *node      { return &node{op: "attr", name: name} }
func add(l, r *node) *node        { return &node{op: "add", kids: []*node{l, r}} }
func (n *node) Children() []*node { return n.kids }
func (n *node) WithNewChildren(children []*node) *node {
	c := *n
	c.kids = children
	return &c
}
func (n *node) String() string {
	switch n.op {
	case "lit":
		return fmt.Sprint(n.val)
	case "attr":
		return n.name
	default:
		return "(" + n.kids[0].String() + "+" + n.kids[1].String() + ")"
	}
}

// constFold is the paper's Add(Literal(c1), Literal(c2)) => Literal(c1+c2).
func constFold(n *node) (*node, bool) {
	if n.op == "add" && n.kids[0].op == "lit" && n.kids[1].op == "lit" {
		return lit(n.kids[0].val + n.kids[1].val), true
	}
	return nil, false
}

// dropZero is the paper's Add(left, Literal(0)) => left (both sides).
func dropZero(n *node) (*node, bool) {
	if n.op != "add" {
		return nil, false
	}
	if n.kids[1].op == "lit" && n.kids[1].val == 0 {
		return n.kids[0], true
	}
	if n.kids[0].op == "lit" && n.kids[0].val == 0 {
		return n.kids[1], true
	}
	return nil, false
}

func TestTransformUpFoldsPaperExample(t *testing.T) {
	// x+(1+2) from Figure 2.
	tree := add(attr("x"), add(lit(1), lit(2)))
	got := TransformUp[*node](tree, constFold)
	if got.String() != "(x+3)" {
		t.Fatalf("got %s, want (x+3)", got)
	}
}

func TestTransformUpReachesFixedShapeInOnePass(t *testing.T) {
	// (1+2)+(3+4): bottom-up folding collapses everything in one pass.
	tree := add(add(lit(1), lit(2)), add(lit(3), lit(4)))
	got := TransformUp[*node](tree, constFold)
	if got.String() != "10" {
		t.Fatalf("got %s, want 10", got)
	}
}

func TestTransformDownVisitsReplacementChildren(t *testing.T) {
	// Top-down: rewriting a node continues into the REPLACEMENT's
	// children, but (like Scala Catalyst's transformDown) does not
	// re-match the replacement node itself — reaching a fixed point is
	// the rule executor's job.
	tree := add(lit(0), add(lit(0), attr("y")))
	got := TransformDown[*node](tree, dropZero)
	if got.String() != "(0+y)" {
		t.Fatalf("got %s, want (0+y)", got)
	}
	// A second application finishes the job.
	if got = TransformDown[*node](got, dropZero); got.String() != "y" {
		t.Fatalf("got %s, want y", got)
	}
}

func TestTransformSkipsNonMatchingSubtrees(t *testing.T) {
	// Unchanged subtrees are reused (pointer identity), the paper's
	// "automatically skipping over ... subtrees that do not match".
	left := add(attr("a"), attr("b"))
	tree := add(left, add(lit(1), lit(2)))
	got := TransformUp[*node](tree, constFold)
	if got.kids[0] != left {
		t.Error("untouched subtree should be reused, not copied")
	}
}

func TestCollectFindExists(t *testing.T) {
	tree := add(attr("x"), add(lit(1), attr("y")))
	attrs := Collect[*node](tree, func(n *node) bool { return n.op == "attr" })
	if len(attrs) != 2 || attrs[0].name != "x" || attrs[1].name != "y" {
		t.Fatalf("Collect = %v", attrs)
	}
	if n, ok := Find[*node](tree, func(n *node) bool { return n.op == "lit" }); !ok || n.val != 1 {
		t.Fatalf("Find = %v, %v", n, ok)
	}
	if Exists[*node](tree, func(n *node) bool { return n.op == "nope" }) {
		t.Error("Exists on absent predicate")
	}
	count := 0
	Foreach[*node](tree, func(*node) { count++ })
	if count != 5 {
		t.Errorf("Foreach visited %d nodes, want 5", count)
	}
}

func TestRuleExecutorFixedPoint(t *testing.T) {
	// (x+0)+(3+3): needs multiple iterations of the batch — the paper's
	// exact example of fixed-point execution.
	tree := add(add(attr("x"), lit(0)), add(lit(3), lit(3)))
	exec := &RuleExecutor[*node]{
		Batches: []Batch[*node]{{
			Name: "fold",
			Rules: []Rule[*node]{
				{Name: "constFold", Apply: func(n *node) *node { return TransformUp[*node](n, constFold) }},
				{Name: "dropZero", Apply: func(n *node) *node { return TransformUp[*node](n, dropZero) }},
			},
		}},
	}
	got, err := exec.Execute(tree)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "(x+6)" {
		t.Fatalf("got %s, want (x+6)", got)
	}
}

func TestRuleExecutorOnceBatch(t *testing.T) {
	// A Once batch applies a single time even if another application
	// would change the tree again.
	wrap := Rule[*node]{Name: "wrap", Apply: func(n *node) *node { return add(n, lit(0)) }}
	exec := &RuleExecutor[*node]{
		Batches: []Batch[*node]{{Name: "once", Once: true, Rules: []Rule[*node]{wrap}}},
	}
	got, err := exec.Execute(lit(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "(1+0)" {
		t.Fatalf("got %s", got)
	}
}

func TestRuleExecutorMaxIterations(t *testing.T) {
	// A rule that never converges triggers the OnMaxIterations hook.
	grow := Rule[*node]{Name: "grow", Apply: func(n *node) *node { return add(n, lit(1)) }}
	hit := false
	exec := &RuleExecutor[*node]{
		Batches:         []Batch[*node]{{Name: "diverge", MaxIterations: 5, Rules: []Rule[*node]{grow}}},
		OnMaxIterations: func(batch string, iters int) { hit = true },
	}
	if _, err := exec.Execute(lit(0)); err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("expected OnMaxIterations")
	}
}

func TestRuleExecutorCheck(t *testing.T) {
	// A failing sanity check surfaces as an error (the paper's per-batch
	// sanity checks).
	failing := &RuleExecutor[*node]{
		Batches: []Batch[*node]{{Name: "noop", Once: true, Rules: []Rule[*node]{{Name: "id", Apply: func(n *node) *node { return n }}}}},
		Check:   func(*node) error { return errors.New("boom") },
	}
	if _, err := failing.Execute(lit(1)); err == nil {
		t.Error("expected check error")
	}
}

// A rewrite that changes only what String() leaves out is still a change:
// the fixed point is node identity, not rendered text. markLits sets the
// hidden mark on every literal; renameMarked, which runs first in the batch,
// turns a marked literal into an attribute. Iteration 1 only marks (the tree
// prints the same), so a batch that compared renderings would stop there and
// never run renameMarked on a mark.
func TestRuleExecutorSeesChangesStringOmits(t *testing.T) {
	markLits := func(n *node) (*node, bool) {
		if n.op != "lit" || n.mark {
			return nil, false
		}
		c := *n
		c.mark = true
		return &c, true
	}
	renameMarked := func(n *node) (*node, bool) {
		if !n.mark {
			return nil, false
		}
		return attr(fmt.Sprintf("m%d", n.val)), true
	}
	exec := &RuleExecutor[*node]{
		Batches: []Batch[*node]{{
			Name: "hidden",
			Rules: []Rule[*node]{
				{Name: "renameMarked", Apply: func(n *node) *node { return TransformUp[*node](n, renameMarked) }},
				{Name: "markLits", Apply: func(n *node) *node { return TransformUp[*node](n, markLits) }},
			},
		}},
		OnMaxIterations: func(string, int) { t.Error("the batch did not converge") },
	}
	got, err := exec.Execute(add(attr("x"), lit(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "(x+m1)" {
		t.Fatalf("got %s, want (x+m1): the batch stopped before its fixed point", got)
	}
}

// A rule that matches nothing returns its input: the transforms and a batch
// that has converged hand back the very tree they were given and allocate
// nothing, so a fixed point costs one walk and no garbage.
func TestNoMatchReturnsInputWithoutAllocating(t *testing.T) {
	tree := add(add(attr("x"), attr("y")), add(attr("z"), add(attr("w"), attr("v"))))
	exec := &RuleExecutor[*node]{
		Batches: []Batch[*node]{{
			Name: "fold",
			Rules: []Rule[*node]{
				{Name: "constFold", Apply: func(n *node) *node { return TransformUp[*node](n, constFold) }},
				{Name: "dropZero", Apply: func(n *node) *node { return TransformDown[*node](n, dropZero) }},
			},
		}},
	}
	for name, run := range map[string]func() *node{
		"TransformUp":   func() *node { return TransformUp[*node](tree, constFold) },
		"TransformDown": func() *node { return TransformDown[*node](tree, dropZero) },
		"Execute": func() *node {
			got, err := exec.Execute(tree)
			if err != nil {
				t.Fatal(err)
			}
			return got
		},
	} {
		if got := run(); got != tree {
			t.Errorf("%s rebuilt a tree no rule matches: %s", name, got)
		}
		if n := testing.AllocsPerRun(100, func() { run() }); n != 0 {
			t.Errorf("%s allocated %v times on a tree no rule matches", name, n)
		}
	}
}

func TestMapSliceCopiesOnFirstChange(t *testing.T) {
	a, b, c := lit(1), lit(2), lit(3)
	in := []*node{a, b, c}
	same, changed := MapSlice(in, func(n *node) *node { return n })
	if changed || &same[0] != &in[0] {
		t.Fatalf("an identity map must return its input: changed=%v", changed)
	}
	d := lit(4)
	out, changed := MapSlice(in, func(n *node) *node {
		if n == b {
			return d
		}
		return n
	})
	if !changed || &out[0] == &in[0] || out[0] != a || out[1] != d || out[2] != c || in[1] != b {
		t.Fatalf("MapSlice = %v, %v; input now %v", out, changed, in)
	}
}
