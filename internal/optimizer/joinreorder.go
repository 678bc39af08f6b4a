package optimizer

import (
	"repro/internal/expr"
	"repro/internal/plan"
)

// reorderJoins is the cost-based join-ordering rule (paper §4.3.3 uses
// cost only for join-algorithm selection; this extends it with the
// classic greedy ordering over collected statistics). It flattens a chain
// of inner/cross joins into its base relations and join conjuncts, then
// rebuilds a left-deep tree greedily: start from the pair with the
// smallest estimated join output, then repeatedly attach the relation
// that keeps the intermediate result smallest, preferring connected
// relations (ones with an applicable join predicate) so cartesian
// products are a last resort. Ties keep the original order, so plans
// without statistics come out unchanged.
func reorderJoins(p plan.LogicalPlan) plan.LogicalPlan {
	return plan.TransformDown(p, func(n plan.LogicalPlan) (plan.LogicalPlan, bool) {
		j, ok := n.(*plan.Join)
		if !ok || !flattenable(j) || !j.Resolved() {
			return nil, false
		}
		items, conjuncts := flattenJoinChain(j)
		if len(items) < 3 {
			return nil, false
		}
		for _, c := range conjuncts {
			if !expr.IsDeterministic(c) {
				return nil, false
			}
		}
		reordered, order := greedyOrder(items, conjuncts)
		// An identity ordering means statistics gave no reason to move
		// anything: keep the original tree (including any column-pruning
		// projects the flattening looked through).
		if reordered == nil || isIdentity(order) {
			return nil, false
		}
		return restoreOutput(j.Output(), reordered), true
	})
}

// flattenable reports whether a join node may be merged into a reorderable
// chain: inner and cross joins commute freely.
func flattenable(j *plan.Join) bool {
	return j.Type == plan.InnerJoin || j.Type == plan.CrossJoin
}

// flattenJoinChain collects the maximal inner-join chain rooted at j: the
// non-inner-join subtrees become items, and every join condition splits
// into conjuncts. Attribute-only projections over chain joins (inserted by
// column pruning between the joins) are transparent: the reordered tree
// re-prunes at the top via restoreOutput.
func flattenJoinChain(j *plan.Join) (items []plan.LogicalPlan, conjuncts []expr.Expression) {
	var walk func(p plan.LogicalPlan)
	walk = func(p plan.LogicalPlan) {
		switch n := p.(type) {
		case *plan.Join:
			if flattenable(n) {
				walk(n.Left)
				walk(n.Right)
				if n.Cond != nil {
					conjuncts = append(conjuncts, expr.SplitConjuncts(n.Cond)...)
				}
				return
			}
		case *plan.Project:
			if attrsOnly(n.List) {
				if jj, ok := n.Child.(*plan.Join); ok && flattenable(jj) {
					walk(jj)
					return
				}
			}
		}
		items = append(items, p)
	}
	walk(j)
	return items, conjuncts
}

// attrsOnly reports whether a projection list is pure column selection.
func attrsOnly(list []expr.Expression) bool {
	for _, e := range list {
		if _, ok := e.(*expr.AttributeReference); !ok {
			return false
		}
	}
	return true
}

// isIdentity reports whether the attachment order is 0,1,2,...
func isIdentity(order []int) bool {
	for i, v := range order {
		if v != i {
			return false
		}
	}
	return true
}

// greedyOrder builds a left-deep inner-join tree over items, attaching
// each conjunct at the first join whose inputs cover its references. It
// also returns the item attachment order, so the caller can detect the
// identity ordering (ties keep original positions, so plans without
// statistics always come out identity).
func greedyOrder(items []plan.LogicalPlan, conjuncts []expr.Expression) (plan.LogicalPlan, []int) {
	used := make([]bool, len(conjuncts))
	outSets := make([]expr.AttributeSet, len(items))
	for i, it := range items {
		outSets[i] = plan.OutputSet(it)
	}

	covered := func(c expr.Expression, avail expr.AttributeSet) bool {
		for id := range expr.References(c) {
			if !avail.Contains(id) {
				return false
			}
		}
		return true
	}
	// applicable selects (without consuming) the conjuncts that become
	// evaluable when the available attribute set is avail.
	applicable := func(avail expr.AttributeSet) []int {
		var idx []int
		for ci, c := range conjuncts {
			if !used[ci] && covered(c, avail) {
				idx = append(idx, ci)
			}
		}
		return idx
	}
	unionSets := func(a, b expr.AttributeSet) expr.AttributeSet {
		u := make(expr.AttributeSet, len(a)+len(b))
		for id := range a {
			u.Add(id)
		}
		for id := range b {
			u.Add(id)
		}
		return u
	}
	buildJoin := func(l, r plan.LogicalPlan, condIdx []int) *plan.Join {
		var cond expr.Expression
		typ := plan.CrossJoin
		for _, ci := range condIdx {
			if cond == nil {
				cond = conjuncts[ci]
			} else {
				cond = &expr.And{Left: cond, Right: conjuncts[ci]}
			}
		}
		if cond != nil {
			typ = plan.InnerJoin
		}
		return &plan.Join{Left: l, Right: r, Type: typ, Cond: cond}
	}

	remaining := make([]int, len(items))
	for i := range items {
		remaining[i] = i
	}

	// Seed: the pair with the smallest estimated join output, preferring
	// connected pairs; ties keep the earliest original positions.
	type seed struct {
		li, ri    int
		size      int64
		connected bool
	}
	var best *seed
	for a := 0; a < len(items); a++ {
		for b := a + 1; b < len(items); b++ {
			avail := unionSets(outSets[a], outSets[b])
			condIdx := applicable(avail)
			cand := buildJoin(items[a], items[b], condIdx)
			sz := plan.Stats(cand).SizeInBytes
			s := seed{li: a, ri: b, size: sz, connected: len(condIdx) > 0}
			if best == nil ||
				(s.connected && !best.connected) ||
				(s.connected == best.connected && s.size < best.size) {
				best = &s
			}
		}
	}

	current := items[best.li]
	currentSet := outSets[best.li]
	attach := func(idx int) {
		avail := unionSets(currentSet, outSets[idx])
		condIdx := applicable(avail)
		current = buildJoin(current, items[idx], condIdx)
		currentSet = avail
		for _, ci := range condIdx {
			used[ci] = true
		}
	}
	// The seed pair joins in original relative order (li < ri), so
	// statistics-free plans reproduce the input tree.
	attach(best.ri)
	order := []int{best.li, best.ri}
	taken := map[int]bool{best.li: true, best.ri: true}

	for len(taken) < len(items) {
		type cand struct {
			idx       int
			size      int64
			connected bool
		}
		var bestC *cand
		for _, i := range remaining {
			if taken[i] {
				continue
			}
			avail := unionSets(currentSet, outSets[i])
			condIdx := applicable(avail)
			cj := buildJoin(current, items[i], condIdx)
			sz := plan.Stats(cj).SizeInBytes
			c := cand{idx: i, size: sz, connected: len(condIdx) > 0}
			if bestC == nil ||
				(c.connected && !bestC.connected) ||
				(c.connected == bestC.connected && c.size < bestC.size) {
				bestC = &c
			}
		}
		attach(bestC.idx)
		order = append(order, bestC.idx)
		taken[bestC.idx] = true
	}

	// Any conjunct still unplaced (none should remain, since the final
	// available set covers every item) becomes a filter on top.
	for ci, c := range conjuncts {
		if !used[ci] {
			current = &plan.Filter{Cond: c, Child: current}
			used[ci] = true
		}
	}
	return current, order
}

// restoreOutput wraps a reordered join so its output attribute order (and
// therefore result schema) matches the original plan exactly.
func restoreOutput(want []*expr.AttributeReference, p plan.LogicalPlan) plan.LogicalPlan {
	got := p.Output()
	if len(got) == len(want) {
		same := true
		for i := range got {
			if got[i].ID_ != want[i].ID_ {
				same = false
				break
			}
		}
		if same {
			return p
		}
	}
	list := make([]expr.Expression, len(want))
	for i, a := range want {
		list[i] = a
	}
	return &plan.Project{List: list, Child: p}
}
