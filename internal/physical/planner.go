package physical

import (
	"fmt"

	"repro/internal/catalyst"
	"repro/internal/columnar"
	"repro/internal/datasource"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/row"
	"repro/internal/types"
)

// PlannerConfig carries the knobs of physical planning.
type PlannerConfig struct {
	// BroadcastThreshold is the maximum estimated size in bytes for a join
	// side to be broadcast (paper §4.3.3; Spark's default is 10 MB).
	BroadcastThreshold int64
	// CollapsePipelines enables the Project/Filter fusion preparation rule.
	CollapsePipelines bool
	// Vectorize enables the preparation rule swapping fused pipelines over
	// the columnar cache for batch-at-a-time execution.
	Vectorize bool
	// Fuse enables whole-stage fusion: aggregation updates and broadcast
	// join probes are absorbed into the vectorized pipeline feeding them
	// (requires Vectorize). Every candidate operator is annotated with the
	// decision for EXPLAIN.
	Fuse bool
	// TargetPartitionBytes sizes shuffle exchanges from statistics: when
	// the estimated size a reducer handles is known (a shuffled join's
	// inputs, an aggregate's output), the planner asks for ceil(size/target)
	// reducers instead of the fixed session default (never more than the
	// default — only small sizes shrink). Zero disables stats-based
	// partition sizing.
	TargetPartitionBytes int64
	// MemoryBudget is the query execution-memory budget in bytes (zero =
	// unlimited). Planning sees it only through broadcastLimit: a join side
	// broadcasts only under half of it. At run time sorts, aggregation
	// reducers and DISTINCT reserve and spill; a shuffled join holds its
	// reduce partition and hash table unreserved.
	MemoryBudget int64
	// SkewFactor is the multiple of the mean reduce-bucket size above which
	// adaptive execution splits a bucket (0 = DefaultSkewFactor).
	SkewFactor float64
}

// DefaultPlannerConfig mirrors Spark's defaults.
func DefaultPlannerConfig() PlannerConfig {
	return PlannerConfig{
		BroadcastThreshold:   10 << 20,
		CollapsePipelines:    true,
		Vectorize:            true,
		Fuse:                 true,
		TargetPartitionBytes: 4 << 20,
	}
}

// Strategy is a planner extension point: it may claim a logical node and
// produce a physical plan for it. Research extensions like the §7.2 range
// join plug in here.
type Strategy func(pl *Planner, lp plan.LogicalPlan) (SparkPlan, bool, error)

// Planner translates optimized logical plans to physical plans, choosing
// join algorithms by cost (paper §4.3.3: "it then selects a plan using a
// cost model ... cost-based optimization is only used to select join
// algorithms").
type Planner struct {
	Cfg PlannerConfig
	// Strategies are consulted before the built-in translation.
	Strategies []Strategy
	// TranslateFilter converts a predicate into the data source filter
	// algebra (wired to the optimizer's translator; kept as a function
	// value to avoid an import cycle).
	TranslateFilter func(expr.Expression) (datasource.Filter, bool)
	// Prepare is physical preparation: one fixed-point batch, "Preparation",
	// of Collapse, Vectorize and Fuse, each only when its knob is on.
	Prepare *catalyst.RuleExecutor[SparkPlan]
}

// NewPlanner builds a planner with the given config.
func NewPlanner(cfg PlannerConfig) *Planner {
	var rules []catalyst.Rule[SparkPlan]
	if cfg.CollapsePipelines {
		rules = append(rules, catalyst.Rule[SparkPlan]{Name: "Collapse", Apply: Collapse})
	}
	if cfg.Vectorize {
		rules = append(rules, catalyst.Rule[SparkPlan]{Name: "Vectorize", Apply: Vectorize})
		if cfg.Fuse {
			rules = append(rules, catalyst.Rule[SparkPlan]{Name: "Fuse", Apply: Fuse})
		}
	}
	return &Planner{Cfg: cfg, Prepare: &catalyst.RuleExecutor[SparkPlan]{
		Batches: []catalyst.Batch[SparkPlan]{{Name: "Preparation", Rules: rules}},
	}}
}

// Plan translates and prepares the physical plan.
func (pl *Planner) Plan(lp plan.LogicalPlan) (SparkPlan, error) {
	p, err := pl.translate(lp)
	if err != nil {
		return nil, err
	}
	return pl.Prepare.Execute(p)
}

// translate converts one logical node (recursively) and stamps the result
// with the logical operator's statistics estimate so EXPLAIN can annotate
// the physical tree.
func (pl *Planner) translate(lp plan.LogicalPlan) (SparkPlan, error) {
	p, err := pl.translateNode(lp)
	if err != nil {
		return nil, err
	}
	if ca, ok := p.(CostAnnotated); ok {
		if _, has := ca.Estimate(); !has {
			ca.SetEstimate(plan.Stats(lp))
		}
	}
	return p, nil
}

func (pl *Planner) translateNode(lp plan.LogicalPlan) (SparkPlan, error) {
	for _, s := range pl.Strategies {
		p, claimed, err := s(pl, lp)
		if err != nil {
			return nil, err
		}
		if claimed {
			return p, nil
		}
	}
	switch n := lp.(type) {
	case *plan.LocalRelation:
		return NewLocalScan(n.Attrs, n.Rows), nil
	case *plan.OneRowRelation:
		return NewLocalScan(nil, []row.Row{{}}), nil
	case *plan.LogicalRDD:
		return NewRDDScan(n.Attrs, n.RDD), nil
	case *plan.Range:
		return NewRangeScan(n.Attr, n.Start, n.End, n.Step, n.Partitions), nil
	case *plan.DataSourceRelation:
		return NewSourceScan(n.Name, n.Attrs, n.Rel, n.PushedColumns, n.PushedFilters, n.PushedPredicates), nil
	case *plan.InMemoryRelation:
		return NewInMemoryScan(n.Attrs, n.Table, n.PrunedOrdinals, nil), nil
	case *plan.SubqueryAlias:
		return pl.translate(n.Child)
	case *plan.Project:
		child, err := pl.translate(n.Child)
		if err != nil {
			return nil, err
		}
		return &ProjectExec{List: n.List, Child: child}, nil
	case *plan.Filter:
		return pl.planFilter(n)
	case *plan.Join:
		return pl.planJoin(n)
	case *plan.Aggregate:
		return pl.planAggregate(n, n.Child, n.Grouping, n.Aggs)
	case *plan.Sort:
		child, err := pl.translate(n.Child)
		if err != nil {
			return nil, err
		}
		if n.Global {
			return globalSort(n.Orders, child), nil
		}
		return &SortExec{Orders: n.Orders, Child: child}, nil
	case *plan.Limit:
		child, err := pl.translate(n.Child)
		if err != nil {
			return nil, err
		}
		// ORDER BY ... LIMIT n, for a small n, is a top-K.
		if s, ok := child.(*SortExec); ok && s.Global && 0 < n.N && n.N <= topKMax {
			return &TopKExec{N: n.N, Orders: s.Orders, Child: exchangeOf(s.Child).Child}, nil
		}
		return &LimitExec{N: n.N, Child: child}, nil
	case *plan.Union:
		kids := make([]SparkPlan, len(n.Kids))
		for i, k := range n.Kids {
			c, err := pl.translate(k)
			if err != nil {
				return nil, err
			}
			kids[i] = c
		}
		return &UnionExec{Kids: kids}, nil
	case *plan.Distinct:
		// DISTINCT is a grouping on every output column with no aggregate
		// functions (Spark's ReplaceDistinctWithAggregate).
		cols := plan.AttrExprs(n.Child.Output())
		return pl.planAggregate(n, n.Child, cols, cols)
	case *plan.Sample:
		child, err := pl.translate(n.Child)
		if err != nil {
			return nil, err
		}
		return &SampleExec{Fraction: n.Fraction, Seed: n.Seed, Child: child}, nil
	default:
		return nil, fmt.Errorf("physical: no strategy for logical operator %T (%s)", lp, lp.SimpleString())
	}
}

// planAggregate builds the HashAggregateExec for lp, an Aggregate or a
// Distinct over child, over the presplit exchange of its partial blocks. Its
// reduce tasks hold and emit the aggregate's output, not its input, so they
// are sized from lp's own estimate.
func (pl *Planner) planAggregate(lp, child plan.LogicalPlan, grouping, aggs []expr.Expression) (SparkPlan, error) {
	c, err := pl.translate(child)
	if err != nil {
		return nil, err
	}
	est := plan.Stats(lp)
	h := newAggregate(grouping, aggs, c, pl.partitionsFor(est.SizeInBytes))
	h.SetEstimate(est)
	return h, nil
}

// planFilter builds a FilterExec; filters directly over the columnar cache
// additionally install a batch-skipping predicate from min/max stats.
func (pl *Planner) planFilter(f *plan.Filter) (SparkPlan, error) {
	if mem, ok := f.Child.(*plan.InMemoryRelation); ok && pl.TranslateFilter != nil {
		keep := pl.batchPredicate(f.Cond, mem)
		scan := NewInMemoryScan(mem.Attrs, mem.Table, mem.PrunedOrdinals, keep)
		scan.SetEstimate(plan.Stats(mem))
		return &FilterExec{Cond: f.Cond, Child: scan}, nil
	}
	child, err := pl.translate(f.Child)
	if err != nil {
		return nil, err
	}
	return &FilterExec{Cond: f.Cond, Child: child}, nil
}

// batchPredicate compiles translatable conjuncts into a min/max stats test
// over cached batches.
func (pl *Planner) batchPredicate(cond expr.Expression, mem *plan.InMemoryRelation) columnar.BatchPredicate {
	type check struct {
		ord int
		f   datasource.Filter
	}
	var checks []check
	for _, c := range expr.SplitConjuncts(cond) {
		df, ok := pl.TranslateFilter(c)
		if !ok {
			continue
		}
		ord := mem.Table.Schema.FieldIndex(df.Attribute())
		if ord < 0 || !types.IsOrdered(mem.Table.Schema.Fields[ord].Type) {
			continue // no such column, or one the cache tracks no range for
		}
		checks = append(checks, check{ord: ord, f: df})
	}
	if len(checks) == 0 {
		return nil
	}
	return func(stats []columnar.ColStats) bool {
		for _, c := range checks {
			if s := stats[c.ord]; !datasource.MayMatch(c.f, s.Min, s.Max) {
				return false
			}
		}
		return true
	}
}

// planJoin extracts equi-join keys and selects the join algorithm by the
// cost model: a side whose estimated size is below the broadcast threshold
// is broadcast; otherwise both sides shuffle.
func (pl *Planner) planJoin(j *plan.Join) (SparkPlan, error) {
	left, err := pl.translate(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := pl.translate(j.Right)
	if err != nil {
		return nil, err
	}

	leftKeys, rightKeys, residual := ExtractEquiKeys(j)

	if len(leftKeys) == 0 {
		switch j.Type {
		case plan.InnerJoin, plan.CrossJoin, plan.LeftOuterJoin, plan.LeftSemiJoin:
			return &NestedLoopJoinExec{Left: left, Right: broadcast(right), Type: j.Type, Cond: j.Cond}, nil
		default:
			return nil, fmt.Errorf("physical: %s join without equi-keys is not supported", j.Type)
		}
	}

	leftSize, rightSize := plan.Stats(j.Left).SizeInBytes, plan.Stats(j.Right).SizeInBytes
	ej := EquiJoin{Left: left, Right: right, LeftKeys: leftKeys, RightKeys: rightKeys, Type: j.Type, Residual: residual}
	if buildRight, ok := pl.Cfg.buildSide(j.Type, leftSize, rightSize); ok {
		return broadcastJoin(ej, buildRight), nil
	}
	return shuffledJoin(ej, pl.partitionsFor(addKnownSizes(leftSize, rightSize))), nil
}

// buildSide picks a join's broadcast build side from its sides' sizes,
// estimated or observed: the right when that is legal and fits the broadcast
// limit, unless a smaller left fits too; else the left when legal and fits.
func (c PlannerConfig) buildSide(t plan.JoinType, left, right int64) (buildRight, ok bool) {
	canRight, canLeft := canBuildSides(t)
	bcast := c.broadcastLimit()
	if canRight && right <= bcast && (right <= left || !canLeft || left > bcast) {
		return true, true
	}
	return false, canLeft && left <= bcast
}

// shuffledJoin is ej over a hash exchange of each side, capped at parts.
func shuffledJoin(ej EquiJoin, parts int) *ShuffledHashJoinExec {
	l, r := newExchange(HashExchange, ej.Left), newExchange(HashExchange, ej.Right)
	l.Keys, r.Keys, l.Partitions, r.Partitions = ej.LeftKeys, ej.RightKeys, parts, parts
	ej.Left, ej.Right = l, r
	return &ShuffledHashJoinExec{EquiJoin: ej}
}

// broadcastJoin is ej over a broadcast exchange of its build side.
func broadcastJoin(ej EquiJoin, buildRight bool) *BroadcastHashJoinExec {
	if buildRight {
		ej.Right = broadcast(ej.Right)
	} else {
		ej.Left = broadcast(ej.Left)
	}
	return &BroadcastHashJoinExec{EquiJoin: ej, BuildRight: buildRight}
}

func broadcast(p SparkPlan) *ExchangeExec { return newExchange(BroadcastExchange, p) }

// newAggregate aggregates child over its presplit exchange, capped at parts.
func newAggregate(grouping, aggs []expr.Expression, child SparkPlan, parts int) *HashAggregateExec {
	ex := newExchange(PresplitExchange, child)
	ex.Keys, ex.Aggs, ex.Partitions = grouping, aggs, parts
	return &HashAggregateExec{Grouping: grouping, Aggs: aggs, Child: ex}
}

// globalSort sorts child over its range exchange.
func globalSort(orders []*expr.SortOrder, child SparkPlan) *SortExec {
	ex := newExchange(RangeExchange, child)
	ex.Orders = orders
	return &SortExec{Orders: orders, Global: true, Child: ex}
}

// addKnownSizes sums two size estimates, propagating "unknown".
func addKnownSizes(a, b int64) int64 {
	if a >= plan.UnknownSizeInBytes || b >= plan.UnknownSizeInBytes {
		return plan.UnknownSizeInBytes
	}
	return a + b
}

// canBuildSides reports which join sides may be the hash-build side for a
// join type — the legality half of the broadcast/shuffle cost rule,
// shared by static planning and adaptive promotion.
func canBuildSides(t plan.JoinType) (canRight, canLeft bool) {
	canRight = t == plan.InnerJoin || t == plan.CrossJoin ||
		t == plan.LeftOuterJoin || t == plan.LeftSemiJoin
	canLeft = t == plan.InnerJoin || t == plan.CrossJoin ||
		t == plan.RightOuterJoin
	return canRight, canLeft
}

// broadcastLimit is the size cap for broadcasting a join side: the
// configured threshold, halved-budget-capped. A broadcast hash table is
// unbounded memory too — under a memory budget, only sides expected to
// hash within half of it broadcast. The same rule prices broadcasts from
// estimates (static planning) and from observed bytes (adaptive
// promotion), so the two can never disagree about legality.
func (c PlannerConfig) broadcastLimit() int64 {
	if c.MemoryBudget > 0 && c.MemoryBudget/2 < c.BroadcastThreshold {
		return c.MemoryBudget / 2
	}
	return c.BroadcastThreshold
}

// skewFactor is SkewFactor with its default applied.
func (c PlannerConfig) skewFactor() float64 {
	if c.SkewFactor > 0 {
		return c.SkewFactor
	}
	return DefaultSkewFactor
}

// PartitionsForSize derives a reducer count from the size an exchange's
// reducers handle: ceil(size/target), at least 1. Returns 0 (keep the session
// default) when sizing is disabled or the size is unknown. This is the
// re-entrant costing entry point: the static planner feeds it estimates,
// the adaptive driver feeds it per-stage observed bytes.
func PartitionsForSize(target, sizeInBytes int64) int {
	if target <= 0 || sizeInBytes <= 0 || sizeInBytes >= plan.UnknownSizeInBytes {
		return 0
	}
	n := (sizeInBytes + target - 1) / target
	if n < 1 {
		n = 1
	}
	return int(n)
}

// partitionsFor sizes an exchange from an estimate.
func (pl *Planner) partitionsFor(sizeInBytes int64) int {
	return PartitionsForSize(pl.Cfg.TargetPartitionBytes, sizeInBytes)
}

// ExtractEquiKeys splits a join condition into equi-key pairs (left key
// expression = right key expression) and a residual condition.
func ExtractEquiKeys(j *plan.Join) (leftKeys, rightKeys []expr.Expression, residual expr.Expression) {
	if j.Cond == nil {
		return nil, nil, nil
	}
	leftSet := plan.OutputSet(j.Left)
	rightSet := plan.OutputSet(j.Right)
	var rest []expr.Expression
	for _, c := range expr.SplitConjuncts(j.Cond) {
		eq, ok := c.(*expr.Comparison)
		if !ok || eq.Op != expr.OpEQ {
			rest = append(rest, c)
			continue
		}
		lRefs, rRefs := expr.References(eq.Left), expr.References(eq.Right)
		switch {
		case len(lRefs) > 0 && len(rRefs) > 0 && leftSet.ContainsAll(lRefs) && rightSet.ContainsAll(rRefs):
			leftKeys = append(leftKeys, eq.Left)
			rightKeys = append(rightKeys, eq.Right)
		case len(lRefs) > 0 && len(rRefs) > 0 && rightSet.ContainsAll(lRefs) && leftSet.ContainsAll(rRefs):
			leftKeys = append(leftKeys, eq.Right)
			rightKeys = append(rightKeys, eq.Left)
		default:
			rest = append(rest, c)
		}
	}
	return leftKeys, rightKeys, expr.JoinConjuncts(rest)
}
