// Package optimizer implements Catalyst's rule-based logical optimization
// (paper §4.3.2): constant folding, null propagation, Boolean
// simplification, LIKE simplification, predicate pushdown (through
// projects, joins, aggregates, unions and into data sources), projection
// pruning, and the DecimalAggregates rewrite the paper reproduces in code.
// Rules run in batches to fixed point via the catalyst RuleExecutor.
package optimizer

import (
	"repro/internal/catalyst"
	"repro/internal/plan"
)

// Config toggles optimization groups. It is a view derived from core.Config
// (the Shark baseline turns SourcePushdown off and keeps the rest).
type Config struct {
	// ConstantFolding et al. (pure expression rewrites).
	ExpressionOptimization bool
	// Predicate pushdown / projection pruning across operators.
	PlanOptimization bool
	// Pushdown of projections and filters into data sources (§4.4.1 /
	// §5.3).
	SourcePushdown bool
	// The DecimalAggregates rule (§4.3.2).
	DecimalAggregates bool
	// JoinReorder enables cost-based reordering of inner-join chains by
	// estimated output size (requires collected statistics to change
	// anything; plans without stats come out unchanged).
	JoinReorder bool
}

// DefaultConfig enables everything.
func DefaultConfig() Config {
	return Config{
		ExpressionOptimization: true,
		PlanOptimization:       true,
		SourcePushdown:         true,
		DecimalAggregates:      true,
		JoinReorder:            true,
	}
}

// Optimizer rewrites resolved logical plans.
type Optimizer struct {
	cfg Config
	// Exec runs the batches; the engine hooks its OnMaxIterations.
	Exec *catalyst.RuleExecutor[plan.LogicalPlan]
}

// New builds an optimizer with the given configuration.
func New(cfg Config) *Optimizer {
	var batches []catalyst.Batch[plan.LogicalPlan]

	// SubqueryAliases exist only to scope name resolution; drop them first
	// so later rules see the raw operators (IDs keep references precise).
	batches = append(batches, catalyst.Batch[plan.LogicalPlan]{
		Name: "Finish Analysis",
		Once: true,
		Rules: []catalyst.Rule[plan.LogicalPlan]{
			{Name: "EliminateSubqueryAliases", Apply: eliminateSubqueryAliases},
		},
	})

	var ops []catalyst.Rule[plan.LogicalPlan]
	if cfg.ExpressionOptimization {
		ops = append(ops,
			catalyst.Rule[plan.LogicalPlan]{Name: "ConstantFolding", Apply: constantFolding},
			catalyst.Rule[plan.LogicalPlan]{Name: "NullPropagation", Apply: nullPropagation},
			catalyst.Rule[plan.LogicalPlan]{Name: "BooleanSimplification", Apply: booleanSimplification},
			catalyst.Rule[plan.LogicalPlan]{Name: "SimplifyLike", Apply: simplifyLike},
			catalyst.Rule[plan.LogicalPlan]{Name: "SimplifyCasts", Apply: simplifyCasts},
		)
	}
	if cfg.DecimalAggregates {
		ops = append(ops,
			catalyst.Rule[plan.LogicalPlan]{Name: "DecimalAggregates", Apply: decimalAggregates})
	}
	if cfg.PlanOptimization {
		ops = append(ops,
			catalyst.Rule[plan.LogicalPlan]{Name: "CombineFilters", Apply: combineFilters},
			catalyst.Rule[plan.LogicalPlan]{Name: "PushPredicateThroughProject", Apply: pushPredicateThroughProject},
			catalyst.Rule[plan.LogicalPlan]{Name: "PushPredicateThroughJoin", Apply: pushPredicateThroughJoin},
			catalyst.Rule[plan.LogicalPlan]{Name: "PushPredicateThroughAggregate", Apply: pushPredicateThroughAggregate},
			catalyst.Rule[plan.LogicalPlan]{Name: "PushPredicateThroughUnion", Apply: pushPredicateThroughUnion},
			catalyst.Rule[plan.LogicalPlan]{Name: "PruneFilters", Apply: pruneFilters},
			catalyst.Rule[plan.LogicalPlan]{Name: "CollapseProjects", Apply: collapseProjects},
			catalyst.Rule[plan.LogicalPlan]{Name: "ColumnPruning", Apply: columnPruning},
			catalyst.Rule[plan.LogicalPlan]{Name: "RemoveNoopProject", Apply: removeNoopProject},
			catalyst.Rule[plan.LogicalPlan]{Name: "CombineLimits", Apply: combineLimits},
			catalyst.Rule[plan.LogicalPlan]{Name: "CombineUnions", Apply: combineUnions},
		)
	}
	if len(ops) > 0 {
		batches = append(batches, catalyst.Batch[plan.LogicalPlan]{
			Name:  "Operator Optimization",
			Rules: ops,
		})
	}
	// Join reordering runs once, after predicate pushdown has moved
	// single-relation filters onto the base relations (so item estimates
	// reflect them) and before source pushdown rewrites the leaves.
	if cfg.JoinReorder {
		batches = append(batches, catalyst.Batch[plan.LogicalPlan]{
			Name: "Join Reorder",
			Once: true,
			Rules: []catalyst.Rule[plan.LogicalPlan]{
				{Name: "ReorderJoins", Apply: reorderJoins},
			},
		})
	}
	if cfg.SourcePushdown {
		batches = append(batches, catalyst.Batch[plan.LogicalPlan]{
			Name: "Source Pushdown",
			Rules: []catalyst.Rule[plan.LogicalPlan]{
				{Name: "PruneSourceColumns", Apply: pruneSourceColumns},
				{Name: "PushFiltersIntoSource", Apply: pushFiltersIntoSource},
				{Name: "PruneInMemoryColumns", Apply: pruneInMemoryColumns},
			},
		})
	}
	return &Optimizer{cfg: cfg, Exec: &catalyst.RuleExecutor[plan.LogicalPlan]{Batches: batches}}
}

// Optimize rewrites the plan.
func (o *Optimizer) Optimize(p plan.LogicalPlan) (plan.LogicalPlan, error) {
	return o.Exec.Execute(p)
}

func eliminateSubqueryAliases(p plan.LogicalPlan) plan.LogicalPlan {
	return plan.TransformUp(p, func(n plan.LogicalPlan) (plan.LogicalPlan, bool) {
		if sq, ok := n.(*plan.SubqueryAlias); ok {
			return sq.Child, true
		}
		return nil, false
	})
}
