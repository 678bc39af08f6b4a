package analysis

import (
	"repro/internal/catalyst"
	"repro/internal/plan"
)

// Analyzer resolves an unresolved logical plan against a catalog. A new
// Analyzer should be used per Analyze call (it accumulates errors).
type Analyzer struct {
	catalog *Catalog
	errs    []error
	// Exec runs the resolution batch; the engine hooks its OnMaxIterations.
	Exec *catalyst.RuleExecutor[plan.LogicalPlan]
}

// NewAnalyzer builds an analyzer over the catalog.
func NewAnalyzer(catalog *Catalog) *Analyzer {
	a := &Analyzer{catalog: catalog}
	a.Exec = &catalyst.RuleExecutor[plan.LogicalPlan]{
		Batches: []catalyst.Batch[plan.LogicalPlan]{
			{
				Name: "Resolution",
				Rules: []catalyst.Rule[plan.LogicalPlan]{
					{Name: "ResolveRelations", Apply: a.resolveRelations},
					{Name: "DeduplicateJoinSides", Apply: a.deduplicateJoinSides},
					{Name: "ResolveStar", Apply: a.resolveStar},
					{Name: "ResolveFunctions", Apply: a.resolveFunctions},
					{Name: "ResolveReferences", Apply: a.resolveReferences},
					{Name: "ResolveMissingSortRefs", Apply: a.resolveMissingSortRefs},
					{Name: "GlobalAggregates", Apply: a.globalAggregates},
					{Name: "ResolveHaving", Apply: a.resolveHaving},
					{Name: "ResolveAliases", Apply: a.resolveAliases},
					{Name: "TypeCoercion", Apply: a.typeCoercion},
				},
			},
		},
	}
	return a
}

// Analyze runs the resolution rule batch to fixed point and then the
// analysis checks, returning the resolved plan or the first error. This is
// what DataFrames call eagerly on construction (paper §3.4) so invalid
// column names or types fail immediately, while execution stays lazy.
func Analyze(catalog *Catalog, p plan.LogicalPlan) (plan.LogicalPlan, error) {
	return NewAnalyzer(catalog).Analyze(p)
}

// Analyze resolves the plan.
func (a *Analyzer) Analyze(p plan.LogicalPlan) (plan.LogicalPlan, error) {
	a.errs = nil
	out, err := a.Exec.Execute(p)
	if err != nil {
		return nil, err
	}
	if len(a.errs) > 0 {
		return nil, a.errs[0]
	}
	if err := CheckAnalysis(out); err != nil {
		return nil, err
	}
	return out, nil
}

// fail records an analysis error discovered inside a rule (rules cannot
// return errors; the Analyze entry point surfaces the first one).
func (a *Analyzer) fail(err error) {
	a.errs = append(a.errs, err)
}
