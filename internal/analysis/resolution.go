package analysis

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// resolveRelations replaces UnresolvedRelation nodes with the catalog's
// plan for that name, wrapped in a SubqueryAlias so qualified references
// (name.col) resolve.
func (a *Analyzer) resolveRelations(p plan.LogicalPlan) plan.LogicalPlan {
	return plan.TransformUp(p, func(n plan.LogicalPlan) (plan.LogicalPlan, bool) {
		if tf, ok := n.(*plan.UnresolvedTableFunction); ok {
			return a.resolveTableFunction(tf)
		}
		u, ok := n.(*plan.UnresolvedRelation)
		if !ok {
			return nil, false
		}
		table, found := a.catalog.LookupTable(u.Name)
		if !found {
			a.fail(Errorf("table not found: %s (known tables: %s)",
				u.Name, strings.Join(a.catalog.TableNames(), ", ")))
			return nil, false
		}
		return &plan.SubqueryAlias{Name: strings.ToLower(u.Name), Child: table}, true
	})
}

// resolveTableFunction invokes a registered table UDF with the resolved
// plans of its argument tables (paper §3.7's MADLib-style table functions).
func (a *Analyzer) resolveTableFunction(tf *plan.UnresolvedTableFunction) (plan.LogicalPlan, bool) {
	fn, found := a.catalog.LookupTableFunction(tf.Name)
	if !found {
		a.fail(Errorf("undefined table function %q", tf.Name))
		return nil, false
	}
	args := make([]plan.LogicalPlan, len(tf.Args))
	for i, name := range tf.Args {
		table, ok := a.catalog.LookupTable(name)
		if !ok {
			a.fail(Errorf("table function %s: table not found: %s", tf.Name, name))
			return nil, false
		}
		args[i] = table
	}
	out, err := fn(args)
	if err != nil {
		a.fail(Errorf("table function %s: %v", tf.Name, err))
		return nil, false
	}
	return &plan.SubqueryAlias{Name: strings.ToLower(tf.Name), Child: out}, true
}

// resolveStar expands `*` and `t.*` in Project and Aggregate lists to the
// child's output attributes.
func (a *Analyzer) resolveStar(p plan.LogicalPlan) plan.LogicalPlan {
	return plan.TransformUp(p, func(n plan.LogicalPlan) (plan.LogicalPlan, bool) {
		switch node := n.(type) {
		case *plan.Project:
			if !node.Child.Resolved() || !hasStar(node.List) {
				return nil, false
			}
			return &plan.Project{List: expandStars(node.List, node.Child), Child: node.Child}, true
		case *plan.Aggregate:
			if !node.Child.Resolved() || !hasStar(node.Aggs) {
				return nil, false
			}
			return &plan.Aggregate{
				Grouping: node.Grouping,
				Aggs:     expandStars(node.Aggs, node.Child),
				Child:    node.Child,
			}, true
		}
		return nil, false
	})
}

func hasStar(list []expr.Expression) bool {
	for _, e := range list {
		if _, ok := e.(*expr.Star); ok {
			return true
		}
	}
	return false
}

func expandStars(list []expr.Expression, child plan.LogicalPlan) []expr.Expression {
	out := make([]expr.Expression, 0, len(list))
	for _, e := range list {
		star, ok := e.(*expr.Star)
		if !ok {
			out = append(out, e)
			continue
		}
		for _, attr := range child.Output() {
			if star.Qualifier == "" || strings.EqualFold(star.Qualifier, attr.Qualifier) {
				out = append(out, attr)
			}
		}
	}
	return out
}

// resolveReferences maps UnresolvedAttributes to their children's output
// attributes, handling qualifiers (t.col) and struct-field paths (loc.lat).
func (a *Analyzer) resolveReferences(p plan.LogicalPlan) plan.LogicalPlan {
	return plan.TransformUp(p, func(n plan.LogicalPlan) (plan.LogicalPlan, bool) {
		if !childrenResolvedPlan(n) {
			return nil, false
		}
		input := plan.InputAttributes(n)
		replaced, ok := plan.TransformNodeExpressions(n, func(e expr.Expression) (expr.Expression, bool) {
			u, isUnresolved := e.(*expr.UnresolvedAttribute)
			if !isUnresolved {
				return nil, false
			}
			resolved, err := ResolveAttribute(u.Parts, input)
			if err != nil {
				// Leave unresolved; CheckAnalysis reports it with context
				// unless it is an ambiguity, which we surface eagerly.
				if strings.Contains(err.Error(), "ambiguous") {
					a.fail(err)
				}
				return nil, false
			}
			return resolved, true
		})
		if !ok {
			return nil, false
		}
		return replaced, true
	})
}

// ResolveAttribute resolves a dotted name path against input attributes:
// [col], [qualifier, col], or either followed by struct field accesses.
func ResolveAttribute(parts []string, input []*expr.AttributeReference) (expr.Expression, error) {
	// Longest match first: qualifier.column, then bare column.
	type candidate struct {
		attr *expr.AttributeReference
		rest []string
	}
	var cands []candidate
	if len(parts) >= 2 {
		for _, attr := range input {
			if strings.EqualFold(attr.Qualifier, parts[0]) && strings.EqualFold(attr.Name, parts[1]) {
				cands = append(cands, candidate{attr, parts[2:]})
			}
		}
	}
	if len(cands) == 0 {
		for _, attr := range input {
			if strings.EqualFold(attr.Name, parts[0]) {
				cands = append(cands, candidate{attr, parts[1:]})
			}
		}
	}
	switch {
	case len(cands) == 0:
		return nil, Errorf("cannot resolve column %q given input [%s]",
			strings.Join(parts, "."), attrNames(input))
	case len(cands) > 1 && cands[0].attr.ID_ != cands[1].attr.ID_:
		return nil, Errorf("reference %q is ambiguous: matches %s and %s",
			strings.Join(parts, "."), cands[0].attr, cands[1].attr)
	}
	var out expr.Expression = cands[0].attr
	for _, field := range cands[0].rest {
		st, isStruct := out.DataType().(types.StructType)
		if !isStruct {
			return nil, Errorf("cannot access field %q: %s is not a struct", field, out)
		}
		if st.FieldIndex(field) < 0 {
			return nil, Errorf("struct %s has no field %q", out, field)
		}
		out = &expr.GetField{Child: out, FieldName: field}
	}
	return out, nil
}

func attrNames(input []*expr.AttributeReference) string {
	names := make([]string, len(input))
	for i, a := range input {
		if a.Qualifier != "" {
			names[i] = a.Qualifier + "." + a.Name
		} else {
			names[i] = a.Name
		}
	}
	return strings.Join(names, ", ")
}

// resolveMissingSortRefs handles ORDER BY over columns absent from the
// SELECT list (SELECT shout(name) FROM t ORDER BY name): the missing
// attributes are added to the projection below the sort and projected away
// above it — the same rewrite Spark SQL's analyzer applies.
func (a *Analyzer) resolveMissingSortRefs(p plan.LogicalPlan) plan.LogicalPlan {
	return plan.TransformUp(p, func(n plan.LogicalPlan) (plan.LogicalPlan, bool) {
		s, ok := n.(*plan.Sort)
		if !ok || s.Resolved() {
			return nil, false
		}
		// ORDER BY over an aggregate may repeat a grouped expression
		// (ORDER BY year(d) after GROUP BY year(d)): resolve the order
		// expression against the aggregate's input and substitute the
		// matching output column.
		if agg, isAgg := s.Child.(*plan.Aggregate); isAgg && agg.Resolved() {
			return resolveSortOverAggregate(s, agg)
		}
		proj, ok := s.Child.(*plan.Project)
		if !ok || !proj.Resolved() {
			return nil, false
		}
		innerOut := proj.Child.Output()
		var extra []*expr.AttributeReference
		seen := make(expr.AttributeSet)
		changed := false
		newOrders := make([]*expr.SortOrder, len(s.Orders))
		for i, o := range s.Orders {
			rewritten := expr.TransformUp(o.Child, func(e expr.Expression) (expr.Expression, bool) {
				u, isU := e.(*expr.UnresolvedAttribute)
				if !isU {
					return nil, false
				}
				resolved, err := ResolveAttribute(u.Parts, innerOut)
				if err != nil {
					return nil, false
				}
				for _, attr := range expr.Attributes(resolved) {
					if !seen.Contains(attr.ID_) && !plan.OutputSet(proj).Contains(attr.ID_) {
						seen.Add(attr.ID_)
						extra = append(extra, attr)
					}
				}
				changed = true
				return resolved, true
			})
			if rewritten != o.Child {
				newOrders[i] = &expr.SortOrder{Child: rewritten, Descending: o.Descending}
			} else {
				newOrders[i] = o
			}
		}
		if !changed || len(extra) == 0 {
			return nil, false
		}
		widened := make([]expr.Expression, 0, len(proj.List)+len(extra))
		widened = append(widened, proj.List...)
		for _, attr := range extra {
			widened = append(widened, attr)
		}
		origOutput := make([]expr.Expression, 0, len(proj.List))
		for _, attr := range proj.Output() {
			origOutput = append(origOutput, attr)
		}
		return &plan.Project{
			List: origOutput,
			Child: &plan.Sort{
				Orders: newOrders,
				Global: s.Global,
				Child:  &plan.Project{List: widened, Child: proj.Child},
			},
		}, true
	})
}

// resolveSortOverAggregate resolves ORDER BY expressions that structurally
// repeat an aggregate output expression (grouped expressions or aggregate
// functions), substituting the output attribute.
func resolveSortOverAggregate(s *plan.Sort, agg *plan.Aggregate) (plan.LogicalPlan, bool) {
	input := agg.Child.Output()
	changed := false
	newOrders := make([]*expr.SortOrder, len(s.Orders))
	for i, o := range s.Orders {
		// First resolve the order expression's names against the
		// aggregate's INPUT (the grouped expressions are written in terms
		// of input columns).
		resolved := expr.TransformUp(o.Child, func(e expr.Expression) (expr.Expression, bool) {
			u, isU := e.(*expr.UnresolvedAttribute)
			if !isU {
				return nil, false
			}
			r, err := ResolveAttribute(u.Parts, input)
			if err != nil {
				return nil, false
			}
			return r, true
		})
		// Then match the whole expression against the aggregate outputs.
		matched := false
		for _, a := range agg.Aggs {
			named, isNamed := a.(expr.Named)
			if !isNamed {
				continue
			}
			target := a
			if alias, isAlias := a.(*expr.Alias); isAlias {
				target = alias.Child
			}
			if expr.Equivalent(resolved, target) {
				newOrders[i] = &expr.SortOrder{Child: named.ToAttribute(), Descending: o.Descending}
				matched = true
				changed = true
				break
			}
		}
		if !matched {
			newOrders[i] = o
		}
	}
	if !changed {
		return nil, false
	}
	return &plan.Sort{Orders: newOrders, Global: s.Global, Child: agg}, true
}

// resolveFunctions maps UnresolvedFunction calls to built-in expressions or
// registered UDFs.
func (a *Analyzer) resolveFunctions(p plan.LogicalPlan) plan.LogicalPlan {
	return plan.TransformExpressionsUp(p, func(e expr.Expression) (expr.Expression, bool) {
		u, ok := e.(*expr.UnresolvedFunction)
		if !ok {
			return nil, false
		}
		out, err := a.buildFunction(u)
		if err != nil {
			a.fail(err)
			return nil, false
		}
		if out == nil {
			return nil, false // arguments not yet resolved; retry next pass
		}
		return out, true
	})
}

// buildFunction constructs the expression for a function call. A nil, nil
// return means "not yet" (children unresolved for functions that need
// types).
func (a *Analyzer) buildFunction(u *expr.UnresolvedFunction) (expr.Expression, error) {
	name := strings.ToLower(u.Name)
	args := u.Args
	need := func(n int) error {
		if len(args) != n {
			return Errorf("function %s expects %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	if u.Distinct && name != "count" {
		return nil, Errorf("DISTINCT is only supported in COUNT, not %s", name)
	}
	switch name {
	case "count":
		if u.Star {
			return expr.NewCountStar(), nil
		}
		if err := need(1); err != nil {
			return nil, err
		}
		if u.Distinct {
			return &expr.CountDistinct{Child: args[0]}, nil
		}
		return &expr.Count{Child: args[0]}, nil
	case "sum":
		if err := need(1); err != nil {
			return nil, err
		}
		return &expr.Sum{Child: args[0]}, nil
	case "avg", "mean":
		if err := need(1); err != nil {
			return nil, err
		}
		return &expr.Avg{Child: args[0]}, nil
	case "min":
		if err := need(1); err != nil {
			return nil, err
		}
		return expr.NewMin(args[0]), nil
	case "max":
		if err := need(1); err != nil {
			return nil, err
		}
		return expr.NewMax(args[0]), nil
	case "first":
		if err := need(1); err != nil {
			return nil, err
		}
		return &expr.First{Child: args[0]}, nil
	case "substr", "substring":
		if err := need(3); err != nil {
			return nil, err
		}
		return &expr.Substring{Str: args[0], Pos: args[1], Len: args[2]}, nil
	case "upper":
		if err := need(1); err != nil {
			return nil, err
		}
		return expr.Upper(args[0]), nil
	case "lower":
		if err := need(1); err != nil {
			return nil, err
		}
		return expr.Lower(args[0]), nil
	case "length":
		if err := need(1); err != nil {
			return nil, err
		}
		return expr.Length(args[0]), nil
	case "trim":
		if err := need(1); err != nil {
			return nil, err
		}
		return expr.Trim(args[0]), nil
	case "concat":
		return &expr.Concat{Args: args}, nil
	case "coalesce":
		if len(args) == 0 {
			return nil, Errorf("coalesce requires at least one argument")
		}
		return &expr.Coalesce{Args: args}, nil
	case "abs":
		if err := need(1); err != nil {
			return nil, err
		}
		return &expr.Abs{Child: args[0]}, nil
	case "size":
		if err := need(1); err != nil {
			return nil, err
		}
		return &expr.ArraySize{Child: args[0]}, nil
	case "year":
		if err := need(1); err != nil {
			return nil, err
		}
		return expr.Year(args[0]), nil
	case "month":
		if err := need(1); err != nil {
			return nil, err
		}
		return expr.Month(args[0]), nil
	case "day":
		if err := need(1); err != nil {
			return nil, err
		}
		return expr.Day(args[0]), nil
	case "startswith":
		if err := need(2); err != nil {
			return nil, err
		}
		return expr.StartsWith(args[0], args[1]), nil
	case "endswith":
		if err := need(2); err != nil {
			return nil, err
		}
		return expr.EndsWith(args[0], args[1]), nil
	case "contains":
		if err := need(2); err != nil {
			return nil, err
		}
		return expr.Contains(args[0], args[1]), nil
	}
	if udf, ok := a.catalog.LookupUDF(name); ok {
		if len(args) != len(udf.In) {
			return nil, Errorf("UDF %s expects %d argument(s), got %d", name, len(udf.In), len(args))
		}
		return &expr.ScalarUDF{Name: udf.Name, Fn: udf.Fn, In: udf.In, Ret: udf.Ret, Args: args}, nil
	}
	return nil, Errorf("undefined function %q", u.Name)
}

// globalAggregates turns a Project whose list contains aggregate functions
// into an ungrouped Aggregate (SELECT count(*) FROM t).
func (a *Analyzer) globalAggregates(p plan.LogicalPlan) plan.LogicalPlan {
	return plan.TransformUp(p, func(n plan.LogicalPlan) (plan.LogicalPlan, bool) {
		proj, ok := n.(*plan.Project)
		if !ok {
			return nil, false
		}
		for _, e := range proj.List {
			if expr.ContainsAggregate(e) {
				return &plan.Aggregate{Grouping: nil, Aggs: proj.List, Child: proj.Child}, true
			}
		}
		return nil, false
	})
}

// resolveHaving rewrites Filter-over-Aggregate conditions that contain
// aggregate functions (HAVING count(*) > 5): the aggregates move into the
// Aggregate's output under hidden aliases, the filter references them, and
// a Project restores the original schema.
func (a *Analyzer) resolveHaving(p plan.LogicalPlan) plan.LogicalPlan {
	return plan.TransformUp(p, func(n plan.LogicalPlan) (plan.LogicalPlan, bool) {
		f, ok := n.(*plan.Filter)
		if !ok {
			return nil, false
		}
		agg, ok := f.Child.(*plan.Aggregate)
		if !ok || !expr.ContainsAggregate(f.Cond) {
			return nil, false
		}
		if !agg.Child.Resolved() {
			return nil, false
		}
		newAggs := append([]expr.Expression{}, agg.Aggs...)
		cond := expr.TransformUp(f.Cond, func(e expr.Expression) (expr.Expression, bool) {
			af, isAgg := e.(expr.AggregateFunc)
			if !isAgg || !af.Resolved() {
				return nil, false
			}
			alias := expr.NewAlias(af, fmt.Sprintf("havingCondition%d", len(newAggs)))
			newAggs = append(newAggs, alias)
			return alias.ToAttribute(), true
		})
		if len(newAggs) == len(agg.Aggs) {
			return nil, false // aggregates not yet resolved; retry later
		}
		origOutput := make([]expr.Expression, len(agg.Aggs))
		for i, e := range agg.Aggs {
			if named, isNamed := e.(expr.Named); isNamed {
				origOutput[i] = named.ToAttribute()
			} else {
				return nil, false // wait for ResolveAliases
			}
		}
		inner := &plan.Aggregate{Grouping: agg.Grouping, Aggs: newAggs, Child: agg.Child}
		return &plan.Project{
			List:  origOutput,
			Child: &plan.Filter{Cond: cond, Child: inner},
		}, true
	})
}

// resolveAliases wraps resolved, unnamed expressions in Project and
// Aggregate lists with generated aliases so every output column is named.
func (a *Analyzer) resolveAliases(p plan.LogicalPlan) plan.LogicalPlan {
	return plan.TransformUp(p, func(n plan.LogicalPlan) (plan.LogicalPlan, bool) {
		switch node := n.(type) {
		case *plan.Project:
			list, changed := aliasList(node.List)
			if !changed {
				return nil, false
			}
			return &plan.Project{List: list, Child: node.Child}, true
		case *plan.Aggregate:
			list, changed := aliasList(node.Aggs)
			if !changed {
				return nil, false
			}
			return &plan.Aggregate{Grouping: node.Grouping, Aggs: list, Child: node.Child}, true
		}
		return nil, false
	})
}

func aliasList(list []expr.Expression) ([]expr.Expression, bool) {
	out := make([]expr.Expression, len(list))
	changed := false
	for i, e := range list {
		if _, isNamed := e.(expr.Named); !isNamed && e.Resolved() {
			out[i] = expr.NewAlias(e, prettyName(e))
			changed = true
		} else {
			out[i] = e
		}
	}
	return out, changed
}

// prettyName renders an expression as a column name, stripping attribute
// ID suffixes (sum(x#3) -> sum(x)).
func prettyName(e expr.Expression) string {
	s := e.String()
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '#' {
			for i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9' {
				i++
			}
			continue
		}
		sb.WriteByte(s[i])
	}
	return sb.String()
}

// deduplicateJoinSides gives the right side of a self-join fresh attribute
// IDs so the two sides stay distinguishable (paper §4.3.1's unique-ID
// requirement).
func (a *Analyzer) deduplicateJoinSides(p plan.LogicalPlan) plan.LogicalPlan {
	return plan.TransformUp(p, func(n plan.LogicalPlan) (plan.LogicalPlan, bool) {
		j, ok := n.(*plan.Join)
		if !ok || !j.Left.Resolved() || !j.Right.Resolved() {
			return nil, false
		}
		leftSet := plan.OutputSet(j.Left)
		conflict := false
		for _, attr := range j.Right.Output() {
			if leftSet.Contains(attr.ID_) {
				conflict = true
				break
			}
		}
		if !conflict {
			return nil, false
		}
		newRight, mapping := freshenPlan(j.Right, leftSet)
		if len(mapping) == 0 {
			return nil, false
		}
		// The join condition is NOT remapped: in SQL self-joins the
		// condition still holds UnresolvedAttributes with qualifiers
		// (a.id, b.id) that resolve after deduplication (this rule runs
		// before ResolveReferences). DSL self-joins should use Alias —
		// with raw shared column objects the reference is inherently
		// ambiguous, the same caveat real Spark SQL documents.
		return &plan.Join{Left: j.Left, Right: newRight, Type: j.Type, Cond: j.Cond}, true
	})
}

// freshenPlan rebuilds a subtree, giving any leaf attribute whose ID
// collides with taken a fresh ID, and remapping references above.
func freshenPlan(p plan.LogicalPlan, taken expr.AttributeSet) (plan.LogicalPlan, map[expr.ID]*expr.AttributeReference) {
	mapping := make(map[expr.ID]*expr.AttributeReference)
	out := plan.TransformUp(p, func(n plan.LogicalPlan) (plan.LogicalPlan, bool) {
		switch leaf := n.(type) {
		case *plan.LocalRelation:
			attrs, changed := freshenAttrs(leaf.Attrs, taken, mapping)
			if !changed {
				return nil, false
			}
			c := *leaf // the rows, the statistics and the flat-size cell ride along
			c.Attrs = attrs
			return &c, true
		case *plan.LogicalRDD:
			attrs, changed := freshenAttrs(leaf.Attrs, taken, mapping)
			if !changed {
				return nil, false
			}
			return &plan.LogicalRDD{Attrs: attrs, RDD: leaf.RDD, SizeHint: leaf.SizeHint, TableStats: leaf.TableStats}, true
		case *plan.DataSourceRelation:
			attrs, changed := freshenAttrs(leaf.Attrs, taken, mapping)
			if !changed {
				return nil, false
			}
			c := *leaf
			c.Attrs = attrs
			return &c, true
		case *plan.InMemoryRelation:
			attrs, changed := freshenAttrs(leaf.Attrs, taken, mapping)
			if !changed {
				return nil, false
			}
			c := *leaf
			c.Attrs = attrs
			return &c, true
		case *plan.Range:
			if !taken.Contains(leaf.Attr.ID_) {
				return nil, false
			}
			fresh := leaf.Attr.WithFreshID()
			mapping[leaf.Attr.ID_] = fresh
			c := *leaf
			c.Attr = fresh
			return &c, true
		default:
			// Remap expressions and re-alias so derived attribute IDs
			// (Alias IDs) that collide are also freshened.
			replaced, changed := plan.TransformNodeExpressions(n, func(e expr.Expression) (expr.Expression, bool) {
				switch x := e.(type) {
				case *expr.AttributeReference:
					if fresh, ok := mapping[x.ID_]; ok {
						return fresh.WithQualifier(x.Qualifier), true
					}
				case *expr.Alias:
					if taken.Contains(x.ID_) {
						fresh := expr.NewAlias(x.Child, x.Name)
						mapping[x.ID_] = fresh.ToAttribute()
						return fresh, true
					}
				}
				return nil, false
			})
			if !changed {
				return nil, false
			}
			return replaced, true
		}
	})
	return out, mapping
}

func freshenAttrs(attrs []*expr.AttributeReference, taken expr.AttributeSet, mapping map[expr.ID]*expr.AttributeReference) ([]*expr.AttributeReference, bool) {
	out := make([]*expr.AttributeReference, len(attrs))
	changed := false
	for i, attr := range attrs {
		if taken.Contains(attr.ID_) {
			fresh := attr.WithFreshID()
			mapping[attr.ID_] = fresh
			out[i] = fresh
			changed = true
		} else {
			out[i] = attr
		}
	}
	return out, changed
}

func childrenResolvedPlan(p plan.LogicalPlan) bool {
	for _, c := range p.Children() {
		if !c.Resolved() {
			return false
		}
	}
	return true
}
