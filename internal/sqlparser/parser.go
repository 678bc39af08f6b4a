package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// Statement is a parsed SQL statement.
type Statement interface{ isStatement() }

// SelectStatement is a query producing a logical plan.
type SelectStatement struct {
	Plan plan.LogicalPlan
}

func (*SelectStatement) isStatement() {}

// CreateTempTable is CREATE TEMPORARY TABLE name USING provider
// OPTIONS(...) — the data source registration statement of §4.4.1.
type CreateTempTable struct {
	Name     string
	Provider string
	Options  map[string]string
	// AsSelect, when non-nil, registers the query result instead of a
	// data source (CREATE TEMPORARY TABLE t AS SELECT ...).
	AsSelect plan.LogicalPlan
}

func (*CreateTempTable) isStatement() {}

// AnalyzeTable is ANALYZE TABLE name [COMPUTE STATISTICS]: it scans the
// table once and attaches collected statistics to its catalog entry, the
// input of cost-based optimization.
type AnalyzeTable struct {
	Name string
}

func (*AnalyzeTable) isStatement() {}

// ExplainStatement is EXPLAIN <query>: instead of running the query it
// returns the annotated plan phases as rows. With Analyze set (EXPLAIN
// ANALYZE <query>) the query *does* run, instrumented, and every physical
// node is additionally annotated with the actual rows and wall time it
// produced next to the optimizer's estimate.
type ExplainStatement struct {
	Plan    plan.LogicalPlan
	Analyze bool
}

func (*ExplainStatement) isStatement() {}

// ShowMetrics is SHOW METRICS [LIKE '<glob>']: it returns the engine's
// metrics registry — every counter, gauge and histogram accumulated since
// the context was built — as (metric, value) rows. Like filters names
// (empty = all; no '*' = prefix match; '*' = anchored glob).
type ShowMetrics struct {
	Like string
}

func (*ShowMetrics) isStatement() {}

// ShowCluster is SHOW CLUSTER: one row per registered worker — liveness,
// blacklist state, task and failure counts, and federated shuffle bytes.
type ShowCluster struct{}

func (*ShowCluster) isStatement() {}

// ShowHistory is SHOW HISTORY: the query event log replayed as rows,
// oldest first — the history-server view.
type ShowHistory struct{}

func (*ShowHistory) isStatement() {}

// Parse parses a single SQL statement.
func Parse(sql string) (Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, input: sql}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, p.errorf("unexpected trailing input %q", p.cur().text)
	}
	return stmt, nil
}

// ParseExpression parses a standalone SQL expression (used by
// DataFrame.SelectExpr and filter strings).
func ParseExpression(s string) (expr.Expression, error) {
	toks, err := lex(s)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, input: s}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	// Allow a trailing alias: "a+b AS total".
	if p.acceptKeyword("AS") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		e = expr.NewAlias(e, name)
	}
	if !p.at(tokEOF, "") {
		return nil, p.errorf("unexpected trailing input %q", p.cur().text)
	}
	return e, nil
}

// ParseQuery parses a query and returns its logical plan.
func ParseQuery(sql string) (plan.LogicalPlan, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStatement)
	if !ok {
		return nil, fmt.Errorf("sql: expected a query, got a DDL statement")
	}
	return sel.Plan, nil
}

type parser struct {
	toks  []token
	pos   int
	input string
	depth int // nesting levels entered (enter)
	chain int // operators of the left-deep chains being parsed (link)
}

// maxNesting bounds how deep subqueries, parentheses, NOT and unary minus
// nest: deeper input is an error, not a stack overflow.
const maxNesting = 1000

// maxDepth bounds how deep an expression tree gets: its nesting plus the
// binary operators a loop chains left-deep (a + b + c is two levels), which
// cost the parser no stack but every later tree walk a level each.
const maxDepth = 10000

// enter counts one more level of nesting, failing past maxNesting; the caller
// defers p.leave().
func (p *parser) enter() error {
	if p.depth++; p.depth > maxNesting {
		return p.errorf("nested deeper than %d levels", maxNesting)
	}
	return p.link(0)
}

func (p *parser) leave() { p.depth-- }

// link counts n more chained operators, failing once the tree would be deeper
// than maxDepth; the loop that chains them defers p.unlink(p.chain) first.
func (p *parser) link(n int) error {
	if p.chain += n; p.depth+p.chain > maxDepth {
		return p.errorf("expression deeper than %d levels", maxDepth)
	}
	return nil
}

func (p *parser) unlink(chain int) { p.chain = chain }

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }
func (p *parser) advance()    { p.pos++ }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) atKeyword(kw string) bool { return p.at(tokKeyword, kw) }

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool { return p.accept(tokKeyword, kw) }

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	t := p.cur()
	if !p.at(kind, text) {
		return t, p.errorf("expected %q, found %q", text, t.text)
	}
	p.advance()
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	_, err := p.expect(tokKeyword, kw)
	return err
}

// nonReserved keywords may double as identifiers (column/table names) —
// notably the type names, since the paper's own example queries use a
// column called `long`.
var nonReserved = map[string]bool{
	"INT": true, "INTEGER": true, "BIGINT": true, "LONG": true,
	"DOUBLE": true, "FLOAT": true, "STRING": true, "BOOLEAN": true,
	"DATE": true, "TIMESTAMP": true, "DECIMAL": true, "OPTIONS": true,
	"TABLE": true, "ALL": true, "COMPUTE": true, "STATISTICS": true,
	"METRICS": true, "SHOW": true, "CLUSTER": true, "HISTORY": true,
	// DML words stay usable as column/table names (the paper-era datasets
	// have columns like `values` and `set`).
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true,
	"SET": true, "DELETE": true, "DROP": true, "DESCRIBE": true,
	"TABLES": true, "IF": true, "EXISTS": true,
	// END doubles as a column name (the paper's §7.2 range join uses
	// a.end); CASE expressions still terminate correctly because END is
	// only read as a name where an expression may start or after a dot.
	"END": true,
}

func (p *parser) peekIsName() bool {
	t := p.peek()
	return t.kind == tokIdent || (t.kind == tokKeyword && nonReserved[t.text])
}

func (p *parser) atName() bool {
	t := p.cur()
	return t.kind == tokIdent || (t.kind == tokKeyword && nonReserved[t.text])
}

// ident accepts an identifier or a non-reserved keyword used as a name.
func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind == tokIdent {
		p.advance()
		return t.text, nil
	}
	if t.kind == tokKeyword && nonReserved[t.text] {
		p.advance()
		return strings.ToLower(t.text), nil
	}
	return "", p.errorf("expected identifier, found %q", t.text)
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) parseStatement() (Statement, error) {
	if p.atKeyword("CREATE") {
		if p.peek().kind == tokKeyword && p.peek().text == "TEMPORARY" {
			return p.parseCreateTempTable()
		}
		return p.parseCreateTable()
	}
	if p.atKeyword("DROP") {
		return p.parseDropTable()
	}
	if p.atKeyword("INSERT") {
		return p.parseInsert()
	}
	if p.atKeyword("UPDATE") {
		return p.parseUpdate()
	}
	if p.atKeyword("DELETE") {
		return p.parseDelete()
	}
	if p.atKeyword("DESCRIBE") || p.atKeyword("DESC") {
		return p.parseDescribe()
	}
	if p.atKeyword("ANALYZE") {
		return p.parseAnalyzeTable()
	}
	if p.acceptKeyword("EXPLAIN") {
		analyze := p.acceptKeyword("ANALYZE")
		lp, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStatement{Plan: lp, Analyze: analyze}, nil
	}
	if p.atKeyword("SHOW") {
		p.advance()
		switch {
		case p.acceptKeyword("METRICS"):
			if p.acceptKeyword("LIKE") {
				t, err := p.expect(tokString, "")
				if err != nil {
					return nil, err
				}
				return &ShowMetrics{Like: t.text}, nil
			}
			return &ShowMetrics{}, nil
		case p.acceptKeyword("CLUSTER"):
			return &ShowCluster{}, nil
		case p.acceptKeyword("HISTORY"):
			return &ShowHistory{}, nil
		case p.acceptKeyword("TABLES"):
			return &ShowTables{}, nil
		}
		return nil, p.errorf("expected METRICS, CLUSTER, HISTORY or TABLES after SHOW, found %q", p.cur().text)
	}
	lp, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &SelectStatement{Plan: lp}, nil
}

func (p *parser) parseAnalyzeTable() (Statement, error) {
	if err := p.expectKeyword("ANALYZE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	// The Spark-compatible long form; the suffix is optional here.
	if p.acceptKeyword("COMPUTE") {
		if err := p.expectKeyword("STATISTICS"); err != nil {
			return nil, err
		}
	}
	return &AnalyzeTable{Name: name}, nil
}

func (p *parser) parseCreateTempTable() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TEMPORARY"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("AS") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &CreateTempTable{Name: name, AsSelect: sel}, nil
	}
	if err := p.expectKeyword("USING"); err != nil {
		return nil, err
	}
	// Provider names may be dotted package names (com.databricks.spark.avro).
	provider, err := p.ident()
	if err != nil {
		return nil, err
	}
	for p.accept(tokOp, ".") {
		part, err := p.ident()
		if err != nil {
			return nil, err
		}
		provider += "." + part
	}
	options := map[string]string{}
	if p.acceptKeyword("OPTIONS") {
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		for {
			key := p.cur()
			if key.kind != tokIdent && key.kind != tokString && key.kind != tokKeyword {
				return nil, p.errorf("expected option key, found %q", key.text)
			}
			p.advance()
			val := p.cur()
			if val.kind != tokString {
				return nil, p.errorf("expected quoted option value, found %q", val.text)
			}
			p.advance()
			options[strings.ToLower(key.text)] = val.text
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
	}
	return &CreateTempTable{Name: name, Provider: provider, Options: options}, nil
}

// ---------------------------------------------------------------------------
// Queries

// parseSelect handles UNION ALL chains plus trailing ORDER BY / LIMIT.
func (p *parser) parseSelect() (plan.LogicalPlan, error) {
	defer p.leave()
	if err := p.enter(); err != nil {
		return nil, err
	}
	lp, err := p.parseQueryTerm()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("UNION") {
		p.advance()
		// UNION ALL keeps duplicates; bare UNION (or UNION DISTINCT)
		// dedupes, per SQL.
		distinct := !p.acceptKeyword("ALL")
		if distinct {
			p.acceptKeyword("DISTINCT")
		}
		next, err := p.parseQueryTerm()
		if err != nil {
			return nil, err
		}
		var u plan.LogicalPlan = &plan.Union{Kids: []plan.LogicalPlan{lp, next}}
		if distinct {
			u = &plan.Distinct{Child: u}
		}
		lp = u
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		orders, err := p.parseSortOrders()
		if err != nil {
			return nil, err
		}
		lp = &plan.Sort{Orders: orders, Global: true, Child: lp}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.cur()
		if t.kind != tokNumber {
			return nil, p.errorf("expected number after LIMIT, found %q", t.text)
		}
		p.advance()
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, p.errorf("invalid LIMIT %q", t.text)
		}
		lp = &plan.Limit{N: n, Child: lp}
	}
	return lp, nil
}

// parseQueryTerm parses one SELECT ... [FROM ...] block.
func (p *parser) parseQueryTerm() (plan.LogicalPlan, error) {
	if p.accept(tokOp, "(") {
		inner, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	distinct := p.acceptKeyword("DISTINCT")

	list, err := p.parseSelectList()
	if err != nil {
		return nil, err
	}

	var child plan.LogicalPlan = &plan.OneRowRelation{}
	if p.acceptKeyword("FROM") {
		child, err = p.parseFromClause()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("WHERE") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		child = &plan.Filter{Cond: cond, Child: child}
	}

	var out plan.LogicalPlan
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		var grouping []expr.Expression
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			grouping = append(grouping, g)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		out = &plan.Aggregate{Grouping: grouping, Aggs: list, Child: child}
	} else {
		out = &plan.Project{List: list, Child: child}
	}

	if p.acceptKeyword("HAVING") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = &plan.Filter{Cond: cond, Child: out}
	}
	if distinct {
		out = &plan.Distinct{Child: out}
	}
	return out, nil
}

func (p *parser) parseSelectList() ([]expr.Expression, error) {
	var list []expr.Expression
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		list = append(list, item)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	return list, nil
}

func (p *parser) parseSelectItem() (expr.Expression, error) {
	// `*` and `t.*`
	if p.at(tokOp, "*") {
		p.advance()
		return &expr.Star{}, nil
	}
	if p.atName() && p.peek().kind == tokOp && p.peek().text == "." {
		// Lookahead for t.* without consuming on failure.
		save := p.pos
		q, _ := p.ident()
		p.advance() // '.'
		if p.at(tokOp, "*") {
			p.advance()
			return &expr.Star{Qualifier: q}, nil
		}
		p.pos = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("AS") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return expr.NewAlias(e, name), nil
	}
	if p.cur().kind == tokIdent {
		name, _ := p.ident()
		return expr.NewAlias(e, name), nil
	}
	return e, nil
}

func (p *parser) parseSortOrders() ([]*expr.SortOrder, error) {
	var orders []*expr.SortOrder
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		desc := false
		if p.acceptKeyword("DESC") {
			desc = true
		} else {
			p.acceptKeyword("ASC")
		}
		if desc {
			orders = append(orders, expr.Desc(e))
		} else {
			orders = append(orders, expr.Asc(e))
		}
		if !p.accept(tokOp, ",") {
			break
		}
	}
	return orders, nil
}

// ---------------------------------------------------------------------------
// FROM clause

func (p *parser) parseFromClause() (plan.LogicalPlan, error) {
	left, err := p.parseTableFactor()
	if err != nil {
		return nil, err
	}
	for {
		var jt plan.JoinType
		switch {
		case p.atKeyword("JOIN") || p.atKeyword("INNER"):
			p.acceptKeyword("INNER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = plan.InnerJoin
		case p.atKeyword("LEFT"):
			p.advance()
			if p.acceptKeyword("SEMI") {
				jt = plan.LeftSemiJoin
			} else {
				p.acceptKeyword("OUTER")
				jt = plan.LeftOuterJoin
			}
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		case p.atKeyword("RIGHT"):
			p.advance()
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = plan.RightOuterJoin
		case p.atKeyword("FULL"):
			p.advance()
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = plan.FullOuterJoin
		case p.atKeyword("CROSS"):
			p.advance()
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = plan.CrossJoin
		case p.at(tokOp, ","): // comma join = cross join (filtered by WHERE)
			p.advance()
			jt = plan.CrossJoin
			right, err := p.parseTableFactor()
			if err != nil {
				return nil, err
			}
			// Comma-joined relations historically rely on WHERE for the
			// condition; keep Inner so predicate pushdown forms the join.
			left = &plan.Join{Left: left, Right: right, Type: jt, Cond: nil}
			continue
		default:
			return left, nil
		}
		right, err := p.parseTableFactor()
		if err != nil {
			return nil, err
		}
		var cond expr.Expression
		if p.acceptKeyword("ON") {
			cond, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		left = &plan.Join{Left: left, Right: right, Type: jt, Cond: cond}
	}
}

func (p *parser) parseTableFactor() (plan.LogicalPlan, error) {
	if p.accept(tokOp, "(") {
		inner, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		p.acceptKeyword("AS")
		alias, err := p.ident()
		if err != nil {
			return nil, p.errorf("subquery in FROM requires an alias")
		}
		return &plan.SubqueryAlias{Name: strings.ToLower(alias), Child: inner}, nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	var rel plan.LogicalPlan = &plan.UnresolvedRelation{Name: name}
	// Table-valued function: name(table1, table2, ...) in FROM (§3.7).
	if p.at(tokOp, "(") {
		p.advance()
		var args []string
		if !p.at(tokOp, ")") {
			for {
				arg, err := p.ident()
				if err != nil {
					return nil, err
				}
				args = append(args, arg)
				if !p.accept(tokOp, ",") {
					break
				}
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		rel = &plan.UnresolvedTableFunction{Name: name, Args: args}
	}
	if p.acceptKeyword("AS") {
		alias, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &plan.SubqueryAlias{Name: strings.ToLower(alias), Child: rel}, nil
	}
	if p.cur().kind == tokIdent {
		alias, _ := p.ident()
		return &plan.SubqueryAlias{Name: strings.ToLower(alias), Child: rel}, nil
	}
	return rel, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *parser) parseExpr() (expr.Expression, error) {
	defer p.leave()
	if err := p.enter(); err != nil {
		return nil, err
	}
	return p.parseOr()
}

func (p *parser) parseOr() (expr.Expression, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	defer p.unlink(p.chain)
	for p.acceptKeyword("OR") {
		if err := p.link(1); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &expr.Or{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (expr.Expression, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	defer p.unlink(p.chain)
	for p.atKeyword("AND") {
		p.advance()
		if err := p.link(1); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &expr.And{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (expr.Expression, error) {
	if p.acceptKeyword("NOT") {
		defer p.leave()
		if err := p.enter(); err != nil {
			return nil, err
		}
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.Not{Child: inner}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (expr.Expression, error) {
	left, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atKeyword("IS"):
			p.advance()
			negate := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			if negate {
				left = &expr.IsNotNull{Child: left}
			} else {
				left = &expr.IsNull{Child: left}
			}
		case p.atKeyword("LIKE"):
			p.advance()
			pattern, err := p.parseComparison()
			if err != nil {
				return nil, err
			}
			left = &expr.Like{Left: left, Pattern: pattern}
		case p.atKeyword("BETWEEN"):
			p.advance()
			lo, err := p.parseComparison()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseComparison()
			if err != nil {
				return nil, err
			}
			left = &expr.And{Left: expr.GE(left, lo), Right: expr.LE(left, hi)}
		case p.atKeyword("IN"):
			p.advance()
			if _, err := p.expect(tokOp, "("); err != nil {
				return nil, err
			}
			var list []expr.Expression
			for {
				item, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				list = append(list, item)
				if !p.accept(tokOp, ",") {
					break
				}
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			left = &expr.In{Value: left, List: list}
		case p.atKeyword("NOT"):
			// NOT LIKE / NOT IN / NOT BETWEEN
			save := p.pos
			p.advance()
			switch {
			case p.atKeyword("LIKE"), p.atKeyword("IN"), p.atKeyword("BETWEEN"):
				p.pos = save
				p.advance() // consume NOT
				inner, err := p.parsePredicateSuffix(left)
				if err != nil {
					return nil, err
				}
				left = &expr.Not{Child: inner}
			default:
				p.pos = save
				return left, nil
			}
		default:
			return left, nil
		}
	}
}

// parsePredicateSuffix parses exactly one LIKE/IN/BETWEEN suffix for the
// NOT-prefixed forms.
func (p *parser) parsePredicateSuffix(left expr.Expression) (expr.Expression, error) {
	switch {
	case p.acceptKeyword("LIKE"):
		pattern, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		return &expr.Like{Left: left, Pattern: pattern}, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		return &expr.And{Left: expr.GE(left, lo), Right: expr.LE(left, hi)}, nil
	case p.acceptKeyword("IN"):
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		var list []expr.Expression
		for {
			item, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, item)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return &expr.In{Value: left, List: list}, nil
	}
	return nil, p.errorf("expected LIKE, IN or BETWEEN after NOT")
}

func (p *parser) parseComparison() (expr.Expression, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokOp {
		var op expr.CmpOp
		matched := true
		switch p.cur().text {
		case "=", "==":
			op = expr.OpEQ
		case "!=", "<>":
			op = expr.OpNEQ
		case "<":
			op = expr.OpLT
		case "<=":
			op = expr.OpLE
		case ">":
			op = expr.OpGT
		case ">=":
			op = expr.OpGE
		default:
			matched = false
		}
		if matched {
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &expr.Comparison{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (expr.Expression, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	defer p.unlink(p.chain)
	var concat *expr.Concat // the one a || chain so far appends to
	for {
		op := p.cur().text
		if p.cur().kind != tokOp || op != "+" && op != "-" && op != "||" {
			return left, nil
		}
		p.advance()
		if err := p.link(1); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		switch {
		case op == "+":
			left = expr.Add(left, right)
		case op == "-":
			left = expr.Sub(left, right)
		case left == concat: // a || b || c is one concat(a, b, c)
			concat.Args = append(concat.Args, right)
		default:
			concat = &expr.Concat{Args: []expr.Expression{left, right}}
			left = concat
		}
	}
}

// mulOps builds the multiplicative operators.
var mulOps = map[string]func(l, r expr.Expression) *expr.BinaryArith{"*": expr.Mul, "/": expr.Div, "%": expr.Mod}

func (p *parser) parseMultiplicative() (expr.Expression, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	defer p.unlink(p.chain)
	for {
		build, ok := mulOps[p.cur().text]
		if p.cur().kind != tokOp || !ok {
			return left, nil
		}
		p.advance()
		if err := p.link(1); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = build(left, right)
	}
}

func (p *parser) parseUnary() (expr.Expression, error) {
	if p.accept(tokOp, "-") {
		defer p.leave()
		if err := p.enter(); err != nil {
			return nil, err
		}
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := inner.(*expr.Literal); ok {
			switch v := lit.Value.(type) {
			case int32:
				return expr.Lit(-v), nil
			case int64:
				return expr.Lit(-v), nil
			case float64:
				return expr.Lit(-v), nil
			}
		}
		return &expr.Negate{Child: inner}, nil
	}
	p.accept(tokOp, "+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expression, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.advance()
		return parseNumber(t.text)

	case t.kind == tokString:
		p.advance()
		return expr.Lit(t.text), nil

	case p.atKeyword("NULL"):
		p.advance()
		return expr.Lit(nil), nil

	case p.atKeyword("TRUE"):
		p.advance()
		return expr.Lit(true), nil

	case p.atKeyword("FALSE"):
		p.advance()
		return expr.Lit(false), nil

	case p.atKeyword("CASE"):
		return p.parseCase()

	case p.atKeyword("CAST"):
		return p.parseCast()

	case p.at(tokOp, "("):
		p.advance()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return inner, nil

	case p.atName():
		return p.parseIdentExpr()

	// Aggregate keywords used as function names (e.g. COUNT is not in our
	// keyword set, so this arm is for future-proofing).
	default:
		return nil, p.errorf("unexpected token %q in expression", t.text)
	}
}

// parseIdentExpr handles function calls and (qualified) column references.
func (p *parser) parseIdentExpr() (expr.Expression, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.at(tokOp, "(") {
		p.advance()
		if p.accept(tokOp, "*") {
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			return &expr.UnresolvedFunction{Name: name, Star: true}, nil
		}
		distinct := p.acceptKeyword("DISTINCT")
		var args []expr.Expression
		if !p.at(tokOp, ")") {
			for {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, arg)
				if !p.accept(tokOp, ",") {
					break
				}
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return &expr.UnresolvedFunction{Name: name, Args: args, Distinct: distinct}, nil
	}
	parts := []string{name}
	for p.at(tokOp, ".") && p.peekIsName() {
		p.advance()
		part, err := p.ident()
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
	}
	return expr.UnresolvedAttr(parts...), nil
}

func (p *parser) parseCase() (expr.Expression, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	var branches [][2]expr.Expression
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		branches = append(branches, [2]expr.Expression{cond, val})
	}
	if len(branches) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN branch")
	}
	var elseVal expr.Expression
	if p.acceptKeyword("ELSE") {
		var err error
		elseVal, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return expr.NewCaseWhen(branches, elseVal), nil
}

func (p *parser) parseCast() (expr.Expression, error) {
	if err := p.expectKeyword("CAST"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	inner, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	to, err := p.parseDataType()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return expr.NewCast(inner, to), nil
}

func (p *parser) parseDataType() (types.DataType, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return nil, p.errorf("expected a type name, found %q", t.text)
	}
	p.advance()
	if t.text == "DECIMAL" {
		prec, scale := 10, 0
		if p.accept(tokOp, "(") {
			pt, err := p.expect(tokNumber, "")
			if err != nil {
				return nil, err
			}
			prec, _ = strconv.Atoi(pt.text)
			if p.accept(tokOp, ",") {
				st, err := p.expect(tokNumber, "")
				if err != nil {
					return nil, err
				}
				scale, _ = strconv.Atoi(st.text)
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
		}
		return types.DecimalType{Precision: prec, Scale: scale}, nil
	}
	// NULL and BINARY are type names too, but not ones SQL text may declare.
	if dt, ok := types.ParseName(t.text); ok && !dt.Equals(types.Null) && !dt.Equals(types.Binary) {
		return dt, nil
	}
	return nil, p.errorf("unknown type %q", t.text)
}

func parseNumber(text string) (expr.Expression, error) {
	if !strings.ContainsAny(text, ".eE") {
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: invalid number %q", text)
		}
		if n >= -2147483648 && n <= 2147483647 {
			return expr.Lit(int32(n)), nil
		}
		return expr.Lit(n), nil
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, fmt.Errorf("sql: invalid number %q", text)
	}
	return expr.Lit(f), nil
}
