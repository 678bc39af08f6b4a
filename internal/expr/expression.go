// Package expr implements Catalyst expression trees (paper §4.1): literals,
// attributes, arithmetic, predicates, string operations, casts,
// conditionals, aggregate functions and user-defined functions — plus the
// two evaluation strategies the paper compares in Figure 4: a tree-walking
// interpreter (Eval) and runtime "code generation" (Compile), which in this
// Go reproduction produces closures instead of JVM bytecode.
package expr

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/row"
	"repro/internal/types"
)

// Expression is a Catalyst expression tree node. All implementations are
// pointer types (required by the catalyst transform machinery).
type Expression interface {
	// Children returns direct sub-expressions.
	Children() []Expression
	// WithNewChildren rebuilds the node with replacement children.
	WithNewChildren(children []Expression) Expression
	// String renders the whole subtree.
	String() string
	// DataType is the result type; calling it on an unresolved expression
	// panics (the analyzer must run first).
	DataType() types.DataType
	// Nullable reports whether evaluation may produce SQL NULL.
	Nullable() bool
	// Resolved reports whether the expression and all children have been
	// bound to input attributes and typed (paper §4.3.1).
	Resolved() bool
	// Eval interprets the expression against an input row. NULL is nil.
	Eval(r row.Row) any
}

// Named is implemented by expressions that produce a named output column:
// attributes and aliases.
type Named interface {
	Expression
	// OutName is the output column name.
	OutName() string
	// ExprID is the unique identity of the produced attribute.
	ExprID() ID
	// ToAttribute returns the attribute this expression produces, for use
	// in the schema of the operator above.
	ToAttribute() *AttributeReference
}

// ID uniquely identifies a resolved attribute across the whole query plan,
// letting the optimizer distinguish same-named columns from different
// relations (paper §4.3.1: "determining which attributes refer to the same
// value to give them a unique ID").
type ID int64

var idCounter atomic.Int64

// NewID allocates a fresh attribute ID.
func NewID() ID { return ID(idCounter.Add(1)) }

// unresolvedPanic is used by unresolved nodes for DataType/Eval.
func unresolvedPanic(e Expression) string {
	return fmt.Sprintf("expr: invalid call on unresolved expression %s", e.String())
}

// ---------------------------------------------------------------------------
// Literal

// Literal is a constant value of a known type.
type Literal struct {
	Value any
	Type  types.DataType
}

// Lit builds a literal, inferring the SQL type from the Go value.
func Lit(v any) *Literal {
	switch x := v.(type) {
	case nil:
		return &Literal{Value: nil, Type: types.Null}
	case bool:
		return &Literal{Value: x, Type: types.Boolean}
	case int:
		return &Literal{Value: int32(x), Type: types.Int}
	case int32:
		return &Literal{Value: x, Type: types.Int}
	case int64:
		return &Literal{Value: x, Type: types.Long}
	case float32:
		return &Literal{Value: x, Type: types.Float}
	case float64:
		return &Literal{Value: x, Type: types.Double}
	case string:
		return &Literal{Value: x, Type: types.String}
	case types.Decimal:
		return &Literal{Value: x, Type: types.DecimalType{Precision: types.MaxLongDigits, Scale: x.Scale}}
	default:
		panic(fmt.Sprintf("expr: unsupported literal type %T", v))
	}
}

func (l *Literal) Children() []Expression { return nil }
func (l *Literal) WithNewChildren(children []Expression) Expression {
	return l
}
func (l *Literal) DataType() types.DataType { return l.Type }
func (l *Literal) Nullable() bool           { return l.Value == nil }
func (l *Literal) Resolved() bool           { return true }
func (l *Literal) Eval(r row.Row) any       { return l.Value }
func (l *Literal) String() string {
	if s, ok := l.Value.(string); ok {
		return fmt.Sprintf("%q", s)
	}
	if l.Value == nil {
		return "NULL"
	}
	return fmt.Sprint(l.Value)
}

// ---------------------------------------------------------------------------
// Attributes

// UnresolvedAttribute is a by-name column reference produced by the parser
// or the DataFrame DSL, before analysis. Parts holds the dotted path, e.g.
// ["users", "age"] or ["loc", "lat"]; resolution decides which prefix names
// a relation and which suffix drills into struct fields.
type UnresolvedAttribute struct {
	Parts []string
}

// UnresolvedAttr builds an unresolved attribute from a dotted name.
func UnresolvedAttr(parts ...string) *UnresolvedAttribute {
	return &UnresolvedAttribute{Parts: parts}
}

func (u *UnresolvedAttribute) Children() []Expression { return nil }
func (u *UnresolvedAttribute) WithNewChildren(children []Expression) Expression {
	return u
}
func (u *UnresolvedAttribute) DataType() types.DataType { panic(unresolvedPanic(u)) }
func (u *UnresolvedAttribute) Nullable() bool           { panic(unresolvedPanic(u)) }
func (u *UnresolvedAttribute) Resolved() bool           { return false }
func (u *UnresolvedAttribute) Eval(r row.Row) any       { panic(unresolvedPanic(u)) }
func (u *UnresolvedAttribute) String() string {
	s := ""
	for i, p := range u.Parts {
		if i > 0 {
			s += "."
		}
		s += p
	}
	return "'" + s
}
func (u *UnresolvedAttribute) OutName() string { return u.Parts[len(u.Parts)-1] }
func (u *UnresolvedAttribute) ExprID() ID      { panic(unresolvedPanic(u)) }
func (u *UnresolvedAttribute) ToAttribute() *AttributeReference {
	panic(unresolvedPanic(u))
}

// Star is the `*` in SELECT * or df.Select("*"); the analyzer expands it to
// the child's output attributes. Qualifier restricts expansion to one
// relation (e.g. `t.*`).
type Star struct {
	Qualifier string
}

func (s *Star) Children() []Expression                           { return nil }
func (s *Star) WithNewChildren(children []Expression) Expression { return s }
func (s *Star) DataType() types.DataType                         { panic(unresolvedPanic(s)) }
func (s *Star) Nullable() bool                                   { panic(unresolvedPanic(s)) }
func (s *Star) Resolved() bool                                   { return false }
func (s *Star) Eval(r row.Row) any                               { panic(unresolvedPanic(s)) }
func (s *Star) String() string {
	if s.Qualifier != "" {
		return s.Qualifier + ".*"
	}
	return "*"
}

// AttributeReference is a resolved reference to an output column of some
// operator, carrying its type, nullability, unique ID and optional relation
// qualifier.
type AttributeReference struct {
	Name      string
	Type      types.DataType
	Null      bool
	ID_       ID
	Qualifier string
}

// NewAttribute allocates a resolved attribute with a fresh ID.
func NewAttribute(name string, t types.DataType, nullable bool) *AttributeReference {
	return &AttributeReference{Name: name, Type: t, Null: nullable, ID_: NewID()}
}

// WithQualifier returns a copy carrying the given relation qualifier (same ID).
func (a *AttributeReference) WithQualifier(q string) *AttributeReference {
	c := *a
	c.Qualifier = q
	return &c
}

// WithFreshID returns a copy with a newly allocated ID (used when
// self-joining a relation so the two sides' attributes stay distinct).
func (a *AttributeReference) WithFreshID() *AttributeReference {
	c := *a
	c.ID_ = NewID()
	return &c
}

// WithNullable returns a copy with the given nullability (outer joins make
// one side's attributes nullable).
func (a *AttributeReference) WithNullable(n bool) *AttributeReference {
	c := *a
	c.Null = n
	return &c
}

func (a *AttributeReference) Children() []Expression { return nil }
func (a *AttributeReference) WithNewChildren(children []Expression) Expression {
	return a
}
func (a *AttributeReference) DataType() types.DataType { return a.Type }
func (a *AttributeReference) Nullable() bool           { return a.Null }
func (a *AttributeReference) Resolved() bool           { return true }
func (a *AttributeReference) Eval(r row.Row) any {
	panic(fmt.Sprintf("expr: evaluating unbound attribute %s; bind to the input schema first", a))
}
func (a *AttributeReference) String() string {
	return fmt.Sprintf("%s#%d", a.Name, a.ID_)
}
func (a *AttributeReference) OutName() string                  { return a.Name }
func (a *AttributeReference) ExprID() ID                       { return a.ID_ }
func (a *AttributeReference) ToAttribute() *AttributeReference { return a }

// ---------------------------------------------------------------------------
// Alias

// Alias names the result of an expression, e.g. `expr AS name`. It carries
// its own attribute ID so operators above can reference the aliased column.
type Alias struct {
	Child Expression
	Name  string
	ID_   ID
}

// NewAlias wraps child under a name with a fresh ID.
func NewAlias(child Expression, name string) *Alias {
	return &Alias{Child: child, Name: name, ID_: NewID()}
}

func (a *Alias) Children() []Expression { return []Expression{a.Child} }
func (a *Alias) WithNewChildren(children []Expression) Expression {
	return &Alias{Child: children[0], Name: a.Name, ID_: a.ID_}
}
func (a *Alias) DataType() types.DataType { return a.Child.DataType() }
func (a *Alias) Nullable() bool           { return a.Child.Nullable() }
func (a *Alias) Resolved() bool           { return a.Child.Resolved() }
func (a *Alias) Eval(r row.Row) any       { return a.Child.Eval(r) }
func (a *Alias) String() string           { return fmt.Sprintf("%s AS %s#%d", a.Child, a.Name, a.ID_) }
func (a *Alias) OutName() string          { return a.Name }
func (a *Alias) ExprID() ID               { return a.ID_ }
func (a *Alias) ToAttribute() *AttributeReference {
	return &AttributeReference{Name: a.Name, Type: a.DataType(), Null: a.Nullable(), ID_: a.ID_}
}

// ---------------------------------------------------------------------------
// BoundReference

// BoundReference is an attribute bound to an ordinal of the physical input
// row; the physical planner rewrites AttributeReferences into these before
// execution (and before compilation).
type BoundReference struct {
	Ordinal int
	Type    types.DataType
	Null    bool
}

func (b *BoundReference) Children() []Expression { return nil }
func (b *BoundReference) WithNewChildren(children []Expression) Expression {
	return b
}
func (b *BoundReference) DataType() types.DataType { return b.Type }
func (b *BoundReference) Nullable() bool           { return b.Null }
func (b *BoundReference) Resolved() bool           { return true }
func (b *BoundReference) Eval(r row.Row) any       { return r[b.Ordinal] }
func (b *BoundReference) String() string           { return fmt.Sprintf("input[%d]", b.Ordinal) }

// ---------------------------------------------------------------------------
// Helpers shared across the package

// ChildrenResolved reports whether every child of e is resolved.
func ChildrenResolved(e Expression) bool {
	for _, c := range e.Children() {
		if !c.Resolved() {
			return false
		}
	}
	return true
}

// typeMemo holds a binary operator's resolution and type, pure functions of
// children that never change once it is built, worked out once per node:
// recomputed per call, a left-deep chain of n operators re-walks its spine at
// each of the n nodes the analyzer visits, O(n^3) in all.
type typeMemo struct {
	once     sync.Once
	resolved bool
	typ      types.DataType // nil while a child is unresolved
}

func (m *typeMemo) get(shape func() (bool, types.DataType)) (bool, types.DataType) {
	m.once.Do(func() { m.resolved, m.typ = shape() })
	return m.resolved, m.typ
}

// boolean is the resolution of a connective over BOOLEAN operands.
func (m *typeMemo) boolean(e, l, r Expression) bool {
	ok, _ := m.get(func() (bool, types.DataType) {
		return ChildrenResolved(e) && l.DataType().Equals(types.Boolean) && r.DataType().Equals(types.Boolean), types.Boolean
	})
	return ok
}

// infixOp is a binary operator printed as "(left op right)".
type infixOp interface {
	Expression
	infix() (left Expression, op string, right Expression)
}

// infixString prints e into one builder, recursing down its left operands:
// formatting each level from its left operand's string would copy a left-deep
// chain of n operators O(n^2) bytes.
func infixString(e infixOp) string {
	var sb strings.Builder
	writeInfix(&sb, e)
	return sb.String()
}

func writeInfix(sb *strings.Builder, e infixOp) {
	l, op, r := e.infix()
	sb.WriteByte('(')
	if li, ok := l.(infixOp); ok {
		writeInfix(sb, li)
	} else {
		sb.WriteString(l.String())
	}
	sb.WriteString(" " + op + " ")
	sb.WriteString(r.String())
	sb.WriteByte(')')
}

func anyNullable(exprs ...Expression) bool {
	for _, e := range exprs {
		if e.Nullable() {
			return true
		}
	}
	return false
}
