package expr

import (
	"fmt"
	"strings"

	"repro/internal/row"
	"repro/internal/types"
)

// CaseWhen is the SQL searched CASE expression:
// CASE WHEN c1 THEN v1 WHEN c2 THEN v2 ... ELSE e END.
// Children are stored flat (cond1, val1, cond2, val2, ..., [else]) so the
// generic tree machinery can rewrite them.
type CaseWhen struct {
	// kids is the flattened (cond, value)* [else] list.
	kids    []Expression
	hasElse bool
}

// NewCaseWhen builds a CASE expression from branch pairs and an optional
// else (nil for none).
func NewCaseWhen(branches [][2]Expression, elseValue Expression) *CaseWhen {
	kids := make([]Expression, 0, len(branches)*2+1)
	for _, b := range branches {
		kids = append(kids, b[0], b[1])
	}
	hasElse := elseValue != nil
	if hasElse {
		kids = append(kids, elseValue)
	}
	return &CaseWhen{kids: kids, hasElse: hasElse}
}

// Branches returns the (condition, value) pairs.
func (c *CaseWhen) Branches() [][2]Expression {
	n := len(c.kids)
	if c.hasElse {
		n--
	}
	out := make([][2]Expression, 0, n/2)
	for i := 0; i+1 < n; i += 2 {
		out = append(out, [2]Expression{c.kids[i], c.kids[i+1]})
	}
	return out
}

// ElseValue returns the ELSE expression, or nil.
func (c *CaseWhen) ElseValue() Expression {
	if c.hasElse {
		return c.kids[len(c.kids)-1]
	}
	return nil
}

func (c *CaseWhen) Children() []Expression { return c.kids }
func (c *CaseWhen) WithNewChildren(children []Expression) Expression {
	return &CaseWhen{kids: children, hasElse: c.hasElse}
}
func (c *CaseWhen) DataType() types.DataType { return c.kids[1].DataType() }
func (c *CaseWhen) Nullable() bool {
	if !c.hasElse {
		return true // falling through every branch yields NULL
	}
	for i := 1; i < len(c.kids); i += 2 {
		if c.kids[i].Nullable() {
			return true
		}
	}
	return c.ElseValue().Nullable()
}
func (c *CaseWhen) Resolved() bool {
	if !ChildrenResolved(c) {
		return false
	}
	vt := c.kids[1].DataType()
	for _, b := range c.Branches() {
		if !b[0].DataType().Equals(types.Boolean) || !b[1].DataType().Equals(vt) {
			return false
		}
	}
	if e := c.ElseValue(); e != nil && !e.DataType().Equals(vt) {
		return false
	}
	return true
}
func (c *CaseWhen) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, b := range c.Branches() {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", b[0], b[1])
	}
	if e := c.ElseValue(); e != nil {
		fmt.Fprintf(&sb, " ELSE %s", e)
	}
	sb.WriteString(" END")
	return sb.String()
}
func (c *CaseWhen) Eval(r row.Row) any {
	for _, b := range c.Branches() {
		if b[0].Eval(r) == true {
			return b[1].Eval(r)
		}
	}
	if e := c.ElseValue(); e != nil {
		return e.Eval(r)
	}
	return nil
}

// Coalesce returns its first non-NULL argument.
type Coalesce struct {
	Args []Expression
}

func (c *Coalesce) Children() []Expression { return c.Args }
func (c *Coalesce) WithNewChildren(children []Expression) Expression {
	return &Coalesce{Args: children}
}
func (c *Coalesce) DataType() types.DataType { return c.Args[0].DataType() }
func (c *Coalesce) Nullable() bool {
	for _, a := range c.Args {
		if !a.Nullable() {
			return false
		}
	}
	return true
}
func (c *Coalesce) Resolved() bool {
	if !ChildrenResolved(c) || len(c.Args) == 0 {
		return false
	}
	t := c.Args[0].DataType()
	for _, a := range c.Args[1:] {
		if !a.DataType().Equals(t) {
			return false
		}
	}
	return true
}
func (c *Coalesce) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return "coalesce(" + strings.Join(parts, ", ") + ")"
}
func (c *Coalesce) Eval(r row.Row) any {
	for _, a := range c.Args {
		if v := a.Eval(r); v != nil {
			return v
		}
	}
	return nil
}

// GetField extracts a named field from a STRUCT value, supporting the
// nested-path queries of §5.1 (e.g. loc.lat on inferred JSON schemas).
type GetField struct {
	Child     Expression
	FieldName string
}

func (g *GetField) Children() []Expression { return []Expression{g.Child} }
func (g *GetField) WithNewChildren(children []Expression) Expression {
	return &GetField{Child: children[0], FieldName: g.FieldName}
}
func (g *GetField) structType() (types.StructType, bool) {
	st, ok := g.Child.DataType().(types.StructType)
	return st, ok
}
func (g *GetField) DataType() types.DataType {
	st, ok := g.structType()
	if !ok {
		panic(fmt.Sprintf("expr: GetField on non-struct %s", g.Child.DataType().Name()))
	}
	i := st.FieldIndex(g.FieldName)
	if i < 0 {
		panic(fmt.Sprintf("expr: struct has no field %q", g.FieldName))
	}
	return st.Fields[i].Type
}
func (g *GetField) Nullable() bool {
	st, ok := g.structType()
	if !ok {
		return true
	}
	i := st.FieldIndex(g.FieldName)
	return i < 0 || st.Fields[i].Nullable || g.Child.Nullable()
}
func (g *GetField) Resolved() bool {
	if !ChildrenResolved(g) {
		return false
	}
	st, ok := g.structType()
	return ok && st.FieldIndex(g.FieldName) >= 0
}
func (g *GetField) String() string { return fmt.Sprintf("%s.%s", g.Child, g.FieldName) }
func (g *GetField) Eval(r row.Row) any {
	v := g.Child.Eval(r)
	if v == nil {
		return nil
	}
	st, _ := g.structType()
	return v.(row.Row)[st.FieldIndex(g.FieldName)]
}

// GetArrayItem indexes an ARRAY value (0-based); out-of-range yields NULL.
type GetArrayItem struct {
	Child Expression
	Index Expression
}

func (g *GetArrayItem) Children() []Expression { return []Expression{g.Child, g.Index} }
func (g *GetArrayItem) WithNewChildren(children []Expression) Expression {
	return &GetArrayItem{Child: children[0], Index: children[1]}
}
func (g *GetArrayItem) DataType() types.DataType {
	return g.Child.DataType().(types.ArrayType).Elem
}
func (g *GetArrayItem) Nullable() bool { return true }
func (g *GetArrayItem) Resolved() bool {
	if !ChildrenResolved(g) {
		return false
	}
	_, isArr := g.Child.DataType().(types.ArrayType)
	return isArr && types.IsIntegral(g.Index.DataType())
}
func (g *GetArrayItem) String() string { return fmt.Sprintf("%s[%s]", g.Child, g.Index) }
func (g *GetArrayItem) Eval(r row.Row) any {
	v := g.Child.Eval(r)
	if v == nil {
		return nil
	}
	iv := g.Index.Eval(r)
	if iv == nil {
		return nil
	}
	arr := v.([]any)
	i := int(asInt64(iv))
	if i < 0 || i >= len(arr) {
		return nil
	}
	return arr[i]
}

// ArraySize returns the number of elements of an ARRAY value.
type ArraySize struct {
	Child Expression
}

func (a *ArraySize) Children() []Expression { return []Expression{a.Child} }
func (a *ArraySize) WithNewChildren(children []Expression) Expression {
	return &ArraySize{Child: children[0]}
}
func (a *ArraySize) DataType() types.DataType { return types.Int }
func (a *ArraySize) Nullable() bool           { return a.Child.Nullable() }
func (a *ArraySize) Resolved() bool {
	if !ChildrenResolved(a) {
		return false
	}
	_, isArr := a.Child.DataType().(types.ArrayType)
	return isArr
}
func (a *ArraySize) String() string { return fmt.Sprintf("size(%s)", a.Child) }
func (a *ArraySize) Eval(r row.Row) any {
	v := a.Child.Eval(r)
	if v == nil {
		return nil
	}
	return int32(len(v.([]any)))
}
