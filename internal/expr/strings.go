package expr

import (
	"fmt"
	"strings"

	"repro/internal/row"
	"repro/internal/types"
)

// Like is the SQL LIKE predicate with % (any run) and _ (any one char)
// wildcards. The optimizer's SimplifyLike rule rewrites simple patterns
// into StartsWith / EndsWith / Contains / EQ (paper §4.3.2: "a 12-line rule
// optimizes LIKE expressions with simple regular expressions into
// String.startsWith or String.contains calls").
type Like struct {
	Left    Expression
	Pattern Expression
}

func (l *Like) Children() []Expression { return []Expression{l.Left, l.Pattern} }
func (l *Like) WithNewChildren(children []Expression) Expression {
	return &Like{Left: children[0], Pattern: children[1]}
}
func (l *Like) DataType() types.DataType { return types.Boolean }
func (l *Like) Nullable() bool           { return anyNullable(l.Left, l.Pattern) }
func (l *Like) Resolved() bool {
	return ChildrenResolved(l) && l.Left.DataType().Equals(types.String) &&
		l.Pattern.DataType().Equals(types.String)
}
func (l *Like) String() string { return fmt.Sprintf("(%s LIKE %s)", l.Left, l.Pattern) }
func (l *Like) Eval(r row.Row) any {
	s := l.Left.Eval(r)
	if s == nil {
		return nil
	}
	p := l.Pattern.Eval(r)
	if p == nil {
		return nil
	}
	return LikeMatch(s.(string), p.(string))
}

// LikeMatch implements LIKE pattern matching with a two-pointer
// backtracking scan (no regexp compilation per row).
func LikeMatch(s, pattern string) bool {
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// stringUnaryOp factors the boilerplate of one-string-argument functions.
type stringFnKind int

const (
	fnUpper stringFnKind = iota
	fnLower
	fnLength
	fnTrim
)

// StringFn is upper/lower/length/trim over one string operand.
type StringFn struct {
	Kind  stringFnKind
	Child Expression
}

// Upper builds UPPER(child).
func Upper(child Expression) *StringFn { return &StringFn{Kind: fnUpper, Child: child} }

// Lower builds LOWER(child).
func Lower(child Expression) *StringFn { return &StringFn{Kind: fnLower, Child: child} }

// Length builds LENGTH(child).
func Length(child Expression) *StringFn { return &StringFn{Kind: fnLength, Child: child} }

// Trim builds TRIM(child).
func Trim(child Expression) *StringFn { return &StringFn{Kind: fnTrim, Child: child} }

func (f *StringFn) name() string {
	switch f.Kind {
	case fnUpper:
		return "upper"
	case fnLower:
		return "lower"
	case fnLength:
		return "length"
	case fnTrim:
		return "trim"
	}
	return "?"
}

func (f *StringFn) Children() []Expression { return []Expression{f.Child} }
func (f *StringFn) WithNewChildren(children []Expression) Expression {
	return &StringFn{Kind: f.Kind, Child: children[0]}
}
func (f *StringFn) DataType() types.DataType {
	if f.Kind == fnLength {
		return types.Int
	}
	return types.String
}
func (f *StringFn) Nullable() bool { return f.Child.Nullable() }
func (f *StringFn) Resolved() bool {
	return ChildrenResolved(f) && f.Child.DataType().Equals(types.String)
}
func (f *StringFn) String() string { return fmt.Sprintf("%s(%s)", f.name(), f.Child) }
func (f *StringFn) Eval(r row.Row) any {
	v := f.Child.Eval(r)
	if v == nil {
		return nil
	}
	s := v.(string)
	switch f.Kind {
	case fnUpper:
		return strings.ToUpper(s)
	case fnLower:
		return strings.ToLower(s)
	case fnLength:
		return int32(len(s))
	case fnTrim:
		return strings.TrimSpace(s)
	}
	panic("expr: unknown string function")
}

// strMatchKind selects the fast string predicate the LIKE simplification
// produces.
type strMatchKind int

const (
	matchStartsWith strMatchKind = iota
	matchEndsWith
	matchContains
)

// StringMatch is StartsWith / EndsWith / Contains — the compiled-friendly
// targets of the SimplifyLike rule.
type StringMatch struct {
	Kind        strMatchKind
	Left, Right Expression
}

// StartsWith builds startswith(left, right).
func StartsWith(l, r Expression) *StringMatch {
	return &StringMatch{Kind: matchStartsWith, Left: l, Right: r}
}

// EndsWith builds endswith(left, right).
func EndsWith(l, r Expression) *StringMatch {
	return &StringMatch{Kind: matchEndsWith, Left: l, Right: r}
}

// Contains builds contains(left, right).
func Contains(l, r Expression) *StringMatch {
	return &StringMatch{Kind: matchContains, Left: l, Right: r}
}

// IsStartsWith reports whether this match is a prefix test (used by the
// optimizer when deciding pushdown eligibility).
func (m *StringMatch) IsStartsWith() bool { return m.Kind == matchStartsWith }

// IsEndsWith reports whether this match is a suffix test.
func (m *StringMatch) IsEndsWith() bool { return m.Kind == matchEndsWith }

// IsContains reports whether this match is a substring test.
func (m *StringMatch) IsContains() bool { return m.Kind == matchContains }

func (m *StringMatch) name() string {
	switch m.Kind {
	case matchStartsWith:
		return "startswith"
	case matchEndsWith:
		return "endswith"
	case matchContains:
		return "contains"
	}
	return "?"
}

func (m *StringMatch) Children() []Expression { return []Expression{m.Left, m.Right} }
func (m *StringMatch) WithNewChildren(children []Expression) Expression {
	return &StringMatch{Kind: m.Kind, Left: children[0], Right: children[1]}
}
func (m *StringMatch) DataType() types.DataType { return types.Boolean }
func (m *StringMatch) Nullable() bool           { return anyNullable(m.Left, m.Right) }
func (m *StringMatch) Resolved() bool {
	return ChildrenResolved(m) && m.Left.DataType().Equals(types.String) &&
		m.Right.DataType().Equals(types.String)
}
func (m *StringMatch) String() string { return fmt.Sprintf("%s(%s, %s)", m.name(), m.Left, m.Right) }
func (m *StringMatch) Eval(r row.Row) any {
	l := m.Left.Eval(r)
	if l == nil {
		return nil
	}
	rv := m.Right.Eval(r)
	if rv == nil {
		return nil
	}
	return m.Kind.match(l.(string), rv.(string))
}

// match is the kind's test of s against its operand: the one place the three
// evaluators (interpreted, compiled, vectorized) read a kind.
func (k strMatchKind) match(s, sub string) bool {
	switch k {
	case matchStartsWith:
		return strings.HasPrefix(s, sub)
	case matchEndsWith:
		return strings.HasSuffix(s, sub)
	default:
		return strings.Contains(s, sub)
	}
}

// Substring is SUBSTR(str, pos, len) with SQL 1-based positions.
type Substring struct {
	Str, Pos, Len Expression
}

func (s *Substring) Children() []Expression { return []Expression{s.Str, s.Pos, s.Len} }
func (s *Substring) WithNewChildren(children []Expression) Expression {
	return &Substring{Str: children[0], Pos: children[1], Len: children[2]}
}
func (s *Substring) DataType() types.DataType { return types.String }
func (s *Substring) Nullable() bool           { return anyNullable(s.Str, s.Pos, s.Len) }
func (s *Substring) Resolved() bool {
	return ChildrenResolved(s) && s.Str.DataType().Equals(types.String) &&
		types.IsIntegral(s.Pos.DataType()) && types.IsIntegral(s.Len.DataType())
}
func (s *Substring) String() string {
	return fmt.Sprintf("substr(%s, %s, %s)", s.Str, s.Pos, s.Len)
}
func (s *Substring) Eval(r row.Row) any {
	sv := s.Str.Eval(r)
	if sv == nil {
		return nil
	}
	pv := s.Pos.Eval(r)
	lv := s.Len.Eval(r)
	if pv == nil || lv == nil {
		return nil
	}
	return substr(sv.(string), asInt64(pv), asInt64(lv))
}

// substr is SUBSTR's byte-offset slice, shared by the interpreter and the
// vector kernel: positions below 1 clamp to 1, a non-positive length or a
// start past the end yields "", and the end clamps to the string. The result
// aliases s.
func substr(s string, pos, n int64) string {
	if pos < 1 {
		pos = 1
	}
	start := pos - 1
	if start >= int64(len(s)) || n <= 0 {
		return ""
	}
	if n > int64(len(s))-start {
		n = int64(len(s)) - start
	}
	return s[start : start+n]
}

// Concat concatenates string operands; NULL in, NULL out.
type Concat struct {
	Args []Expression
}

func (c *Concat) Children() []Expression { return c.Args }
func (c *Concat) WithNewChildren(children []Expression) Expression {
	return &Concat{Args: children}
}
func (c *Concat) DataType() types.DataType { return types.String }
func (c *Concat) Nullable() bool           { return anyNullable(c.Args...) }
func (c *Concat) Resolved() bool {
	if !ChildrenResolved(c) {
		return false
	}
	for _, a := range c.Args {
		if !a.DataType().Equals(types.String) {
			return false
		}
	}
	return true
}
func (c *Concat) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return "concat(" + strings.Join(parts, ", ") + ")"
}
func (c *Concat) Eval(r row.Row) any {
	var sb strings.Builder
	for _, a := range c.Args {
		v := a.Eval(r)
		if v == nil {
			return nil
		}
		sb.WriteString(v.(string))
	}
	return sb.String()
}

func asInt64(v any) int64 {
	switch x := v.(type) {
	case int32:
		return int64(x)
	case int64:
		return x
	}
	panic(fmt.Sprintf("expr: expected integral value, got %T", v))
}
