package expr

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/row"
	"repro/internal/types"
)

// Cast converts a value to a target type. The analyzer inserts casts during
// type coercion (paper §4.3.1: "propagating and coercing types through
// expressions"); users can also cast explicitly. Invalid string-to-number
// casts produce NULL (Spark SQL non-ANSI behaviour).
type Cast struct {
	Child Expression
	To    types.DataType
}

// NewCast builds CAST(child AS to).
func NewCast(child Expression, to types.DataType) *Cast {
	return &Cast{Child: child, To: to}
}

func (c *Cast) Children() []Expression { return []Expression{c.Child} }
func (c *Cast) WithNewChildren(children []Expression) Expression {
	return &Cast{Child: children[0], To: c.To}
}
func (c *Cast) DataType() types.DataType { return c.To }
func (c *Cast) Nullable() bool {
	// String→number casts can fail to NULL.
	if c.Resolved() && c.Child.DataType().Equals(types.String) && !c.To.Equals(types.String) {
		return true
	}
	return c.Child.Nullable()
}
func (c *Cast) Resolved() bool { return ChildrenResolved(c) }
func (c *Cast) String() string { return fmt.Sprintf("CAST(%s AS %s)", c.Child, c.To.Name()) }
func (c *Cast) Eval(r row.Row) any {
	v := c.Child.Eval(r)
	if v == nil {
		return nil
	}
	return CastValue(v, c.To)
}

// CastValue converts a single non-NULL value to the target type, returning
// nil when the conversion is impossible (e.g. non-numeric string to INT).
func CastValue(v any, to types.DataType) any {
	switch {
	case to.Equals(types.String):
		return toStringValue(v)
	case to.Equals(types.Int):
		if f, ok := toFloat(v); ok {
			return int32(f)
		}
	case to.Equals(types.Long):
		if f, ok := toFloat(v); ok {
			return int64(f)
		}
	case to.Equals(types.Float):
		if f, ok := toFloat(v); ok {
			return float32(f)
		}
	case to.Equals(types.Double):
		if f, ok := toFloat(v); ok {
			return f
		}
	case to.Equals(types.Boolean):
		switch x := v.(type) {
		case bool:
			return x
		case string:
			switch strings.ToLower(strings.TrimSpace(x)) {
			case "true", "1", "t", "yes":
				return true
			case "false", "0", "f", "no":
				return false
			}
			return nil
		}
	case to.Equals(types.Date):
		switch x := v.(type) {
		case int32:
			return x
		case string:
			if d, ok := parseDateDays(x); ok {
				return d
			}
			return nil
		}
	case to.Equals(types.Timestamp):
		switch x := v.(type) {
		case int64:
			return x
		case int32: // date → timestamp at midnight UTC
			return int64(x) * 86400 * 1e6
		}
	default:
		if dt, ok := to.(types.DecimalType); ok {
			return toDecimal(v, dt)
		}
	}
	return nil
}

func toStringValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case types.Decimal:
		return x.String()
	default:
		return fmt.Sprint(v)
	}
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	case float32:
		return float64(x), true
	case float64:
		return x, true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	case types.Decimal:
		return x.Float64(), true
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	}
	return 0, false
}

func toDecimal(v any, dt types.DecimalType) any {
	switch x := v.(type) {
	case types.Decimal:
		return x.Rescale(dt.Scale)
	case int32:
		return types.Decimal{Unscaled: int64(x), Scale: 0}.Rescale(dt.Scale)
	case int64:
		return types.Decimal{Unscaled: x, Scale: 0}.Rescale(dt.Scale)
	case float32:
		return floatToDecimal(float64(x), dt.Scale)
	case float64:
		return floatToDecimal(x, dt.Scale)
	case string:
		d, err := types.ParseDecimal(strings.TrimSpace(x))
		if err != nil {
			return nil
		}
		return d.Rescale(dt.Scale)
	}
	return nil
}

func floatToDecimal(f float64, scale int) types.Decimal {
	p := 1.0
	for i := 0; i < scale; i++ {
		p *= 10
	}
	u := int64(f*p + copysignHalf(f))
	return types.Decimal{Unscaled: u, Scale: scale}
}

func copysignHalf(f float64) float64 {
	if f < 0 {
		return -0.5
	}
	return 0.5
}

// parseDateDays parses "YYYY-MM-DD" into days since the Unix epoch.
func parseDateDays(s string) (int32, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) != 3 {
		return 0, false
	}
	y, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	d, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, false
	}
	return int32(civilToDays(y, m, d)), true
}

// civilToDays converts a proleptic Gregorian date to days since 1970-01-01
// (Howard Hinnant's algorithm).
func civilToDays(y, m, d int) int64 {
	if m <= 2 {
		y--
	}
	era := y / 400
	if y < 0 && y%400 != 0 {
		era--
	}
	yoe := y - era*400
	var mp int
	if m > 2 {
		mp = m - 3
	} else {
		mp = m + 9
	}
	doy := (153*mp+2)/5 + d - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return int64(era)*146097 + int64(doe) - 719468
}

// DaysToCivil converts days since the Unix epoch back to (year, month, day).
func DaysToCivil(days int32) (y, m, d int) {
	z := int64(days) + 719468
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	yy := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d = int(doy - (153*mp+2)/5 + 1)
	if mp < 10 {
		m = int(mp + 3)
	} else {
		m = int(mp - 9)
	}
	if m <= 2 {
		yy++
	}
	return int(yy), m, d
}

// FormatDate renders days-since-epoch as "YYYY-MM-DD".
func FormatDate(days int32) string {
	y, m, d := DaysToCivil(days)
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// DatePart extracts year/month/day from a DATE value.
type DatePart struct {
	// Part is 0=year, 1=month, 2=day.
	Part  int
	Child Expression
}

// Year builds YEAR(child).
func Year(child Expression) *DatePart { return &DatePart{Part: 0, Child: child} }

// Month builds MONTH(child).
func Month(child Expression) *DatePart { return &DatePart{Part: 1, Child: child} }

// Day builds DAY(child).
func Day(child Expression) *DatePart { return &DatePart{Part: 2, Child: child} }

func (d *DatePart) name() string { return [...]string{"year", "month", "day"}[d.Part] }

func (d *DatePart) Children() []Expression { return []Expression{d.Child} }
func (d *DatePart) WithNewChildren(children []Expression) Expression {
	return &DatePart{Part: d.Part, Child: children[0]}
}
func (d *DatePart) DataType() types.DataType { return types.Int }
func (d *DatePart) Nullable() bool           { return d.Child.Nullable() }
func (d *DatePart) Resolved() bool {
	return ChildrenResolved(d) && d.Child.DataType().Equals(types.Date)
}
func (d *DatePart) String() string { return fmt.Sprintf("%s(%s)", d.name(), d.Child) }
func (d *DatePart) Eval(r row.Row) any {
	v := d.Child.Eval(r)
	if v == nil {
		return nil
	}
	y, m, day := DaysToCivil(v.(int32))
	switch d.Part {
	case 0:
		return int32(y)
	case 1:
		return int32(m)
	default:
		return int32(day)
	}
}
