// Package types implements the Spark SQL data model (paper §3.2): a nested
// type system based on Hive's, with all major SQL atomic types plus complex
// types (structs, arrays, maps) that can be nested arbitrarily, and
// user-defined types (paper §4.4.2) that map onto built-in structures.
package types

import (
	"fmt"
	"strings"
)

// DataType is the interface implemented by every Spark SQL type object.
// Type objects are immutable; atomic types are singletons (Boolean, Int,
// ...), while parameterized types (Decimal, Array, Map, Struct) are values
// compared structurally with Equals.
type DataType interface {
	// Name returns the SQL-ish name of the type, e.g. "INT" or
	// "ARRAY<STRING>".
	Name() string
	// Equals reports whether two type objects denote the same type.
	Equals(other DataType) bool
}

// NumericType is implemented by types that participate in arithmetic and in
// numeric widening.
type NumericType interface {
	DataType
	// widerThan orders numeric types for implicit widening; a larger rank
	// absorbs a smaller one (Int -> Long -> Decimal -> Float -> Double,
	// mirroring Hive/Spark SQL numeric precedence).
	numericRank() int
}

// atomic is the common implementation for parameterless types.
type atomic struct {
	name string
	rank int // numeric rank; 0 for non-numeric
}

func (a atomic) Name() string { return a.name }
func (a atomic) Equals(other DataType) bool {
	o, ok := other.(atomic)
	return ok && o.name == a.name
}
func (a atomic) numericRank() int { return a.rank }
func (a atomic) String() string   { return a.name }

// The atomic type singletons.
var (
	Null      DataType = atomic{name: "NULL"}
	Boolean   DataType = atomic{name: "BOOLEAN"}
	Int       DataType = atomic{name: "INT", rank: 1}
	Long      DataType = atomic{name: "BIGINT", rank: 2}
	Float     DataType = atomic{name: "FLOAT", rank: 4}
	Double    DataType = atomic{name: "DOUBLE", rank: 5}
	String    DataType = atomic{name: "STRING"}
	Binary    DataType = atomic{name: "BINARY"}
	Date      DataType = atomic{name: "DATE"}      // days since Unix epoch, int32
	Timestamp DataType = atomic{name: "TIMESTAMP"} // microseconds since Unix epoch, int64
)

// typeAliases are the spellings ParseName accepts beside Name()'s own.
var typeAliases = map[string]DataType{
	"INTEGER": Int, "LONG": Long, "VARCHAR": String, "TEXT": String, "BOOL": Boolean,
}

// ParseName is the inverse of DataType.Name for the atomic types and
// DECIMAL(p,s) — every type a schema can be written down with, in a WAL
// record, a wire frame, a CSV schema option or a SQL column definition — plus
// a few common aliases. Callers narrow the result to what they store or ship.
func ParseName(name string) (DataType, bool) {
	for _, t := range []DataType{Null, Boolean, Int, Long, Float, Double, String, Binary, Date, Timestamp} {
		if t.Name() == name {
			return t, true
		}
	}
	if t, ok := typeAliases[name]; ok {
		return t, true
	}
	var d DecimalType
	if n, err := fmt.Sscanf(name, "DECIMAL(%d,%d)", &d.Precision, &d.Scale); err == nil && n == 2 && d.Name() == name {
		return d, true
	}
	return nil, false
}

// DecimalType is a fixed-precision decimal. Values are represented as
// Decimal structs holding an unscaled int64 (the paper's DecimalAggregates
// rule, §4.3.2, depends on small-precision decimals fitting in a LONG).
type DecimalType struct {
	Precision int
	Scale     int
}

// MaxLongDigits is the maximum number of decimal digits representable in an
// int64 unscaled value; the DecimalAggregates optimization applies only when
// prec+10 stays within this bound (paper §4.3.2).
const MaxLongDigits = 18

func (d DecimalType) Name() string { return fmt.Sprintf("DECIMAL(%d,%d)", d.Precision, d.Scale) }
func (d DecimalType) Equals(other DataType) bool {
	o, ok := other.(DecimalType)
	return ok && o == d
}
func (d DecimalType) numericRank() int { return 3 }
func (d DecimalType) String() string   { return d.Name() }

var _ NumericType = DecimalType{}

// ArrayType is a sequence of elements of a single type.
type ArrayType struct {
	Elem         DataType
	ContainsNull bool
}

func (a ArrayType) Name() string {
	if a.ContainsNull {
		return fmt.Sprintf("ARRAY<%s>", a.Elem.Name())
	}
	return fmt.Sprintf("ARRAY<%s NOT NULL>", a.Elem.Name())
}
func (a ArrayType) Equals(other DataType) bool {
	o, ok := other.(ArrayType)
	return ok && o.ContainsNull == a.ContainsNull && o.Elem.Equals(a.Elem)
}
func (a ArrayType) String() string { return a.Name() }

// MapType maps keys of one type to values of another.
type MapType struct {
	Key               DataType
	Value             DataType
	ValueContainsNull bool
}

func (m MapType) Name() string {
	return fmt.Sprintf("MAP<%s,%s>", m.Key.Name(), m.Value.Name())
}
func (m MapType) Equals(other DataType) bool {
	o, ok := other.(MapType)
	return ok && o.ValueContainsNull == m.ValueContainsNull &&
		o.Key.Equals(m.Key) && o.Value.Equals(m.Value)
}
func (m MapType) String() string { return m.Name() }

// StructField is a named, typed, possibly-nullable field of a StructType.
type StructField struct {
	Name     string
	Type     DataType
	Nullable bool
}

func (f StructField) String() string {
	s := fmt.Sprintf("%s %s", f.Name, f.Type.Name())
	if !f.Nullable {
		s += " NOT NULL"
	}
	return s
}

// StructType is an ordered collection of StructFields. It doubles as the
// schema of a DataFrame / relation.
type StructType struct {
	Fields []StructField
}

// NewStruct builds a StructType from fields.
func NewStruct(fields ...StructField) StructType { return StructType{Fields: fields} }

func (s StructType) Name() string {
	parts := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		parts[i] = f.String()
	}
	return "STRUCT<" + strings.Join(parts, ", ") + ">"
}

func (s StructType) Equals(other DataType) bool {
	o, ok := other.(StructType)
	if !ok || len(o.Fields) != len(s.Fields) {
		return false
	}
	for i, f := range s.Fields {
		g := o.Fields[i]
		if g.Name != f.Name || g.Nullable != f.Nullable || !g.Type.Equals(f.Type) {
			return false
		}
	}
	return true
}

func (s StructType) String() string { return s.Name() }

// FieldIndex returns the ordinal of the named field, or -1 if absent.
// Matching is case-insensitive, following Spark SQL's default resolution.
func (s StructType) FieldIndex(name string) int {
	for i, f := range s.Fields {
		if strings.EqualFold(f.Name, name) {
			return i
		}
	}
	return -1
}

// FieldNames returns the field names in order.
func (s StructType) FieldNames() []string {
	names := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		names[i] = f.Name
	}
	return names
}

// Add returns a copy of s with an extra field appended.
func (s StructType) Add(name string, t DataType, nullable bool) StructType {
	fields := make([]StructField, len(s.Fields), len(s.Fields)+1)
	copy(fields, s.Fields)
	return StructType{Fields: append(fields, StructField{Name: name, Type: t, Nullable: nullable})}
}

// IsNumeric reports whether t participates in arithmetic. (Every atomic
// type carries a rank field, so the check must look at the rank, not just
// the interface.)
func IsNumeric(t DataType) bool {
	n, ok := t.(NumericType)
	return ok && n.numericRank() > 0
}

// IsIntegral reports whether t is an integer type.
func IsIntegral(t DataType) bool { return t.Equals(Int) || t.Equals(Long) }

// IsAtomic reports whether t is a non-nested type.
func IsAtomic(t DataType) bool {
	switch t.(type) {
	case atomic, DecimalType:
		return true
	}
	return false
}

// IsOrdered reports whether values of t can be compared with < (used by
// sort orders and comparison operators).
func IsOrdered(t DataType) bool {
	if IsNumeric(t) {
		return true
	}
	return t.Equals(String) || t.Equals(Date) || t.Equals(Timestamp) || t.Equals(Boolean)
}
