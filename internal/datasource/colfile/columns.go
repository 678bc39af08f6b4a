package colfile

import (
	"fmt"

	"repro/internal/types"
)

// Typed whole-column readers. These are the access path a hand-written
// native engine (the evaluation's Impala stand-in) uses: decode one column
// across all row groups into a typed slice, paying decode cost per query
// like any engine reading a columnar file, but with no per-row boxing. They
// run the same per-type chunk decoders as the scans.

// Int32Column decodes an INT/DATE column. valid[i] is false for NULL.
func (rel *Relation) Int32Column(name string) (values []int32, valid []bool, err error) {
	return readColumn(rel, name, "INT/DATE", decodeI32[int32], types.Int, types.Date)
}

// Float64Column decodes a DOUBLE column.
func (rel *Relation) Float64Column(name string) (values []float64, valid []bool, err error) {
	return readColumn(rel, name, "DOUBLE", decodeF64, types.Double)
}

// StringColumn decodes a STRING column; NULLs decode as "". The strings
// alias the file image (see the package comment).
func (rel *Relation) StringColumn(name string) (values []string, valid []bool, err error) {
	return readColumn(rel, name, "STRING", decodeStr, types.String)
}

// readColumn runs one chunk decoder over every row group of the named
// column, which must have one of the accepted types.
func readColumn[T any](rel *Relation, name, want string, decode func(c *chunk, n int, sel []int32, dst []T),
	accept ...types.DataType) ([]T, []bool, error) {
	j := rel.schema.FieldIndex(name)
	if j < 0 {
		return nil, nil, fmt.Errorf("colfile: unknown column %q", name)
	}
	t := rel.schema.Fields[j].Type
	ok := false
	for _, a := range accept {
		ok = ok || t.Equals(a)
	}
	if !ok {
		return nil, nil, fmt.Errorf("colfile: column %q is %s, not %s", name, t.Name(), want)
	}
	total := 0
	for i := range rel.groups {
		total += rel.groups[i].numRows
	}
	values, valid := make([]T, total), make([]bool, total)
	at := 0
	for i := range rel.groups {
		g := &rel.groups[i]
		c := &g.chunks[j]
		decode(c, g.numRows, nil, values[at:at+g.numRows])
		for r := range valid[at : at+g.numRows] {
			valid[at+r] = c.valid(r)
		}
		at += g.numRows
	}
	return values, valid, nil
}
