package columnar

import (
	"slices"
	"strings"

	"repro/internal/row"
	"repro/internal/types"
)

// buildColumn encodes one column of a batch, choosing the cheapest of the
// candidate encodings for the column's type and value distribution —
// adaptive per batch, like Spark SQL's in-memory columnar builders.
func buildColumn(t types.DataType, values []any) (Column, ColStats) {
	stats := computeStats(t, values)

	switch {
	case t.Equals(types.Boolean):
		return buildBool(values), stats

	case t.Equals(types.Int), t.Equals(types.Long), t.Equals(types.Date), t.Equals(types.Timestamp):
		plain := buildLong(t, values)
		if rle := tryRLE(values); rle != nil && rle.SizeBytes() < plain.SizeBytes() {
			return rle, stats
		}
		if dict := tryDict(values); dict != nil && dict.SizeBytes() < plain.SizeBytes() {
			return dict, stats
		}
		return plain, stats

	case t.Equals(types.Double), t.Equals(types.Float):
		return buildDouble(values), stats

	case t.Equals(types.String):
		plain := buildString(values)
		if rle := tryRLE(values); rle != nil && rle.SizeBytes() < plain.SizeBytes() {
			return rle, stats
		}
		if dict := tryDict(values); dict != nil && dict.SizeBytes() < plain.SizeBytes() {
			return dict, stats
		}
		return plain, stats

	default:
		// Decimals, nested and user types fall back to boxed storage (a copy:
		// the caller reuses values for the batch's next column).
		return &boxedColumn{data: slices.Clone(values)}, stats
	}
}

func computeStats(t types.DataType, values []any) ColStats {
	var s ColStats
	if !types.IsOrdered(t) {
		for _, v := range values {
			if v == nil {
				s.NullCount++
			}
		}
		return s
	}
	for _, v := range values {
		if v == nil {
			s.NullCount++
			continue
		}
		if s.Min == nil || row.Compare(v, s.Min) < 0 {
			s.Min = v
		}
		if s.Max == nil || row.Compare(v, s.Max) > 0 {
			s.Max = v
		}
	}
	return s
}

func buildValidity(values []any) validity {
	var v validity
	for i, x := range values {
		if x == nil {
			if v == nil {
				v = newValidity(len(values))
				for j := 0; j < i; j++ {
					v.set(j)
				}
			}
			continue
		}
		if v != nil {
			v.set(i)
		}
	}
	return v
}

func buildBool(values []any) Column {
	c := &boolColumn{bits: make([]uint64, (len(values)+63)/64), n: len(values), valid: buildValidity(values)}
	for i, v := range values {
		if v == true {
			c.bits[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return c
}

func buildLong(t types.DataType, values []any) Column {
	c := &longColumn{
		data:  make([]int64, len(values)),
		valid: buildValidity(values),
		width: typeWidth(t),
		out:   outConv(t),
	}
	for i, v := range values {
		switch x := v.(type) {
		case int32:
			c.data[i] = int64(x)
		case int64:
			c.data[i] = x
		case nil:
		default:
			panic(fmtEncodingError(t, v))
		}
	}
	return c
}

func buildDouble(values []any) Column {
	c := &doubleColumn{data: make([]float64, len(values)), valid: buildValidity(values)}
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			c.data[i] = x
		case float32:
			c.data[i] = float64(x)
		case nil:
		default:
			panic(fmtEncodingError(types.Double, v))
		}
	}
	return c
}

func buildString(values []any) Column {
	c := &stringColumn{offsets: make([]int32, 1, len(values)+1), valid: buildValidity(values)}
	size := 0
	for _, v := range values {
		if s, ok := v.(string); ok {
			size += len(s)
		}
	}
	var data strings.Builder
	data.Grow(size)
	for _, v := range values {
		if s, ok := v.(string); ok {
			data.WriteString(s)
		}
		c.offsets = append(c.offsets, int32(data.Len()))
	}
	c.data = data.String()
	return c
}

// tryRLE builds a run-length column; it returns nil when runs don't
// compress (more than half as many runs as rows).
func tryRLE(values []any) Column {
	if len(values) == 0 {
		return nil
	}
	c := &rleColumn{}
	for i, v := range values {
		if i > 0 && row.Equal(v, c.values[len(c.values)-1]) {
			c.ends[len(c.ends)-1] = int32(i + 1)
			continue
		}
		c.values = append(c.values, v)
		c.ends = append(c.ends, int32(i+1))
		c.bytes += row.FlatSize(v)
	}
	if len(c.values)*2 > len(values) {
		return nil
	}
	return c
}

// tryDict builds a dictionary column; it returns nil when the column has
// too many distinct values to benefit.
func tryDict(values []any) Column {
	if len(values) == 0 {
		return nil
	}
	maxDict := len(values)/2 + 1
	index := make(map[string]int32, 64)
	c := &dictColumn{codes: make([]int32, len(values))}
	for i, v := range values {
		if v == nil {
			c.codes[i] = -1
			continue
		}
		key := row.GroupKey(row.New(v), []int{0})
		code, ok := index[key]
		if !ok {
			if len(c.dict) >= maxDict {
				return nil
			}
			code = int32(len(c.dict))
			c.dict = append(c.dict, v)
			c.dictBytes += row.FlatSize(v)
			index[key] = code
		}
		c.codes[i] = code
	}
	return c
}
