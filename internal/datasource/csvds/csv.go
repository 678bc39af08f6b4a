// Package csvds is the CSV data source (paper §4.4.1: "CSV files, which
// simply scan the whole file, but allow users to specify a schema"). It
// supports an explicit schema option or header-based inference, and
// implements PrunedScan so only requested columns are converted.
package csvds

import (
	"encoding/csv"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/datasource"
	"repro/internal/row"
	"repro/internal/types"
)

// Provider returns the csv relation provider. Options:
//
//	path   (required) file path
//	header "true"/"false" — first row is column names (default true)
//	schema optional "name TYPE, name TYPE" declaration
//	delimiter optional single character (default ",")
func Provider() datasource.Provider {
	return datasource.ProviderFunc(func(options map[string]string) (datasource.Relation, error) {
		path := options["path"]
		if path == "" {
			return nil, fmt.Errorf("csv: missing required option 'path'")
		}
		return Open(path, options)
	})
}

// Relation is an opened CSV file.
type Relation struct {
	path    string
	schema  types.StructType
	records [][]string // data records (header stripped)
	size    int64
}

var _ datasource.PrunedScan = (*Relation)(nil)
var _ datasource.SizedRelation = (*Relation)(nil)

// Open reads and parses the file eagerly (CSV files are the small end of
// the source spectrum; the columnar format handles big data).
func Open(path string, options map[string]string) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("csv: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("csv: %w", err)
	}
	r := csv.NewReader(f)
	if d := options["delimiter"]; d != "" {
		r.Comma = rune(d[0])
	}
	r.FieldsPerRecord = -1
	all, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("csv: parsing %s: %w", path, err)
	}
	header := options["header"] != "false"

	var names []string
	records := all
	if header && len(all) > 0 {
		names = all[0]
		records = all[1:]
	}

	var schema types.StructType
	if s := options["schema"]; s != "" {
		schema, err = ParseSchema(s)
		if err != nil {
			return nil, err
		}
	} else {
		if names == nil {
			if len(all) == 0 {
				return nil, fmt.Errorf("csv: empty file and no schema given")
			}
			names = make([]string, len(all[0]))
			for i := range names {
				names[i] = fmt.Sprintf("_c%d", i)
			}
		}
		schema = inferSchema(names, records)
	}
	return &Relation{path: path, schema: schema, records: records, size: st.Size()}, nil
}

// Schema implements datasource.Relation.
func (r *Relation) Schema() types.StructType { return r.schema }

// SizeInBytes implements datasource.SizedRelation.
func (r *Relation) SizeInBytes() int64 { return r.size }

// ScanAll implements datasource.TableScan.
func (r *Relation) ScanAll() (datasource.Scan, error) {
	return r.ScanPruned(r.schema.FieldNames())
}

// ScanPruned implements datasource.PrunedScan: only the requested columns
// are converted from text.
func (r *Relation) ScanPruned(columns []string) (datasource.Scan, error) {
	ords := make([]int, len(columns))
	fields := make([]types.StructField, len(columns))
	for i, c := range columns {
		j := r.schema.FieldIndex(c)
		if j < 0 {
			return datasource.Scan{}, fmt.Errorf("csv: unknown column %q", c)
		}
		ords[i] = j
		fields[i] = r.schema.Fields[j]
	}
	records := r.records
	numPart := 4
	if len(records) < numPart {
		numPart = 1
	}
	return datasource.Scan{
		NumPartitions: numPart,
		Partition: func(p int) []row.Row {
			lo := len(records) * p / numPart
			hi := len(records) * (p + 1) / numPart
			out := make([]row.Row, 0, hi-lo)
			for _, rec := range records[lo:hi] {
				rr := make(row.Row, len(ords))
				for i, j := range ords {
					if j < len(rec) {
						rr[i] = convert(rec[j], fields[i].Type)
					}
				}
				out = append(out, rr)
			}
			return out
		},
	}, nil
}

// convert parses one CSV cell; empty cells and failed parses become NULL.
func convert(s string, t types.DataType) any {
	if s == "" {
		return nil
	}
	switch {
	case t.Equals(types.String):
		return s
	case t.Equals(types.Int):
		if v, err := strconv.ParseInt(s, 10, 32); err == nil {
			return int32(v)
		}
	case t.Equals(types.Long):
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	case t.Equals(types.Double):
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return v
		}
	case t.Equals(types.Float):
		if v, err := strconv.ParseFloat(s, 32); err == nil {
			return float32(v)
		}
	case t.Equals(types.Boolean):
		if v, err := strconv.ParseBool(strings.ToLower(s)); err == nil {
			return v
		}
	case t.Equals(types.Date):
		// Reuse the cast-layer date parsing via a lightweight local parse.
		if d, ok := parseDate(s); ok {
			return d
		}
	default:
		if dt, ok := t.(types.DecimalType); ok {
			if d, err := types.ParseDecimal(s); err == nil {
				return d.Rescale(dt.Scale)
			}
		}
	}
	return nil
}

func parseDate(s string) (int32, bool) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return 0, false
	}
	y, e1 := strconv.Atoi(parts[0])
	m, e2 := strconv.Atoi(parts[1])
	d, e3 := strconv.Atoi(parts[2])
	if e1 != nil || e2 != nil || e3 != nil {
		return 0, false
	}
	// Days since epoch via the civil-days algorithm.
	yy := y
	if m <= 2 {
		yy--
	}
	era := yy / 400
	if yy < 0 && yy%400 != 0 {
		era--
	}
	yoe := yy - era*400
	mp := m + 9
	if m > 2 {
		mp = m - 3
	}
	doy := (153*mp+2)/5 + d - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return int32(era*146097 + doe - 719468), true
}

// ParseSchema parses "name TYPE, name TYPE" declarations.
func ParseSchema(s string) (types.StructType, error) {
	var schema types.StructType
	for _, part := range strings.Split(s, ",") {
		fields := strings.Fields(strings.TrimSpace(part))
		if len(fields) < 2 {
			return types.StructType{}, fmt.Errorf("csv: invalid schema fragment %q", part)
		}
		// The types a cell can be parsed into: no DECIMAL, NULL or BINARY.
		name := strings.ToUpper(fields[1])
		t, ok := types.ParseName(name)
		if _, decimal := t.(types.DecimalType); !ok || decimal || t.Equals(types.Null) || t.Equals(types.Binary) {
			return types.StructType{}, fmt.Errorf("csv: unknown type %q in schema", name)
		}
		schema = schema.Add(fields[0], t, true)
	}
	return schema, nil
}

// inferSchema guesses column types from the data: INT widening to BIGINT
// widening to DOUBLE, with STRING as the fallback (a simplified version of
// the §5.1 most-specific-supertype merge).
func inferSchema(names []string, records [][]string) types.StructType {
	var schema types.StructType
	for i, name := range names {
		t := types.Null
		for _, rec := range records {
			if i >= len(rec) || rec[i] == "" {
				continue
			}
			t = types.MostSpecificSupertype(t, cellType(rec[i]))
		}
		if t.Equals(types.Null) {
			t = types.String
		}
		schema = schema.Add(name, t, true)
	}
	return schema
}

func cellType(s string) types.DataType {
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		if v >= -2147483648 && v <= 2147483647 {
			return types.Int
		}
		return types.Long
	}
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return types.Double
	}
	if _, err := strconv.ParseBool(strings.ToLower(s)); err == nil {
		return types.Boolean
	}
	return types.String
}
