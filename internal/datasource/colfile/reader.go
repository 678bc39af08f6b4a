package colfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"os"
	"slices"
	"unsafe"

	"repro/internal/columnar"
	"repro/internal/datasource"
	"repro/internal/expr"
	"repro/internal/types"
)

// Provider returns the colfile relation provider. Options:
//
//	path (required) file path
func Provider() datasource.Provider {
	return datasource.ProviderFunc(func(options map[string]string) (datasource.Relation, error) {
		path := options["path"]
		if path == "" {
			return nil, fmt.Errorf("colfile: missing required option 'path'")
		}
		return Open(path)
	})
}

// chunk locates one column of one row group within the file image.
type chunk struct {
	mn, mx any
	// bitmap has bit i set when row i is non-NULL; data holds the nonNull
	// stored values back to back.
	bitmap  []byte
	data    []byte
	nonNull int
}

// rowGroup holds per-column chunks.
type rowGroup struct {
	numRows int
	chunks  []chunk
}

// Relation is an opened columnar file.
type Relation struct {
	path   string
	schema types.StructType
	groups []rowGroup
	size   int64
	// groupBytes is each row group's stored size (bitmaps and value blocks).
	// Shared and read-only.
	groupBytes []int64
	// identity is 0, 1, 2, ... up to the largest group's row count: the
	// selection every batch starts from. Shared and read-only.
	identity []int32
}

var (
	_ datasource.ColumnarScan       = (*Relation)(nil)
	_ datasource.PrunedFilteredScan = (*Relation)(nil)
	_ datasource.ExactFilterScan    = (*Relation)(nil)
	_ datasource.SizedRelation      = (*Relation)(nil)
)

// Open reads the whole file into memory and indexes its row groups and
// chunks. The file is input from outside the process: every count in it is
// checked against the bytes that remain before anything is sized by it.
func Open(path string) (*Relation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("colfile: %w", err)
	}
	return openImage(path, data)
}

// openImage indexes a file image. The Relation keeps data and never writes
// to it.
func openImage(path string, data []byte) (*Relation, error) {
	r := &reader{data: data}
	if m := r.bytes(4); m == nil || [4]byte(m) != magic {
		return nil, fmt.Errorf("colfile: %s is not a columnar file", path)
	}
	corrupt := func(err error) (*Relation, error) {
		return nil, fmt.Errorf("colfile: corrupt file %s: %w", path, err)
	}
	// A field is at least a name length, a type tag and a nullable flag.
	nFields, ok := r.count(6)
	if !ok {
		return corrupt(r.err)
	}
	var schema types.StructType
	for i := 0; i < nFields; i++ {
		name := r.str()
		t, err := typeOf(r.byte())
		if r.err != nil {
			return corrupt(r.err)
		}
		if err != nil {
			return corrupt(err)
		}
		schema = schema.Add(name, t, r.byte() == 1)
	}
	// A row group is at least its row count.
	nGroups, ok := r.count(4)
	if !ok {
		return corrupt(r.err)
	}
	rel := &Relation{path: path, schema: schema, size: int64(len(data)), groups: make([]rowGroup, 0, nGroups)}
	for g := 0; g < nGroups; g++ {
		numRows := int(r.u32())
		// A chunk is at least its bitmap and two statistics flags; rows
		// without columns would occupy no bytes at all.
		perChunk := (numRows+7)/8 + 2
		if r.err == nil && (nFields == 0 && numRows > 0 || nFields*perChunk > r.remaining()) {
			r.err = fmt.Errorf("row group %d claims %d rows of %d columns with %d bytes left", g, numRows, nFields, r.remaining())
		}
		if r.err != nil {
			return corrupt(r.err)
		}
		rg := rowGroup{numRows: numRows, chunks: make([]chunk, nFields)}
		var stored int64
		for j := range rg.chunks {
			t := schema.Fields[j].Type
			c := chunk{bitmap: r.bytes((numRows + 7) / 8)}
			c.nonNull = countValid(c.bitmap, numRows)
			if r.byte() == 1 {
				c.mn = r.value(t)
			}
			if r.byte() == 1 {
				c.mx = r.value(t)
			}
			c.data = r.valueBlock(t, c.nonNull)
			if r.err != nil {
				return corrupt(r.err)
			}
			rg.chunks[j] = c
			stored += int64(len(c.bitmap) + len(c.data))
		}
		rel.groups = append(rel.groups, rg)
		rel.groupBytes = append(rel.groupBytes, stored)
		for i := len(rel.identity); i < numRows; i++ {
			rel.identity = append(rel.identity, int32(i))
		}
	}
	return rel, nil
}

// countValid counts the set bits among the first n of a validity bitmap.
func countValid(bitmap []byte, n int) int {
	if len(bitmap) == 0 {
		return 0
	}
	total := 0
	for _, b := range bitmap[:n/8] {
		total += bits.OnesCount8(b)
	}
	if rest := n % 8; rest > 0 {
		total += bits.OnesCount8(bitmap[n/8] & (1<<rest - 1))
	}
	return total
}

// Schema implements datasource.Relation.
func (rel *Relation) Schema() types.StructType { return rel.schema }

// SizeInBytes implements datasource.SizedRelation.
func (rel *Relation) SizeInBytes() int64 { return rel.size }

// HandledFilters implements datasource.ExactFilterScan: every filter in the
// simple algebra is evaluated exactly.
func (rel *Relation) HandledFilters(filters []datasource.Filter) []datasource.Filter {
	return filters
}

// NumRowGroups reports the group count (tests).
func (rel *Relation) NumRowGroups() int { return len(rel.groups) }

// ScanPrunedFiltered implements datasource.PrunedFilteredScan: the batch
// scan, with the surviving rows boxed.
func (rel *Relation) ScanPrunedFiltered(columns []string, filters []datasource.Filter) (datasource.Scan, error) {
	batches, err := rel.ScanColumnar(columns, filters)
	if err != nil {
		return datasource.Scan{}, err
	}
	return batches.Rows(), nil
}

// ScanColumnar implements datasource.ColumnarScan. Each row group is one
// partition and one batch. A group whose statistics rule the filters out is
// skipped. Otherwise the columns the filters name are decoded whole into
// typed lanes, the filters narrow a selection vector over those lanes, and
// every other requested column is decoded at the selected positions only.
func (rel *Relation) ScanColumnar(columns []string, filters []datasource.Filter) (datasource.BatchScan, error) {
	// decode lists the schema ordinal behind each batch position: the
	// requested columns first, then the columns only filters read.
	decode := make([]int, len(columns))
	for i, c := range columns {
		if decode[i] = rel.schema.FieldIndex(c); decode[i] < 0 {
			return datasource.BatchScan{}, fmt.Errorf("colfile: unknown column %q", c)
		}
	}
	filterOrds := make([]int, len(filters))
	filtered := make([]bool, len(decode), len(decode)+len(filters))
	preds := make([]expr.VecPred, len(filters))
	for i, f := range filters {
		j := rel.schema.FieldIndex(f.Attribute())
		if j < 0 {
			return datasource.BatchScan{}, fmt.Errorf("colfile: filter on unknown column %q", f.Attribute())
		}
		filterOrds[i] = j
		pos := slices.Index(decode, j)
		if pos < 0 {
			pos = len(decode)
			decode, filtered = append(decode, j), append(filtered, false)
		}
		filtered[pos] = true
		bound, err := datasource.BindFilter(f, pos, rel.schema.Fields[j].Type)
		if err != nil {
			return datasource.BatchScan{}, err
		}
		preds[i], _ = expr.CompileVecPredicate(bound)
	}

	return datasource.BatchScan{
		NumPartitions:  len(rel.groups),
		PartitionBytes: rel.groupBytes,
		Partition: func(p int) ([]datasource.Batch, datasource.BatchStats) {
			g := &rel.groups[p]
			for i, f := range filters { // min/max skipping, per chunk
				if c := &g.chunks[filterOrds[i]]; !datasource.MayMatch(f, c.mn, c.mx) {
					return nil, datasource.BatchStats{GroupsSkipped: 1}
				}
			}
			n := g.numRows
			batch := expr.VecBatch{Cols: make([]*columnar.Vector, len(decode)), N: n}
			for pos, j := range decode {
				if filtered[pos] {
					batch.Cols[pos] = rel.decodeChunk(g, j, nil)
				}
			}
			sel := rel.identity[:n:n]
			for _, pred := range preds {
				if sel = pred(&batch, sel); len(sel) == 0 {
					break
				}
			}
			at := sel
			if len(sel) == n {
				at = nil // every row survives: the dense decoders apply
			}
			if len(sel) > 0 {
				for pos, j := range decode[:len(columns)] {
					if !filtered[pos] {
						batch.Cols[pos] = rel.decodeChunk(g, j, at)
					}
				}
			}
			return []datasource.Batch{{Cols: batch.Cols[:len(columns)], N: n, Sel: sel}},
				datasource.BatchStats{RowsPruned: n - len(sel)}
		},
	}, nil
}

// ---------------------------------------------------------------------------
// Chunk decoders: one per physical type, shared by the batch scan (and the
// row scan built on it) and the typed whole-column readers.

// decodeChunk decodes column j of group g into a typed vector of the
// group's length: at the positions in sel, or at every position when sel is
// nil. NULL and unselected positions hold the zero value.
func (rel *Relation) decodeChunk(g *rowGroup, j int, sel []int32) *columnar.Vector {
	t, c, n := rel.schema.Fields[j].Type, &g.chunks[j], g.numRows
	var lane any
	switch {
	case t.Equals(types.Boolean):
		dst := make([]bool, n)
		decodeBool(c, n, sel, dst)
		lane = dst
	case t.Equals(types.Int), t.Equals(types.Date):
		dst := make([]int64, n)
		decodeI32(c, n, sel, dst)
		lane = dst
	case t.Equals(types.Long), t.Equals(types.Timestamp):
		dst := make([]int64, n)
		decodeI64(c, n, sel, dst)
		lane = dst
	case t.Equals(types.Double):
		dst := make([]float64, n)
		decodeF64(c, n, sel, dst)
		lane = dst
	default: // STRING: typeOf admits nothing else
		dst := make([]string, n)
		decodeStr(c, n, sel, dst)
		lane = dst
	}
	return columnar.WrapLanes(t, lane, c.nulls(n))
}

// nulls is the chunk's validity bitmap inverted into the vector layout (bit
// set = NULL), or nil when no row is NULL. Bits past n come out set; the
// vector never reads them.
func (c *chunk) nulls(n int) []uint64 {
	if c.nonNull == n {
		return nil
	}
	words := make([]uint64, (n+63)/64)
	for i, b := range c.bitmap {
		words[i/8] |= uint64(b) << (8 * (i % 8))
	}
	for i := range words {
		words[i] = ^words[i]
	}
	return words
}

func (c *chunk) valid(i int) bool { return c.bitmap[i/8]&(1<<(uint(i)%8)) != 0 }

// walk calls fn(i, k) for every non-NULL row i among sel (among all n rows
// when sel is nil), ascending, where k counts the non-NULL rows before i —
// the index of row i's value among the chunk's stored values.
func (c *chunk) walk(n int, sel []int32, fn func(i, k int)) {
	if c.nonNull == n {
		if sel == nil {
			for i := 0; i < n; i++ {
				fn(i, i)
			}
			return
		}
		for _, i := range sel {
			fn(int(i), int(i))
		}
		return
	}
	at, k := 0, 0 // k non-NULL rows lie before row at
	visit := func(i int) {
		for at < i {
			if at%8 == 0 && i-at >= 8 {
				k += bits.OnesCount8(c.bitmap[at/8])
				at += 8
				continue
			}
			if c.valid(at) {
				k++
			}
			at++
		}
		if c.valid(i) {
			fn(i, k)
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			visit(i)
		}
		return
	}
	for _, i := range sel {
		visit(int(i))
	}
}

func decodeBool(c *chunk, n int, sel []int32, dst []bool) {
	c.walk(n, sel, func(i, k int) { dst[i] = c.data[k] == 1 })
}

// decodeI32 decodes 4-byte INT/DATE values, into int32 for the typed reader
// or widened into the engine's int64 lanes.
func decodeI32[T int32 | int64](c *chunk, n int, sel []int32, dst []T) {
	if c.nonNull == n && sel == nil {
		for i := range dst[:n] {
			dst[i] = T(int32(binary.LittleEndian.Uint32(c.data[4*i:])))
		}
		return
	}
	c.walk(n, sel, func(i, k int) { dst[i] = T(int32(binary.LittleEndian.Uint32(c.data[4*k:]))) })
}

func decodeI64(c *chunk, n int, sel []int32, dst []int64) {
	if c.nonNull == n && sel == nil {
		for i := range dst[:n] {
			dst[i] = int64(binary.LittleEndian.Uint64(c.data[8*i:]))
		}
		return
	}
	c.walk(n, sel, func(i, k int) { dst[i] = int64(binary.LittleEndian.Uint64(c.data[8*k:])) })
}

func decodeF64(c *chunk, n int, sel []int32, dst []float64) {
	if c.nonNull == n && sel == nil {
		for i := range dst[:n] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(c.data[8*i:]))
		}
		return
	}
	c.walk(n, sel, func(i, k int) { dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(c.data[8*k:])) })
}

// decodeStr walks the length prefixes once, front to back, and makes a
// string only for the rows walk visits. The strings alias the file image
// (see the package comment), so a survivor costs no allocation.
func decodeStr(c *chunk, n int, sel []int32, dst []string) {
	pos, next := 0, 0 // value number next starts at byte pos
	c.walk(n, sel, func(i, k int) {
		for ; next < k; next++ {
			pos += 4 + int(binary.LittleEndian.Uint32(c.data[pos:]))
		}
		end := pos + 4 + int(binary.LittleEndian.Uint32(c.data[pos:]))
		if end > pos+4 {
			dst[i] = unsafe.String(&c.data[pos+4], end-pos-4)
		}
		pos, next = end, k+1
	})
}

// ---------------------------------------------------------------------------
// Low-level reader over the file image, used by Open only. The first read
// past the end sets err; every later read returns zero values.

type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) remaining() int { return len(r.data) - r.pos }

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > r.remaining() {
		r.err = fmt.Errorf("unexpected EOF: %d bytes wanted at offset %d, %d left", n, r.pos, r.remaining())
		return nil
	}
	b := r.data[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) byte() byte {
	if b := r.bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *reader) str() string { return string(r.bytes(int(r.u32()))) }

// count reads an element count and rejects one that the remaining bytes
// cannot hold at minSize bytes per element.
func (r *reader) count(minSize int) (int, bool) {
	n := int(r.u32())
	if r.err == nil && n > r.remaining()/minSize {
		r.err = fmt.Errorf("count %d at offset %d exceeds the %d bytes left", n, r.pos-4, r.remaining())
	}
	return n, r.err == nil
}

// value reads one boxed min/max statistic.
func (r *reader) value(t types.DataType) any {
	switch {
	case t.Equals(types.Boolean):
		return r.byte() == 1
	case t.Equals(types.Int), t.Equals(types.Date):
		return int32(r.u32())
	case t.Equals(types.Long), t.Equals(types.Timestamp):
		return int64(r.u64())
	case t.Equals(types.Double):
		return math.Float64frombits(r.u64())
	default: // STRING: typeOf admits nothing else
		return r.str()
	}
}

// valueBlock slices out the raw bytes for nonNull values of type t.
func (r *reader) valueBlock(t types.DataType, nonNull int) []byte {
	start := r.pos
	switch {
	case t.Equals(types.Boolean):
		r.bytes(nonNull)
	case t.Equals(types.Int), t.Equals(types.Date):
		r.bytes(4 * nonNull)
	case t.Equals(types.Long), t.Equals(types.Timestamp), t.Equals(types.Double):
		r.bytes(8 * nonNull)
	default: // STRING
		for i := 0; i < nonNull && r.err == nil; i++ {
			r.bytes(int(r.u32()))
		}
	}
	if r.err != nil {
		return nil
	}
	return r.data[start:r.pos]
}
