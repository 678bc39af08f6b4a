package colfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"os"
	"slices"
	"sync"
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
	// offs indexes a STRING chunk's data: stored value k is the length prefix
	// at offs[k] and the bytes up to offs[k+1]; the last entry is len(data).
	// nil for the other types.
	offs []uint32
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
	// scratch holds the *scratch values batch scans of this file work in,
	// from one query to the next.
	scratch sync.Pool
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
			c.data, c.offs = r.valueBlock(t, c.nonNull)
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
// scratch lanes, the filters narrow a selection over those lanes, and every
// requested column is then produced at the length of that selection: gathered
// from its scratch lane when a filter read it, decoded from the file at the
// selected rows when none did. The batch is the survivors and nothing else.
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
	native := make([]bool, len(filters))
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
		preds[i], native[i] = expr.CompileVecPredicate(bound)
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
			stats := datasource.BatchStats{RowsRead: n}
			// Partition calls run concurrently, a task's one after another: each
			// works in a scratch of its own and leaves it for the next.
			sc, _ := rel.scratch.Get().(*scratch)
			if sc == nil || len(sc.lanes) < len(decode) {
				sc = &scratch{lanes: make([]lane, len(decode))}
			}
			defer rel.scratch.Put(sc)
			sc.kernels.Reset()
			lanes := expr.VecBatch{Cols: make([]*columnar.Vector, len(decode)), N: n, Scratch: &sc.kernels}
			for pos, j := range decode {
				if filtered[pos] {
					lanes.Cols[pos] = rel.decodeChunk(g, j, nil, &sc.lanes[pos])
				}
			}
			sel := rel.identity[:n:n]
			for i, pred := range preds {
				if !native[i] {
					stats.FallbackRows += len(sel)
				}
				if sel = pred(&lanes, sel); len(sel) == 0 {
					break
				}
			}
			kept, survivors := len(sel), sel
			stats.RowsPruned = n - kept
			if kept == n {
				sel = nil // every row survives: decoded as it is stored
			}
			cols := make([]*columnar.Vector, len(columns))
			if kept > 0 {
				for pos, j := range decode[:len(columns)] {
					if filtered[pos] {
						cols[pos] = lanes.Cols[pos].GatherInto(nil, survivors)
					} else {
						cols[pos] = rel.decodeChunk(g, j, sel, nil)
					}
				}
			}
			return []datasource.Batch{{Cols: cols, N: kept, Sel: rel.identity[:kept:kept]}}, stats
		},
	}, nil
}

// scratch is what one Partition call of a batch scan works in and nothing it
// returns refers to: the lanes the filters' columns are decoded into, by
// batch position, and the scratch their kernels' selections and vectors are
// lent from.
type scratch struct {
	lanes   []lane
	kernels expr.Scratch
}

// lane is reusable backing for one decoded chunk; a chunk uses the slice of
// its type and the NULL words.
type lane struct {
	b     []bool
	i64   []int64
	f64   []float64
	str   []string
	nulls []uint64
}

// sized is *buf at length n, in its own array when that is long enough, and
// zeroed if asked: a fresh array is zero as it comes.
func sized[T any](buf *[]T, n int, zero bool) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
		return *buf
	}
	*buf = (*buf)[:n]
	if zero {
		clear(*buf)
	}
	return *buf
}

// ---------------------------------------------------------------------------
// Chunk decoders: one per physical type, shared by the batch scan (and the
// row scan built on it) and the typed whole-column readers.

// decodeChunk decodes column j of group g into a typed vector: position o
// holds row sel[o], or, sel being nil, every row is decoded to its own
// position. NULL positions hold the zero value. The vector is laid over into
// when that is given — scratch the caller decodes the next group into — and
// over memory of its own otherwise.
func (rel *Relation) decodeChunk(g *rowGroup, j int, sel []int32, into *lane) *columnar.Vector {
	t, c, n := rel.schema.Fields[j].Type, &g.chunks[j], g.numRows
	if into == nil {
		into = &lane{}
	}
	out, holes := n, c.nonNull < n // positions no decoder writes
	if sel != nil {
		out = len(sel)
	}
	var data any
	switch {
	case t.Equals(types.Boolean):
		dst := sized(&into.b, out, holes)
		decodeBool(c, n, sel, dst)
		data = dst
	case t.Equals(types.Int), t.Equals(types.Date):
		dst := sized(&into.i64, out, holes)
		decodeI32(c, n, sel, dst)
		data = dst
	case t.Equals(types.Long), t.Equals(types.Timestamp):
		dst := sized(&into.i64, out, holes)
		decodeI64(c, n, sel, dst)
		data = dst
	case t.Equals(types.Double):
		dst := sized(&into.f64, out, holes)
		decodeF64(c, n, sel, dst)
		data = dst
	default: // STRING: typeOf admits nothing else
		dst := sized(&into.str, out, holes)
		decodeStr(c, n, sel, dst)
		data = dst
	}
	return columnar.WrapLanes(t, data, c.nulls(n, sel, &into.nulls))
}

// nulls is the chunk's validity bitmap as the NULL bitmap (bit set = NULL) of
// the vector decodeChunk lays out for sel, or nil when none of its rows is
// NULL. Decoding every row it is the stored bitmap inverted: bits past n come
// out set, and the vector never reads them.
func (c *chunk) nulls(n int, sel []int32, buf *[]uint64) []uint64 {
	if c.nonNull == n {
		return nil
	}
	if sel == nil {
		words := sized(buf, (n+63)/64, true)
		for i, b := range c.bitmap {
			words[i/8] |= uint64(b) << (8 * (i % 8))
		}
		for i := range words {
			words[i] = ^words[i]
		}
		return words
	}
	words, found := sized(buf, (len(sel)+63)/64, true), false
	for o, i := range sel {
		if !c.valid(int(i)) {
			words[o/64] |= 1 << (o % 64)
			found = true
		}
	}
	if !found {
		return nil
	}
	return words
}

func (c *chunk) valid(i int) bool { return c.bitmap[i/8]&(1<<(uint(i)%8)) != 0 }

// walk calls fn(o, k) for every non-NULL row i among sel (among all n rows
// when sel is nil), ascending, where o is the row's position in sel (i itself
// when sel is nil) and k counts the non-NULL rows before i — the index of row
// i's value among the chunk's stored values.
func (c *chunk) walk(n int, sel []int32, fn func(o, k int)) {
	if c.nonNull == n {
		if sel == nil {
			for i := 0; i < n; i++ {
				fn(i, i)
			}
			return
		}
		for o, i := range sel {
			fn(o, int(i))
		}
		return
	}
	at, k := 0, 0 // k non-NULL rows lie before row at
	visit := func(o, i int) {
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
			fn(o, k)
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			visit(i, i)
		}
		return
	}
	for o, i := range sel {
		visit(o, int(i))
	}
}

func decodeBool(c *chunk, n int, sel []int32, dst []bool) {
	c.walk(n, sel, func(o, k int) { dst[o] = c.data[k] == 1 })
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
	c.walk(n, sel, func(o, k int) { dst[o] = T(int32(binary.LittleEndian.Uint32(c.data[4*k:]))) })
}

func decodeI64(c *chunk, n int, sel []int32, dst []int64) {
	if c.nonNull == n && sel == nil {
		for i := range dst[:n] {
			dst[i] = int64(binary.LittleEndian.Uint64(c.data[8*i:]))
		}
		return
	}
	c.walk(n, sel, func(o, k int) { dst[o] = int64(binary.LittleEndian.Uint64(c.data[8*k:])) })
}

func decodeF64(c *chunk, n int, sel []int32, dst []float64) {
	if c.nonNull == n && sel == nil {
		for i := range dst[:n] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(c.data[8*i:]))
		}
		return
	}
	c.walk(n, sel, func(o, k int) { dst[o] = math.Float64frombits(binary.LittleEndian.Uint64(c.data[8*k:])) })
}

// decodeStr makes a string only for the rows walk visits, each one read
// through the chunk's offset index, so a survivor costs the same wherever it
// sits. The strings alias the file image (see the package comment), so a
// survivor costs no allocation either.
func decodeStr(c *chunk, n int, sel []int32, dst []string) {
	c.walk(n, sel, func(o, k int) {
		start, end := int(c.offs[k])+4, int(c.offs[k+1])
		s := ""
		if end > start {
			s = unsafe.String(&c.data[start], end-start)
		}
		dst[o] = s // the empty string too: dst may be scratch that held another group's
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

// valueBlock slices out the raw bytes for nonNull values of type t and, for
// a STRING chunk, the offset index of its values (see chunk.offs). The index
// is sized only once the bytes left can hold nonNull length prefixes.
func (r *reader) valueBlock(t types.DataType, nonNull int) ([]byte, []uint32) {
	start := r.pos
	var offs []uint32
	switch {
	case t.Equals(types.Boolean):
		r.bytes(nonNull)
	case t.Equals(types.Int), t.Equals(types.Date):
		r.bytes(4 * nonNull)
	case t.Equals(types.Long), t.Equals(types.Timestamp), t.Equals(types.Double):
		r.bytes(8 * nonNull)
	default: // STRING
		if r.err == nil && nonNull > r.remaining()/4 {
			r.err = fmt.Errorf("%d strings at offset %d exceed the %d bytes left", nonNull, r.pos, r.remaining())
			return nil, nil
		}
		offs = make([]uint32, nonNull+1)
		for i := 0; i < nonNull && r.err == nil; i++ {
			r.bytes(int(r.u32()))
			if int64(r.pos-start) > maxStringChunk {
				r.err = errStringChunk
			}
			offs[i+1] = uint32(r.pos - start)
		}
	}
	if r.err != nil {
		return nil, nil
	}
	return r.data[start:r.pos], offs
}
