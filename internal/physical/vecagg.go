package physical

import (
	"context"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/types"
)

// FusedAggregateExec is the whole-stage fusion of a vectorized pipeline
// with its aggregation sink: batches flow scan (or fused join probe) → filter
// → project → hash-aggregate update without ever materializing intermediate
// rows. The phase-1 group tables are type-specialized on the common key
// shapes (single int64, single string, (int64, int64)) so grouping never
// boxes or builds key strings on the hot path, and the partial state leaves
// as typed columnar blocks (aggBlock); everything after the partial flush —
// the exchange, the final merge, and the grace-partitioned spill path — is
// HashAggregateExec's own phase 2, shared verbatim with the row phase 1.
type FusedAggregateExec struct {
	PlanEstimate
	PlanMetrics
	FusionNote
	Agg  *HashAggregateExec // grouping/aggs/partition cap; Child is unused here
	Pipe *VectorizedPipelineExec
	// sink is the compiled sink the Fuse rule built to describe this node;
	// Execute reuses it (nil after the pipeline was swapped: recompiled).
	sink *aggSink
}

func (f *FusedAggregateExec) Children() []SparkPlan { return []SparkPlan{f.Pipe} }
func (f *FusedAggregateExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *f
	c.Pipe, c.sink = children[0].(*VectorizedPipelineExec), nil
	return &c
}
func (f *FusedAggregateExec) Output() []*expr.AttributeReference { return f.Agg.Output() }
func (f *FusedAggregateExec) SimpleString() string               { return "Fused" + f.Agg.SimpleString() }
func (f *FusedAggregateExec) String() string                     { return Format(f) }

func (f *FusedAggregateExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	h := f.Agg
	om := f.EnableMetrics(ctx.Metrics)
	k := f.sink
	if k == nil {
		k = h.compileSink(f.Pipe.Output())
	}
	vp := f.Pipe.compile(ctx, om, k.refs)
	keyTypes := h.keyTypes()
	numPart := h.reducers(ctx)
	boxedKernels := int64(len(k.fallbacks))

	blocks := rdd.GenerateCtx(ctx.RDD, "fusedAgg", vp.tasks(), func(jc context.Context, p int) ([]aggBlock, error) {
		// Per-task mutable state: the group index table and one set of
		// typed state lanes per aggregate.
		groups, _ := newGroupIndexer(keyTypes, k.native, 0)
		lanes := k.newLanes()
		var gidx []int32
		gvecs := make([]*columnar.Vector, len(k.keyEvals))
		err := vp.each(jc, p, func(batch *expr.VecBatch, live []int32) {
			for i, gv := range k.keyEvals {
				gvecs[i] = gv(batch, live)
			}
			gidx = groups.indexBatch(gvecs, live, gidx[:0], true)
			n := groups.count()
			for _, l := range lanes {
				l.Update(batch, live, gidx, n)
			}
			if boxedKernels > 0 {
				vp.fallbackRows.Add(int64(len(live)) * boxedKernels)
			}
		})
		return splitGroups(groups, lanes, numPart), err
	})

	return h.finalMerge(ctx, om, blocks, numPart, k.fns, k.newLanes, k.results)
}

// aggSink is a fused aggregate's compiled sink: the group-key kernels and
// the aggregate state lanes, with a record of which of them run natively.
type aggSink struct {
	keyEvals []expr.VecEval
	native   []bool // per key: compiled to a native kernel
	fns      []expr.AggregateFunc
	results  []expr.Expression // result expressions over [keys..., aggregates...]
	refs     []expr.Expression // everything the sink evaluates per batch
	// fallbacks names every key and aggregate input that runs through the
	// boxed scalar fallback instead of a native kernel.
	fallbacks []string
}

func (h *HashAggregateExec) compileSink(input []*expr.AttributeReference) *aggSink {
	k := &aggSink{refs: bindAll(h.Grouping, input)}
	unbound, results := h.splitAggregates()
	k.fns, k.results = bindFns(unbound, input), results
	k.keyEvals, k.native, k.fallbacks = keyKernels(h.Grouping, input)
	for i, fn := range k.fns {
		k.refs = append(k.refs, fn)
		if _, native := expr.NewVecAggregator(fn); !native {
			// Name the input that has no kernel (the aggregate itself when
			// it is not a unary built-in).
			var src expr.Expression = unbound[i]
			if c := src.Children(); len(c) == 1 {
				src = c[0]
			}
			k.fallbacks = append(k.fallbacks, src.String())
		}
	}
	return k
}

func (k *aggSink) newLanes() []expr.VecAggregator {
	lanes := make([]expr.VecAggregator, len(k.fns))
	for i, fn := range k.fns {
		lanes[i], _ = expr.NewVecAggregator(fn)
	}
	return lanes
}

// note is the EXPLAIN annotation.
func (k *aggSink) note(keyTypes []types.DataType) string {
	_, table := newGroupIndexer(keyTypes, k.native, 0)
	return fusedNote(table, len(k.refs), k.fallbacks)
}

// ---------------------------------------------------------------------------
// Partial blocks

// aggBlock is partial aggregation state in columnar form — what phase 1
// hands the exchange instead of one boxed record per group: a dense key
// column per grouping expression, one state lane set per aggregate, and the
// selection of group positions bound for one reducer. The blocks a map
// partition emits (one per reducer) are views over the same columns and
// lanes; nothing is copied or boxed to split them.
type aggBlock struct {
	keys  []*columnar.Vector
	lanes []expr.VecAggregator
	sel   []int32
}

func (b aggBlock) groups() int64 { return int64(len(b.sel)) }

// splitGroups flushes a phase-1 group table into one block per reducer,
// partitioning by the process-independent hash of the typed key (equal to
// the hash of the boxed key, so it does not matter which phase 1 ran). An
// empty table emits nothing.
func splitGroups(groups groupIndexer, lanes []expr.VecAggregator, numPart int) []aggBlock {
	n, keys := groups.count(), groups.keys()
	if n == 0 {
		return nil
	}
	out := make([]aggBlock, numPart)
	dest := make([]int32, n)
	counts := make([]int, numPart)
	if numPart > 1 {
		for g := range dest {
			h := row.NewHasher()
			for _, kc := range keys {
				h = kc.HashAt(h, g)
			}
			dest[g] = int32(h.Sum() % uint64(numPart))
		}
	}
	for _, d := range dest {
		counts[d]++
	}
	for r := range out {
		out[r] = aggBlock{keys: keys, lanes: lanes, sel: make([]int32, 0, counts[r])}
	}
	for g, d := range dest {
		out[d].sel = append(out[d].sel, int32(g))
	}
	return out
}

// ---------------------------------------------------------------------------
// Group index tables

// groupIndexer is the executor's one keyed hash table: it maps each live
// row's key values (read out of the key vectors) to a dense group index.
// indexBatch appends one index per live row to gidx; the per-implementation
// loop keeps the map access monomorphic instead of paying an interface
// dispatch per row. With insert, a key is appended to the table's key columns
// on first sight (first-seen order is preserved, and NULL is a key like any
// other); without, the table is only read — safe from concurrent tasks — and
// a key never inserted indexes as -1. The same tables serve aggregation phase
// 1 (over pipeline batches or chunks of input rows), the reducer (over the key
// columns of partial blocks), DISTINCT, and the build and probe sides of the
// hash joins (joinTable).
type groupIndexer interface {
	indexBatch(vecs []*columnar.Vector, live, gidx []int32, insert bool) []int32
	count() int
	keys() []*columnar.Vector
}

// keyCols is the key storage every table embeds: one growing column per
// grouping expression, typed when the type has a kernel value class.
type keyCols []*columnar.Vector

// newKeyCols allocates empty key columns whose lanes are pre-grown for
// sizeHint groups.
func newKeyCols(keyTypes []types.DataType, sizeHint int) keyCols {
	cols := make(keyCols, len(keyTypes))
	for i, t := range keyTypes {
		cols[i] = expr.NewClassVector(t, sizeHint)
		cols[i].Reset(0)
	}
	return cols
}

// add appends row i's key values as a new group and returns its index, or
// returns -1 when the caller is only looking up.
func (c keyCols) add(vecs []*columnar.Vector, i int, insert bool) int32 {
	if !insert {
		return -1
	}
	g := int32(c[0].Len())
	for j, v := range vecs {
		c[j].Append(v, i)
	}
	return g
}
func (c keyCols) count() int               { return c[0].Len() }
func (c keyCols) keys() []*columnar.Vector { return c }

// newGroupIndexer picks the table for the key types and names it: a single
// int64-class key, a single string key, or an (int64, int64) pair run without
// boxing or key-string building; anything else — or keys whose vectors hold
// boxed values — uses the generic table. A nil native means every key column
// is typed (the reducer's input always is). The table is pre-sized for
// sizeHint groups (0 = grow on demand: a phase-1 table over a tiny partition
// must not pay for capacity it never uses).
func newGroupIndexer(keyTypes []types.DataType, native []bool, sizeHint int) (groupIndexer, string) {
	cls := func(i int) int {
		if native != nil && !native[i] {
			return expr.VecClassNone
		}
		return expr.VecClassOf(keyTypes[i])
	}
	cols := newKeyCols(keyTypes, sizeHint)
	switch {
	case len(keyTypes) == 0:
		return &globalGroups{}, "global"
	case len(keyTypes) == 1 && cls(0) == expr.VecClassI64:
		return &i64Groups{keyCols: cols, m: make(map[int64]int32, sizeHint), nullIdx: -1}, "i64"
	case len(keyTypes) == 1 && cls(0) == expr.VecClassStr:
		return &strGroups{keyCols: cols, m: make(map[string]int32, sizeHint), nullIdx: -1}, "str"
	case len(keyTypes) == 2 && cls(0) == expr.VecClassI64 && cls(1) == expr.VecClassI64:
		return &pairGroups{keyCols: cols, m: make(map[[3]int64]int32, sizeHint)}, "pair"
	}
	return &genericGroups{keyCols: cols, m: make(map[string]int32, sizeHint), ords: ordinalsUpTo(len(keyTypes))}, "generic"
}

func ordinalsUpTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// globalGroups is the degenerate no-GROUP-BY table: one group, created on
// the first row (an empty partition emits no partial, like the row path).
type globalGroups struct{ seen bool }

func (t *globalGroups) indexBatch(vecs []*columnar.Vector, live, gidx []int32, insert bool) []int32 {
	t.seen = t.seen || (insert && len(live) > 0)
	for range live {
		gidx = append(gidx, 0)
	}
	return gidx
}
func (t *globalGroups) count() int {
	if t.seen {
		return 1
	}
	return 0
}
func (t *globalGroups) keys() []*columnar.Vector { return nil }

// i64Groups hashes raw int64 keys (INT/BIGINT/DATE/TIMESTAMP).
type i64Groups struct {
	keyCols
	m       map[int64]int32
	nullIdx int32
}

func (t *i64Groups) indexBatch(vecs []*columnar.Vector, live, gidx []int32, insert bool) []int32 {
	v := vecs[0]
	mask := v.Mask()
	for _, i := range live {
		ii := int(i)
		if v.IsNull(ii) {
			if t.nullIdx < 0 && insert {
				t.nullIdx = t.add(vecs, ii, insert)
			}
			gidx = append(gidx, t.nullIdx)
			continue
		}
		k := v.I64[ii&mask]
		g, ok := t.m[k]
		if !ok {
			if g = t.add(vecs, ii, insert); insert {
				t.m[k] = g
			}
		}
		gidx = append(gidx, g)
	}
	return gidx
}

// strGroups hashes string keys without re-encoding them per row.
type strGroups struct {
	keyCols
	m       map[string]int32
	nullIdx int32
}

func (t *strGroups) indexBatch(vecs []*columnar.Vector, live, gidx []int32, insert bool) []int32 {
	v := vecs[0]
	mask := v.Mask()
	for _, i := range live {
		ii := int(i)
		if v.IsNull(ii) {
			if t.nullIdx < 0 && insert {
				t.nullIdx = t.add(vecs, ii, insert)
			}
			gidx = append(gidx, t.nullIdx)
			continue
		}
		k := v.Str[ii&mask]
		g, ok := t.m[k]
		if !ok {
			if g = t.add(vecs, ii, insert); insert {
				t.m[k] = g
			}
		}
		gidx = append(gidx, g)
	}
	return gidx
}

// pairGroups hashes (int64, int64) key pairs; the third array slot packs
// the NULL bits so (NULL, 0) and (0, NULL) and (0, 0) stay distinct.
type pairGroups struct {
	keyCols
	m map[[3]int64]int32
}

func (t *pairGroups) indexBatch(vecs []*columnar.Vector, live, gidx []int32, insert bool) []int32 {
	v0, v1 := vecs[0], vecs[1]
	m0, m1 := v0.Mask(), v1.Mask()
	for _, i := range live {
		ii := int(i)
		var k [3]int64
		if v0.IsNull(ii) {
			k[2] |= 1
		} else {
			k[0] = v0.I64[ii&m0]
		}
		if v1.IsNull(ii) {
			k[2] |= 2
		} else {
			k[1] = v1.I64[ii&m1]
		}
		g, ok := t.m[k]
		if !ok {
			if g = t.add(vecs, ii, insert); insert {
				t.m[k] = g
			}
		}
		gidx = append(gidx, g)
	}
	return gidx
}

// genericGroups boxes the key values and hashes their injective GroupKey
// encoding — the shape-agnostic fallback, still batch-native (no full-row
// materialization).
type genericGroups struct {
	keyCols
	m    map[string]int32
	ords []int
}

func (t *genericGroups) indexBatch(vecs []*columnar.Vector, live, gidx []int32, insert bool) []int32 {
	kv := make(row.Row, len(vecs)) // per call: lookups run concurrently
	for _, i := range live {
		ii := int(i)
		for j, v := range vecs {
			kv[j] = v.Get(ii)
		}
		key := row.GroupKey(kv, t.ords)
		g, ok := t.m[key]
		if !ok {
			if g = t.add(vecs, ii, insert); insert {
				t.m[key] = g
			}
		}
		gidx = append(gidx, g)
	}
	return gidx
}
