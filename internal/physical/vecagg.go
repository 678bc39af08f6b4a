package physical

import (
	"context"
	"math/bits"

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
// as typed columnar blocks (aggBlock). Its phase-1 body and everything after
// the partial flush — the exchange and the final merge, reserved and spilled
// under a memory budget — are HashAggregateExec's own, which runs them over a
// row input transposed.
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

func (f *FusedAggregateExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] { return boxedRows(f, ctx) }

// Results implements BatchTop: the reducers' results go to sink.
func (f *FusedAggregateExec) Results(ctx *ExecContext, sink ResultSink) *rdd.RDD[expr.Arena] {
	h := f.Agg
	om := f.EnableMetrics(ctx.Metrics)
	k := f.sink
	if k == nil {
		k = h.compileSink(f.Pipe.Output(), true)
	}
	vp := f.Pipe.compile(ctx, om, k.refs)
	blocks := rdd.GenerateCtx(ctx.RDD, "fusedAgg", vp.tasks(), func(jc context.Context, p int) ([]aggBlock, error) {
		agg := newPartialAgg(h.keyTypes(), k.native, k.newLanes, h.buckets(ctx)) // all the task's mutable state
		err := vp.each(jc, p, func(batch *expr.VecBatch, live []int32) {
			agg.addBatch(k.keyEvals, batch, live)
			if boxed := len(k.fallbacks); boxed > 0 {
				vp.fallbackRows.Add(int64(len(live) * boxed))
			}
		})
		return agg.finish(om, ctx.RDD.Metrics().Counter("agg.partial.skipped")), err
	}).Reads(vp.src.Stages...)
	return h.finalMerge(ctx, om, blocks, k, sink)
}

// aggSink is an aggregate's compiled sink over its phase-1 input: the
// group-key kernels and the aggregate state lanes, with a record of which of
// them run natively. Without codegen the kernels are the interpreter lifted
// to batches and every lane is a boxed one.
type aggSink struct {
	keyEvals []expr.VecEval
	native   []bool // per key: compiled to a native kernel
	fns      []expr.AggregateFunc
	results  []expr.Expression // result expressions over [keys..., aggregates...]
	refs     []expr.Expression // everything the sink evaluates per batch
	codegen  bool
	// fallbacks names every key and aggregate input that runs through the
	// boxed scalar fallback instead of a native kernel.
	fallbacks []string
}

func (h *HashAggregateExec) compileSink(input []*expr.AttributeReference, codegen bool) *aggSink {
	k := &aggSink{refs: bindAll(h.Grouping, input), codegen: codegen}
	unbound, results := h.splitAggregates()
	k.fns, k.results = bindFns(unbound, input), results
	k.keyEvals, k.native, k.fallbacks = keyKernels(h.Grouping, input, codegen)
	for i, fn := range k.fns {
		k.refs = append(k.refs, fn)
		if _, native := expr.NewVecAggregator(fn); !native && codegen {
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
		if k.codegen {
			lanes[i], _ = expr.NewVecAggregator(fn)
		} else {
			lanes[i] = expr.NewBoxedAggregator(fn)
		}
	}
	return lanes
}

// note is the EXPLAIN annotation, after how the sink is fed.
func (k *aggSink) note(how string, keyTypes []types.DataType) string {
	return sinkNote(how, keyCmpFor(keyTypes, k.native).String(), len(k.refs), k.fallbacks)
}

// ---------------------------------------------------------------------------
// Partial blocks

// aggBlock is partial aggregation state in columnar form — what phase 1
// hands the exchange instead of one boxed record per group: a dense key
// column per grouping expression with the keys' row hashes beside them, one
// state lane set per aggregate, and the selection of group positions in one
// hash bucket. A map task emits a bucket set for its table, then one for each
// batch it passes through (partialAgg). A set's blocks are views over the
// same columns and lanes, their selections cut from one slice;
// nothing is copied or boxed to split them, and the reducer probes with the
// hashes instead of hashing a key again. A reducer that spills reads its spill
// log back as blocks of the same form.
type aggBlock struct {
	keys   []*columnar.Vector
	hashes []uint64
	lanes  []expr.VecAggregator
	sel    []int32
}

func (b aggBlock) groups() int64 { return int64(len(b.sel)) }

// splitGroups cuts partial groups — a phase-1 table's, or a passed batch's
// one-row groups: group g has the keys cols[j][g], the row hash hashes[g] and
// lanes' state g — into one block per bucket, by that hash: the process-
// independent hash of the typed key (equal to the hash of the boxed key, so it
// does not matter which phase 1 ran). The selections are consecutive runs of
// one slice of the groups, each in ascending group order. No groups, no blocks.
func splitGroups(cols []*columnar.Vector, hashes []uint64, lanes []expr.VecAggregator, buckets int) []aggBlock {
	n := len(hashes)
	if n == 0 {
		return nil
	}
	start := make([]int, buckets+1) // start[b]: where bucket b's run begins
	for _, h := range hashes {
		start[h%uint64(buckets)+1]++
	}
	for b := range buckets {
		start[b+1] += start[b]
	}
	sel, out := make([]int32, n), make([]aggBlock, buckets)
	for b := range out {
		out[b] = aggBlock{keys: cols, hashes: hashes, lanes: lanes, sel: sel[start[b]:start[b]:start[b+1]]}
	}
	for g, h := range hashes {
		b := &out[h%uint64(buckets)]
		b.sel = append(b.sel, int32(g)) // within the run's capacity: in place
	}
	return out
}

// ---------------------------------------------------------------------------
// The group table

// groupTable is the executor's one keyed hash table: it maps each live row's
// key values (read out of the key vectors) to a dense group index. A key is
// stored once, in first-seen order, as a row of the key columns beside its
// row hash — the exchange's: row.NewHasher folded with Vector.HashAt per key
// column, NULL included, so NULL is a key like any other. slots indexes those
// rows by open addressing: a pointer-free power-of-two array of (low 32 hash
// bits << 32 | group index + 1), 0 = empty, linear probing, at most half full;
// key columns are read only on a tag hit. The home slot is the hash's HIGH
// bits, because a reducer only sees hashes whose `% buckets` falls in its
// bucket range. Growing doubles the slots and re-places the groups
// from their stored hashes, touching no key.
//
// It serves aggregation phase 1 (over pipeline batches or transposed chunks
// of input rows), the reducer (over partial blocks, probing with the hashes phase 1
// stored), DISTINCT, and the build and probe sides of the hash joins
// (joinTable). Without insert it is only read — safe from concurrent tasks,
// each hashing into its own groupProbe — and an absent key indexes as -1.
type groupTable struct {
	cols   []*columnar.Vector
	hashes []uint64
	slots  []uint64
	shift  uint8 // home slot of hash h: h >> shift
	cmp    keyCmp
	grows  int32
}

// keyCmp names the key comparison a table runs on a tag hit.
type keyCmp uint8

const (
	cmpGlobal  keyCmp = iota // no key: one group
	cmpI64                   // one int64-class lane (INT/BIGINT/DATE/TIMESTAMP)
	cmpStr                   // one string lane
	cmpPair                  // two int64-class lanes
	cmpGeneric               // any columns, typed or boxed: Vector.EqualAt
)

func (c keyCmp) String() string {
	return [...]string{"global", "i64", "str", "pair", "generic"}[c]
}

// groupProbe is the scratch one caller of indexBatch reuses from batch to
// batch: the row hashes and the group indexes of the batch in hand.
type groupProbe struct {
	hash []uint64
	gidx []int32
}

// newGroupTable builds the table for the key types: a single int64-class key,
// a single string key and an (int64, int64) pair compare lane to lane; anything
// else — or keys whose vectors hold boxed values — column-wise through EqualAt.
// A nil native means every key column is typed (the reducer's input always
// is). sizeHint pre-sizes it (0 = grow on demand: a phase-1 table over a tiny
// partition must not pay for capacity it never uses).
func newGroupTable(keyTypes []types.DataType, native []bool, sizeHint int) *groupTable {
	t := new(groupTable)
	t.init(keyTypes, native, sizeHint)
	return t
}

// init makes t the empty table newGroupTable returns, in place.
func (t *groupTable) init(keyTypes []types.DataType, native []bool, sizeHint int) {
	*t = groupTable{cols: make([]*columnar.Vector, len(keyTypes)), hashes: make([]uint64, 0, sizeHint), cmp: keyCmpFor(keyTypes, native)}
	for i, kt := range keyTypes {
		t.cols[i] = expr.NewClassVector(kt, sizeHint)
		t.cols[i].Reset(0)
	}
	t.resize(2 * sizeHint)
}

func keyCmpFor(keyTypes []types.DataType, native []bool) keyCmp {
	cls := func(i int) int {
		if native != nil && !native[i] {
			return expr.VecClassNone
		}
		return expr.VecClassOf(keyTypes[i])
	}
	switch {
	case len(keyTypes) == 0:
		return cmpGlobal
	case len(keyTypes) == 1 && cls(0) == expr.VecClassI64:
		return cmpI64
	case len(keyTypes) == 1 && cls(0) == expr.VecClassStr:
		return cmpStr
	case len(keyTypes) == 2 && cls(0) == expr.VecClassI64 && cls(1) == expr.VecClassI64:
		return cmpPair
	}
	return cmpGeneric
}

func (t *groupTable) count() int { return len(t.hashes) }

// indexBatch appends to p.gidx[:0] the group index of every live row of the
// key vectors, hashing them a column at a time into p.hash first. With insert
// a key not seen before becomes the next group.
func (t *groupTable) indexBatch(vecs []*columnar.Vector, live []int32, p *groupProbe, insert bool) []int32 {
	p.hashRows(vecs, live)
	p.gidx = t.indexHashed(vecs, p.hash, live, p.gidx[:0], insert)
	return p.gidx
}

// hashRows sets p.hash[i] to live row i's hash, a key column at a time.
func (p *groupProbe) hashRows(vecs []*columnar.Vector, live []int32) {
	if len(vecs) == 0 {
		return
	}
	p.hash = columnar.GrowLane(p.hash, vecs[0].Len())
	for _, i := range live {
		p.hash[i] = row.NewHasher().Sum()
	}
	for _, v := range vecs {
		v.HashInto(p.hash, live)
	}
}

// indexHashed is indexBatch for rows whose hashes the caller already holds:
// hashes[i] is the row hash of position i. This is the one probe loop.
func (t *groupTable) indexHashed(vecs []*columnar.Vector, hashes []uint64, live, gidx []int32, insert bool) []int32 {
	if t.cmp == cmpGlobal { // one group, created on the first row (an empty partition emits no partial, like the row path)
		if insert && len(live) > 0 && len(t.hashes) == 0 {
			t.hashes = append(t.hashes, row.NewHasher().Sum())
		}
		for range live {
			gidx = append(gidx, int32(len(t.hashes))-1)
		}
		return gidx
	}
	// A single typed key held in its lane, with no NULL on either side,
	// compares inline (a join's build key left on the boxed fallback, against
	// a table its probe keys typed, does not).
	v, c, lane := vecs[0], t.cols[0], cmpGeneric
	if (t.cmp == cmpI64 || t.cmp == cmpStr) && v.Kind == c.Kind && !v.HasNulls() && !c.HasNulls() {
		lane = t.cmp
	}
	vm := v.Mask()
	for _, i := range live {
		h := hashes[i]
		g := int32(-1)
		for s := h >> t.shift; ; s = (s + 1) & uint64(len(t.slots)-1) {
			e := t.slots[s]
			if e == 0 {
				if insert {
					g = t.add(vecs, int(i), h, s)
				}
				break
			}
			if uint32(e>>32) != uint32(h) {
				continue
			}
			at, eq := int(uint32(e))-1, false
			switch lane {
			case cmpI64:
				eq = v.I64[int(i)&vm] == c.I64[at]
			case cmpStr:
				eq = v.Str[int(i)&vm] == c.Str[at]
			default:
				eq = t.equal(vecs, int(i), at)
			}
			if eq {
				g = int32(at)
				break
			}
		}
		gidx = append(gidx, g)
	}
	return gidx
}

// equal compares row i of the key vectors with group g's stored key.
func (t *groupTable) equal(vecs []*columnar.Vector, i, g int) bool {
	if t.cmp == cmpPair {
		v, c, w, d := vecs[0], t.cols[0], vecs[1], t.cols[1]
		if v.Kind == c.Kind && w.Kind == d.Kind && !v.HasNulls() && !c.HasNulls() && !w.HasNulls() && !d.HasNulls() {
			return v.I64[i&v.Mask()] == c.I64[g] && w.I64[i&w.Mask()] == d.I64[g]
		}
	}
	for j, v := range vecs {
		if !v.EqualAt(i, t.cols[j], g) {
			return false
		}
	}
	return true
}

// add appends row i's key and hash as a new group in the empty slot s its
// probe ended on, growing the table when that fills it past half, and returns
// the group's index.
func (t *groupTable) add(vecs []*columnar.Vector, i int, h, s uint64) int32 {
	g := len(t.hashes)
	for j, v := range vecs {
		t.cols[j].Append(v, i)
	}
	t.hashes = columnar.GrowLane(t.hashes, g+1)
	t.hashes[g] = h
	if t.slots[s] = h<<32 | uint64(g+1); 2*(g+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
		t.grows++
	}
	return int32(g)
}

// resize makes the slot array the power of two holding at least n slots (and
// 16) and places every group in it, by its stored hash.
func (t *groupTable) resize(n int) {
	lg := max(4, bits.Len(uint(max(n, 1)-1)))
	t.slots, t.shift = make([]uint64, 1<<lg), uint8(64-lg)
	mask := uint64(len(t.slots) - 1)
	for g, h := range t.hashes {
		s := h >> t.shift
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = h<<32 | uint64(g+1)
	}
}
