package physical

import (
	"context"
	"math"
	"slices"
	"time"

	"repro/internal/columnar"
	"repro/internal/datasource"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/types"
)

// FusedBroadcastJoinExec is the whole-stage fusion of a vectorized pipeline
// with a broadcast-hash-join probe: the build side is loaded once into a
// joinTable, and the probe loop reads join keys straight off the pipeline's
// column vectors. The probe pipeline is whichever input BroadcastHashJoinExec
// would stream — the left when the build side is the right one, the right
// otherwise. It is a BatchScan too: a pipeline, a fused aggregate or another
// fused join on top takes the output as columns and no row is boxed; a row
// consumer, or the result edge, gets the same columns boxed. Either way the
// output is the row join's, for every join type a join may broadcast, key
// shape and residual: left cells before right cells, probe rows in pipeline
// order, matches in build-collect order.
type FusedBroadcastJoinExec struct {
	PlanEstimate
	PlanMetrics
	FusionNote
	// Join is the row join this node runs, its probe side replaced by the
	// vectorized pipeline the probe is fused into.
	Join *BroadcastHashJoinExec
}

func (f *FusedBroadcastJoinExec) Children() []SparkPlan { return f.Join.Children() }
func (f *FusedBroadcastJoinExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *f
	c.Join = f.Join.WithNewChildren(children).(*BroadcastHashJoinExec)
	return &c
}
func (f *FusedBroadcastJoinExec) Output() []*expr.AttributeReference { return f.Join.Output() }
func (f *FusedBroadcastJoinExec) SimpleString() string               { return "Fused" + f.Join.SimpleString() }
func (f *FusedBroadcastJoinExec) String() string                     { return Format(f) }

// probeKeys is a fused join's probe side compiled over the pipeline output.
type probeKeys struct {
	evals []expr.VecEval
	// typed: every key is a native kernel over a value class, so the probe
	// hands over class lanes and the build side must index the same; otherwise
	// both sides go through boxed values and the generic table.
	typed bool
	boxed int // keys left on the boxed scalar fallback
	note  string
}

func (j *BroadcastHashJoinExec) compileProbeKeys(input []*expr.AttributeReference) probeKeys {
	keys, buildKeys := j.LeftKeys, j.RightKeys
	if !j.BuildRight {
		keys, buildKeys = buildKeys, keys
	}
	evals, native, fallbacks := keyKernels(keys, input)
	k := probeKeys{evals: evals, typed: true, boxed: len(fallbacks)}
	for i, key := range keys {
		k.typed = k.typed && native[i] && expr.VecClassOf(key.DataType()) != expr.VecClassNone
		if columnar.KindOf(key.DataType()) == columnar.KindFloat64 {
			k.evals[i] = canonFloatKernel(evals[i])
		}
	}
	k.note = fusedNote(keyTable(exprTypes(buildKeys), k.typed, 0).cmp.String(), len(keys), fallbacks)
	return k
}

// canonFloatKernel is bindKeys' floating-point canonicalization for a key
// that arrives as a kernel's vector instead of a row evaluator's value: on the
// float64 lane, copied once a -0.0 or NaN turns up in it (it may be the
// scan's own), or over the boxed values of a key on the scalar fallback.
func canonFloatKernel(ev expr.VecEval) expr.VecEval {
	return func(b *expr.VecBatch, sel []int32) *columnar.Vector {
		v := ev(b, sel)
		if v.Kind != columnar.KindFloat64 {
			out := columnar.NewAnyVector(v.Type, b.N)
			for _, i := range sel {
				out.Set(int(i), canonFloat(v.Get(int(i))))
			}
			return out
		}
		out, mask := v, v.Mask()
		for _, i := range sel {
			at := int(i) & mask
			if c := canonF64(v.F64[at]); math.Float64bits(c) != math.Float64bits(v.F64[at]) {
				if out == v {
					cp := *v
					cp.F64 = slices.Clone(v.F64)
					out = &cp
				}
				out.F64[at] = c
			}
		}
		return out
	}
}

func (f *FusedBroadcastJoinExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	return boxedRows(f, ctx)
}

// Results implements BatchTop through the bare pipeline fusion puts on a scan.
func (f *FusedBroadcastJoinExec) Results(ctx *ExecContext, sink ResultSink) *rdd.RDD[expr.Arena] {
	r := fusablePipe(f).Results(ctx, sink)
	if om := f.Runtime(); om != nil {
		om.Emits = "rows" // boxed, where a batch consumer would not box them
	}
	return r
}

// OpenBatches implements BatchScan: a probe task's output is one partition of
// one batch, every position selected, holding the columns the consumer marked
// used.
func (f *FusedBroadcastJoinExec) OpenBatches(ctx *ExecContext, used []bool) BatchSource {
	parts, probe := f.open(ctx, used)
	return BatchSource{NumPartitions: parts, Batches: func(jc context.Context, p int) (func() (datasource.Batch, bool), error) {
		pr, err := probe(jc, p)
		if err != nil {
			return nil, err
		}
		b, more := datasource.Batch{Cols: pr.cols, N: len(pr.bo), Sel: identitySel(len(pr.bo))}, true
		return func() (datasource.Batch, bool) {
			ok := more
			more = false
			return b, ok
		}, nil
	}}
}

// open binds the join for one execution and returns its partition count and
// the probe of one partition, whose output is the columns used marks.
func (f *FusedBroadcastJoinExec) open(ctx *ExecContext, used []bool) (int, func(context.Context, int) (*joinProbe, error)) {
	j := f.Join
	pipe := j.probeSide().(*VectorizedPipelineExec)
	om := f.EnableMetrics(ctx.Metrics)
	if om != nil {
		om.Emits = "batches"
	}
	k := j.compileProbeKeys(pipe.Output())
	hj := newHashJoin(ctx, om, &j.EquiJoin, j.BuildRight, k.typed)
	hj.broadcast = j.buildSide().Execute(ctx)
	vp := pipe.compile(ctx, om, f.probeReads(hj, used))
	out := f.Output()
	return vp.tasks(), func(jc context.Context, p int) (*joinProbe, error) {
		ht, err := hj.broadcastTable(jc)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var batch *expr.VecBatch
		// A residual tests the probe cells boxed into a candidate row.
		probe := hj.newProbe(ht, func(i int, dst row.Row) { batch.RowInto(i, dst) })
		probe.cols = make([]*columnar.Vector, len(used)) // the probe columns: gather appends to them batch by batch
		for c := range pipe.Output() {
			if at := hj.probeAt + c; used[at] {
				probe.cols[at] = expr.NewClassVector(out[at].DataType(), 0)
			}
		}
		kvecs := make([]*columnar.Vector, len(k.evals))
		err = vp.each(jc, p, func(b *expr.VecBatch, live []int32) {
			for i, kv := range k.evals {
				kvecs[i] = kv(b, live)
			}
			if k.boxed > 0 {
				vp.fallbackRows.Add(int64(len(live) * k.boxed))
			}
			batch = b
			probe.batch(kvecs, live)
			probe.gather(b.Cols)
		})
		for c := range used { // the build columns: the rest of the used ones
			if used[c] && probe.cols[c] == nil {
				probe.cols[c] = probe.buildColumn(c-hj.buildAt, out[c].DataType())
			}
		}
		om.RecordPartition(len(probe.bo)+len(probe.out), time.Since(start))
		return probe, err
	}
}

// probeReads is what the join reads of its probe pipeline's output, as the
// pipeline's sink: the probe columns its consumer marked used, the probe keys
// and the probe columns the residual tests.
func (f *FusedBroadcastJoinExec) probeReads(hj *hashJoin, used []bool) []expr.Expression {
	j := f.Join
	probeOut, keys := j.Left.Output(), j.LeftKeys
	if !j.BuildRight {
		probeOut, keys = j.Right.Output(), j.RightKeys
	}
	reads := make([]bool, hj.width)
	copy(reads, used)
	if j.Residual != nil {
		joined := append(append([]*expr.AttributeReference{}, j.Left.Output()...), j.Right.Output()...)
		markBoundRefs(bind(j.Residual, joined), reads)
	}
	sink := bindAll(keys, probeOut)
	for c, a := range probeOut {
		if reads[hj.probeAt+c] {
			sink = append(sink, bind(a, probeOut))
		}
	}
	return sink
}

// ---------------------------------------------------------------------------
// The hash joins' build side and probe loop

// joinTable is a hash join's build side: a groupTable over the build keys
// and the build rows bucketed by group index (CSR: group g's rows are
// ords[offsets[g]:offsets[g+1]], in build-collect order). Rows with a NULL
// key component are never indexed — NULL matches nothing in an equi-join — so
// a probe's NULL key looks up as a miss like any other absent key. Once built
// the table is only read: concurrent probe tasks share it.
type joinTable struct {
	groups  *groupTable
	rows    []row.Row
	offsets []int32
	ords    []int32
}

// newJoinTable indexes the collected build side, reading its keys a chunk at
// a time through keys.
func newJoinTable(rows []row.Row, keys *keyChunk) *joinTable {
	t := &joinTable{rows: rows}
	t.groups = keyTable(keys.types, keys.typed, len(rows))
	group := make([]int32, len(rows)) // per build row; -1 = NULL key
	var probe groupProbe
	var live []int32
	for off := 0; off < len(rows); off += rowChunk {
		vecs, all := keys.load(rows[off:min(off+rowChunk, len(rows))])
		live = live[:0]
		for _, i := range all {
			if anyNull(vecs, int(i)) {
				group[off+int(i)] = -1
			} else {
				live = append(live, i)
			}
		}
		gidx := t.groups.indexBatch(vecs, live, &probe, true)
		for k, i := range live {
			group[off+int(i)] = gidx[k]
		}
	}
	n := t.groups.count()
	t.offsets = make([]int32, n+1)
	for _, g := range group {
		if g >= 0 {
			t.offsets[g+1]++
		}
	}
	for g := 0; g < n; g++ {
		t.offsets[g+1] += t.offsets[g]
	}
	t.ords = make([]int32, t.offsets[n])
	next := slices.Clone(t.offsets[:n])
	for o, g := range group {
		if g >= 0 {
			t.ords[next[g]] = int32(o)
			next[g]++
		}
	}
	return t
}

func anyNull(vecs []*columnar.Vector, i int) bool {
	for _, v := range vecs {
		if v.IsNull(i) {
			return true
		}
	}
	return false
}

// joinProbe is one task's probe of a joinTable — the one probe loop, and the
// one place a joined row is null-extended, semi-joined or tested against the
// residual, behind the broadcast, shuffled and fused hash joins. It yields
// (probe position, build ordinal) pairs: emit boxes one into an output row for
// a row consumer, or keeps it for a batch consumer's columns. The join type is
// read from the probe side: an outer join preserves the probe rows (LEFT OUTER
// probes from the left, RIGHT OUTER from the right, FULL OUTER additionally
// tracks which build rows matched), and LEFT SEMI emits a probe row once if
// anything matches.
type joinProbe struct {
	h *hashJoin
	t *joinTable
	// fill writes probe row i's cells into dst, the probe columns of an output
	// row: a copy for a row input, the boxing of a batch position into the
	// candidate a residual tests for a fused pipeline.
	fill func(i int, dst row.Row)
	out  []row.Row
	// cols, when non-nil, are the output columns of a batch consumer (nil
	// where it reads none). bo holds the build ordinal of every output pair of
	// the partition, -1 where there is no build row, and pi the probe position
	// of those of the batch being probed, until gather.
	cols   []*columnar.Vector
	pi, bo []int32
	// matched (FULL OUTER only) marks the build rows some probe row matched;
	// the rest — NULL-keyed ones included — are the join's remainder.
	matched []bool
	keys    groupProbe
}

func (h *hashJoin) newProbe(t *joinTable, fill func(i int, dst row.Row)) *joinProbe {
	p := &joinProbe{h: h, t: t, fill: fill}
	if h.jt == plan.FullOuterJoin {
		p.matched = make([]bool, len(t.rows))
	}
	return p
}

// candidate starts an output row: probe row i's cells in place, the build
// side's NULL.
func (p *joinProbe) candidate(i int32) row.Row {
	r := make(row.Row, p.h.width)
	p.fill(int(i), r[p.h.probeAt:])
	return r
}

// batch probes the live rows of one batch of key vectors, in order; a probe
// row's matches come out in build-collect order. With a residual each match
// is first written into a candidate output row, which the residual accepts —
// a row consumer gets it as is — or rejects, leaving it for the probe row's
// next match.
func (p *joinProbe) batch(kvecs []*columnar.Vector, live []int32) {
	h, t := p.h, p.t
	semi := h.jt == plan.LeftSemiJoin
	outer := h.jt == plan.LeftOuterJoin || h.jt == plan.RightOuterJoin || h.jt == plan.FullOuterJoin
	gidx := t.groups.indexBatch(kvecs, live, &p.keys, false)
	for k, i := range live {
		var cand row.Row
		matched := false
		if g := gidx[k]; g >= 0 {
			for _, o := range t.ords[t.offsets[g]:t.offsets[g+1]] {
				if h.residual != nil {
					if cand == nil {
						cand = p.candidate(i)
					}
					copy(cand[h.buildAt:], t.rows[o])
					if !h.residual(cand) {
						continue
					}
				}
				matched = true
				if semi {
					break
				}
				if p.matched != nil {
					p.matched[o] = true
				}
				cand = p.emit(i, o, cand)
			}
		}
		switch { // both pair the probe row with no build row
		case semi && matched:
			p.emit(i, -1, cand)
		case outer && !matched:
			p.emit(i, -1, nil) // not cand: a rejected one holds build cells
		}
	}
}

// emit outputs probe row i joined to build row o, or to none when o is -1. A
// batch consumer gets the pair and cand, the residual's scratch row if there is
// one, stays with the caller; a row consumer gets cand, or a fresh row.
func (p *joinProbe) emit(i, o int32, cand row.Row) row.Row {
	if p.cols != nil {
		p.pi, p.bo = append(p.pi, i), append(p.bo, o)
		return cand
	}
	if cand == nil {
		if cand = p.candidate(i); o >= 0 {
			copy(cand[p.h.buildAt:], p.t.rows[o])
		}
	}
	if p.h.jt == plan.LeftSemiJoin {
		// LEFT SEMI builds right: the left row is the candidate's prefix.
		cand = cand[:p.h.buildAt:p.h.buildAt]
	}
	p.out = append(p.out, cand)
	return nil
}

// gather appends the probe cells of the batch just probed, through its pairs'
// positions, to a batch consumer's columns: until the last batch all probe ones.
func (p *joinProbe) gather(probeCols []*columnar.Vector) {
	for c, out := range p.cols {
		if out != nil {
			for _, i := range p.pi {
				out.Append(probeCols[c-p.h.probeAt], int(i))
			}
		}
	}
	p.pi = p.pi[:0]
}

// buildColumn is build column c of the partition's output pairs: the boxed
// build cells unboxed into a lane through the ordinals.
func (p *joinProbe) buildColumn(c int, t types.DataType) *columnar.Vector {
	v := expr.NewClassVector(t, len(p.bo))
	for k, o := range p.bo {
		if o >= 0 {
			v.Set(k, p.t.rows[o][c])
		} else {
			v.SetNull(k)
		}
	}
	return v
}

// finish appends FULL OUTER's remainder — the build rows nothing matched,
// null-extended — and returns the task's output.
func (p *joinProbe) finish() []row.Row {
	for o, hit := range p.matched {
		if !hit {
			r := make(row.Row, p.h.width)
			copy(r[p.h.buildAt:], p.t.rows[o])
			p.out = append(p.out, r)
		}
	}
	return p.out
}
