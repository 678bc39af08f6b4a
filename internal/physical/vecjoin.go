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
)

// FusedBroadcastJoinExec fuses a broadcast hash join's probe into the
// vectorized pipeline it streams: its broadcast exchange indexes the build
// side over lanes, and the probe reads keys off the pipeline's vectors. It is
// a BatchScan too: a pipeline, an aggregate's phase 1 or another fused join
// on top takes its output as columns, one batch per probed batch; a row
// consumer gets them boxed. Either way the output is the row join's: left
// cells first, probe rows in pipeline order, matches in build-collect order.
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

// probeNote is a fused join's EXPLAIN annotation: the group table its keys
// index and its probe key kernels over the pipeline output.
func (j *BroadcastHashJoinExec) probeNote(input []*expr.AttributeReference) string {
	_, _, probe, build := j.sides(j.BuildRight)
	_, typed, fallbacks := joinKernels(probe, input, true)
	return sinkNote("fused: true", keyCmpFor(exprTypes(build), keyNative(len(build), typed)).String(), len(probe), fallbacks)
}

// joinKernels compiles one side's join keys over its input (keyKernels), a
// floating-point key canonicalized as bindKeys does; typed says every key is
// a native kernel over a value class.
func joinKernels(keys []expr.Expression, input []*expr.AttributeReference, codegen bool) (evals []expr.VecEval, typed bool, fallbacks []string) {
	evals, native, fallbacks := keyKernels(keys, input, codegen)
	typed = true
	for i, key := range keys {
		typed = typed && native[i] && expr.VecClassOf(key.DataType()) != expr.VecClassNone
		if columnar.KindOf(key.DataType()) == columnar.KindFloat64 {
			evals[i] = canonFloatKernel(evals[i])
		}
	}
	return evals, typed, fallbacks
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

// OpenBatches implements BatchScan: a probe task hands its consumer one batch
// for each probed batch with a match, every position selected, holding the
// columns the consumer marked used — the probe columns gathered by probe
// position, the build columns by build ordinal (NULL where there is none) —
// in vectors the task reuses from batch to batch. The join's time excludes
// the consumer's, which runs inside the probe loop.
func (f *FusedBroadcastJoinExec) OpenBatches(ctx *ExecContext, used []bool) BatchSource {
	j := f.Join
	pipe := j.probeSide().(*VectorizedPipelineExec)
	om := f.EnableMetrics(ctx.Metrics)
	if om != nil {
		om.Emits = "batches"
	}
	hj := newHashJoin(ctx, om, &j.EquiJoin, j.BuildRight, true)
	table := exchangeOf(j.buildSide()).broadcastTable(ctx, j, hj, used)
	vp := pipe.compile(ctx, om, f.probeReads(hj, used))
	return BatchSource{NumPartitions: vp.tasks(), Stages: append(slices.Clip(vp.src.Stages), table), Batches: func(jc context.Context, p int, _ *expr.Scratch, fn func(datasource.Batch)) error {
		t, err := table.Value(jc)
		if err != nil {
			return err
		}
		start, rows := time.Now(), 0
		var batch *expr.VecBatch
		// A residual tests the probe cells boxed into a candidate row.
		probe := hj.newProbe(t, func(i int, dst row.Row) { copy(dst, batch.RowInto(i, dst)) })
		probe.cols = make([]*columnar.Vector, len(used))
		kvecs := make([]*columnar.Vector, len(hj.probeKeys))
		var sel []int32
		err = vp.each(jc, p, func(b *expr.VecBatch, live []int32) {
			if len(hj.fallbacks) > 0 {
				vp.fallbackRows.Add(int64(len(live) * len(hj.fallbacks)))
			}
			batch = b
			probe.pi, probe.bo = probe.pi[:0], probe.bo[:0]
			probe.batch(evalKeys(hj.probeKeys, kvecs, b, live), live)
			n := len(probe.bo)
			if n == 0 {
				return
			}
			for c, out := range probe.cols {
				switch at := c - hj.probeAt; {
				case !used[c]:
				case at >= 0 && at < len(b.Cols): // a probe column
					probe.cols[c] = b.Cols[at].GatherInto(out, probe.pi)
				default:
					probe.cols[c] = t.cols[c-hj.buildAt].GatherInto(out, probe.bo)
				}
			}
			if len(sel) < n {
				sel = identitySel(n)
			}
			in := time.Now()
			fn(datasource.Batch{Cols: probe.cols, N: n, Sel: sel[:n:n]})
			start, rows = start.Add(time.Since(in)), rows+n // the consumer's time is not the join's
		})
		om.RecordPartition(rows, time.Since(start))
		return err
	}}
}

// indexLanes indexes a build side held whole as lanes, every row selected:
// the build keys' kernels run once over all of its rows, and a fused join's
// probe gathers its columns.
func (h *hashJoin) indexLanes(b *expr.VecBatch, all []int32) *joinTable {
	vecs := evalKeys(h.buildKeys, make([]*columnar.Vector, len(h.buildKeys)), b, all)
	t := h.index(b.N, func(int, int) ([]*columnar.Vector, int) { return vecs, 0 })
	t.cols = b.Cols
	return t
}

// probeReads is what the join reads of its probe pipeline's output, as the
// pipeline's sink: the probe columns its consumer marked used, the probe keys
// and the probe columns the residual tests.
func (f *FusedBroadcastJoinExec) probeReads(hj *hashJoin, used []bool) []expr.Expression {
	j := f.Join
	_, _, keys, _ := j.sides(j.BuildRight)
	probeOut := j.probeSide().Output()
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
	groups *groupTable
	// rows are the build rows a row join copies and a residual tests (nil for
	// a build collected as lanes); cols the build columns as lanes, which a
	// fused join's probe gathers (nil where none is read).
	rows    []row.Row
	cols    []*columnar.Vector
	offsets []int32
	ords    []int32
}

// index builds the join table over a build side's n rows, in order, a
// rowChunk at a time, and records its groups. keys(lo, hi) returns the key
// vectors of rows lo..hi-1, build row i at position i-at of them.
func (h *hashJoin) index(n int, keys func(lo, hi int) (vecs []*columnar.Vector, at int)) *joinTable {
	t := &joinTable{groups: newGroupTable(h.keyTypes, keyNative(len(h.keyTypes), h.typed), n)}
	group := make([]int32, n) // per build row; -1 = NULL key
	var probe groupProbe
	live := make([]int32, 0, min(rowChunk, n))
	for lo := 0; lo < n; lo += rowChunk {
		hi := min(lo+rowChunk, n)
		vecs, at := keys(lo, hi)
		live = live[:0]
		for i := lo; i < hi; i++ {
			if group[i] = -1; !anyNull(vecs, i-at) {
				live = append(live, int32(i-at))
			}
		}
		for k, g := range t.groups.indexBatch(vecs, live, &probe, true) {
			group[int(live[k])+at] = g
		}
	}
	groups := t.groups.count()
	t.offsets = make([]int32, groups+1)
	for _, g := range group {
		if g >= 0 {
			t.offsets[g+1]++
		}
	}
	for g := 0; g < groups; g++ {
		t.offsets[g+1] += t.offsets[g]
	}
	t.ords = make([]int32, t.offsets[groups])
	next := slices.Clone(t.offsets[:groups])
	for o, g := range group {
		if g >= 0 {
			t.ords[next[g]] = int32(o)
			next[g]++
		}
	}
	h.om.RecordTable(groups, int(t.groups.grows))
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
	// cols, when non-nil, are a batch consumer's output columns (nil where it
	// reads none), reused from batch to batch; pi and bo hold the probe
	// position and the build ordinal (-1: no build row) of every output pair
	// of the batch being probed.
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
	if p.cols != nil { // grown by doubling: append's 1.25x would re-copy them five times over
		n := len(p.bo)
		p.pi, p.bo = columnar.GrowLane(p.pi, n+1), columnar.GrowLane(p.bo, n+1)
		p.pi[n], p.bo[n] = i, o
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
