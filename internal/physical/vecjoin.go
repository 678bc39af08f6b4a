package physical

import (
	"context"
	"slices"
	"time"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
)

// FusedBroadcastJoinExec is the whole-stage fusion of a vectorized pipeline
// with a broadcast-hash-join probe: the build side is loaded once into a
// joinTable, and the probe loop reads join keys straight off the pipeline's
// column vectors, boxing a probe row only when it reaches the output (a match,
// a null-extension, a residual's candidate). The probe pipeline is whichever
// input BroadcastHashJoinExec would stream — the left when the build side is
// the right one, the right otherwise — and the emitted rows are byte-identical
// to the row join's, for every join type, key shape and residual: left cells
// before right cells, probe rows in pipeline order, matches in build-collect
// order.
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
	_, table := keyTable(exprTypes(buildKeys), k.typed, 0)
	k.note = fusedNote(table, len(keys), fallbacks)
	return k
}

// canonFloatKernel is bindKeys' floating-point canonicalization for a key
// that arrives as a kernel's vector instead of a row evaluator's value.
func canonFloatKernel(ev expr.VecEval) expr.VecEval {
	return func(b *expr.VecBatch, sel []int32) *columnar.Vector {
		v := ev(b, sel)
		out := columnar.NewAnyVector(v.Type, b.N)
		for _, i := range sel {
			out.Set(int(i), canonFloat(v.Get(int(i))))
		}
		return out
	}
}

func (f *FusedBroadcastJoinExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	j := f.Join
	pipe := j.probeSide().(*VectorizedPipelineExec)
	om := f.EnableMetrics(ctx.Metrics)
	k := j.compileProbeKeys(pipe.Output())
	hj := newHashJoin(ctx, om, &j.EquiJoin, j.BuildRight, k.typed)
	hj.broadcast = j.buildSide().Execute(ctx)
	vp := pipe.compile(ctx, om, nil)
	return rdd.GenerateCtx(ctx.RDD, "fusedJoinProbe", vp.src.NumPartitions, func(jc context.Context, p int) ([]row.Row, error) {
		ht, err := hj.broadcastTable(jc)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var batch *expr.VecBatch
		// The probe cells are boxed straight into the output row.
		probe := hj.newProbe(ht, func(i int, dst row.Row) {
			for c, v := range batch.Cols {
				dst[c] = v.Get(i)
			}
		})
		kvecs := make([]*columnar.Vector, len(k.evals))
		vp.each(p, func(b *expr.VecBatch, live []int32) {
			for i, kv := range k.evals {
				kvecs[i] = kv(b, live)
			}
			if k.boxed > 0 {
				vp.fallbackRows.Add(int64(len(live) * k.boxed))
			}
			batch = b
			probe.batch(kvecs, live)
		})
		out := probe.finish()
		om.RecordPartition(len(out), time.Since(start))
		return out, nil
	})
}

// ---------------------------------------------------------------------------
// The hash joins' build side and probe loop

// joinTable is a hash join's build side: a groupIndexer over the build keys
// and the build rows bucketed by group index (CSR: group g's rows are
// ords[offsets[g]:offsets[g+1]], in build-collect order). Rows with a NULL
// key component are never indexed — NULL matches nothing in an equi-join — so
// a probe's NULL key looks up as a miss like any other absent key. Once built
// the table is only read: concurrent probe tasks share it.
type joinTable struct {
	groups  groupIndexer
	rows    []row.Row
	offsets []int32
	ords    []int32
}

// newJoinTable indexes the collected build side, reading its keys a chunk at
// a time through keys.
func newJoinTable(rows []row.Row, keys *keyChunk) *joinTable {
	t := &joinTable{rows: rows}
	t.groups, _ = keyTable(keys.types, keys.typed, len(rows))
	group := make([]int32, len(rows)) // per build row; -1 = NULL key
	var gidx, live []int32
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
		gidx = t.groups.indexBatch(vecs, live, gidx[:0], true)
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
// one place a joined row is laid out, null-extended, semi-joined or tested
// against the residual, behind the broadcast, shuffled and fused hash joins.
// The join type is read from the probe side: an outer join preserves the
// probe rows (LEFT OUTER probes from the left, RIGHT OUTER from the right, FULL
// OUTER additionally tracks which build rows matched), and LEFT SEMI emits a
// probe row once if anything matches.
type joinProbe struct {
	h *hashJoin
	t *joinTable
	// fill writes probe row i's cells into dst, the probe columns of an output
	// row: a copy for a row input, the boxing of a batch position for a fused
	// pipeline.
	fill func(i int, dst row.Row)
	out  []row.Row
	// matched (FULL OUTER only) marks the build rows some probe row matched;
	// the rest — NULL-keyed ones included — are the join's remainder.
	matched []bool
	gidx    []int32
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
// row's matches come out in build-collect order. Each match is written into a
// candidate output row, which the residual then accepts — it is emitted as is —
// or rejects, leaving it for the probe row's next match.
func (p *joinProbe) batch(kvecs []*columnar.Vector, live []int32) {
	h, t := p.h, p.t
	semi := h.jt == plan.LeftSemiJoin
	outer := h.jt == plan.LeftOuterJoin || h.jt == plan.RightOuterJoin || h.jt == plan.FullOuterJoin
	p.gidx = t.groups.indexBatch(kvecs, live, p.gidx[:0], false)
	for k, i := range live {
		var cand row.Row
		matched := false
		if g := p.gidx[k]; g >= 0 {
			for _, o := range t.ords[t.offsets[g]:t.offsets[g+1]] {
				if cand == nil {
					cand = p.candidate(i)
				}
				copy(cand[h.buildAt:], t.rows[o])
				if h.residual != nil && !h.residual(cand) {
					continue
				}
				matched = true
				if semi {
					break
				}
				if p.matched != nil {
					p.matched[o] = true
				}
				p.out = append(p.out, cand)
				cand = nil
			}
		}
		switch {
		case semi && matched:
			// LEFT SEMI builds right: the left row is the candidate's prefix.
			p.out = append(p.out, cand[:h.buildAt:h.buildAt])
		case outer && !matched:
			p.out = append(p.out, p.candidate(i)) // not cand: a rejected one holds build cells
		}
	}
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
