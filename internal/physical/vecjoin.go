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
// joinTable, and the probe loop reads join keys straight off the decoded
// column vectors, boxing a probe row only when it actually matches (or needs
// null-extension under LEFT OUTER). The probe pipeline is
// the join's left input when the build side is the right one, and its right
// input for an inner join that builds left; either way the emitted rows are
// byte-identical to BroadcastHashJoinExec's: left cells before right cells,
// probe rows in pipeline order, matches in build-collect order.
type FusedBroadcastJoinExec struct {
	PlanEstimate
	PlanMetrics
	FusionNote
	Join *BroadcastHashJoinExec // key/type/build-side config; its probe-side child is unused here
	Pipe *VectorizedPipelineExec
}

func (f *FusedBroadcastJoinExec) Children() []SparkPlan {
	l, r := f.Join.sides(f.Pipe, f.Join.buildSide())
	return []SparkPlan{l, r}
}
func (f *FusedBroadcastJoinExec) WithNewChildren(children []SparkPlan) SparkPlan {
	j := *f.Join
	j.Left, j.Right = children[0], children[1]
	if vp, ok := j.probeSide().(*VectorizedPipelineExec); ok {
		c := *f
		c.Join = &j
		c.Pipe = vp
		return &c
	}
	// The probe pipeline degraded: fall back to the row join.
	return transferEstimate(&j, f)
}
func (f *FusedBroadcastJoinExec) Output() []*expr.AttributeReference {
	l, r := f.Join.sides(f.Pipe, f.Join.buildSide())
	return joinOutput(f.Join.Type, l.Output(), r.Output())
}
func (f *FusedBroadcastJoinExec) SimpleString() string { return "Fused" + f.Join.SimpleString() }
func (f *FusedBroadcastJoinExec) String() string       { return Format(f) }

func (f *FusedBroadcastJoinExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	j := f.Join
	om := f.EnableMetrics(ctx.Metrics)
	// The probe kernels hand over typed lanes whatever the Codegen setting, so
	// the build keys are always typed too.
	hj := newHashJoin(ctx, om, &j.EquiJoin, f.Pipe, j.BuildRight, true)
	hj.broadcast = j.buildSide().Execute(ctx)
	probeKeys, _ := j.probeBuildKeys()
	probeVecs := make([]expr.VecEval, len(probeKeys))
	for i, k := range bindAll(probeKeys, f.Pipe.Output()) {
		// The Fuse rule only admits keys that compile natively.
		probeVecs[i], _ = expr.CompileVec(k)
	}
	vp := f.Pipe.compile(ctx, om, nil)
	return rdd.GenerateCtx(ctx.RDD, "fusedJoinProbe", vp.src.NumPartitions, func(jc context.Context, p int) ([]row.Row, error) {
		ht, err := hj.broadcastTable(jc)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var out []row.Row
		var batch *expr.VecBatch
		// emit joins probe row i with one build row (nil null-extends): the
		// probe cells are boxed straight into the output row.
		probe := ht.newProbe(j.Type, nil, func(i int, b row.Row) {
			r := make(row.Row, hj.width)
			for c, v := range batch.Cols {
				r[hj.probeAt+c] = v.Get(i)
			}
			copy(r[hj.buildAt:], b)
			out = append(out, r)
		})
		kvecs := make([]*columnar.Vector, len(probeVecs))
		vp.each(p, func(b *expr.VecBatch, live []int32) {
			for i, kv := range probeVecs {
				kvecs[i] = kv(b, live)
			}
			batch = b
			probe.batch(kvecs, live)
		})
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

// joinProbe is one task's probe of a joinTable — the one probe loop behind
// the broadcast, shuffled and fused hash joins, for every join type. The
// join type is read from the probe side: an outer join preserves the probe
// rows (LEFT OUTER probes from the left, RIGHT OUTER from the right, FULL
// OUTER additionally tracks which build rows matched), and LEFT SEMI emits a
// probe row once if anything matches.
type joinProbe struct {
	t           *joinTable
	outer, semi bool
	// residual, when non-nil, must also hold for probe row i to match build
	// row b.
	residual func(i int, b row.Row) bool
	// emit receives each output pair: probe row i with build row b, or with
	// nil for a probe row that goes out alone (null-extended, or semi-joined).
	emit func(i int, b row.Row)
	// matched (FULL OUTER only) marks the build rows some probe row matched;
	// the rest — NULL-keyed ones included — are the join's remainder.
	matched []bool
	gidx    []int32
}

func (t *joinTable) newProbe(jt plan.JoinType, residual func(i int, b row.Row) bool, emit func(i int, b row.Row)) *joinProbe {
	p := &joinProbe{t: t, residual: residual, emit: emit, semi: jt == plan.LeftSemiJoin,
		outer: jt == plan.LeftOuterJoin || jt == plan.RightOuterJoin || jt == plan.FullOuterJoin}
	if jt == plan.FullOuterJoin {
		p.matched = make([]bool, len(t.rows))
	}
	return p
}

// batch probes the live rows of one batch of key vectors, in order; a probe
// row's matches come out in build-collect order.
func (p *joinProbe) batch(kvecs []*columnar.Vector, live []int32) {
	t := p.t
	p.gidx = t.groups.indexBatch(kvecs, live, p.gidx[:0], false)
	for k, i := range live {
		matched := false
		if g := p.gidx[k]; g >= 0 {
			for _, o := range t.ords[t.offsets[g]:t.offsets[g+1]] {
				b := t.rows[o]
				if p.residual != nil && !p.residual(int(i), b) {
					continue
				}
				matched = true
				if p.semi {
					break
				}
				if p.matched != nil {
					p.matched[o] = true
				}
				p.emit(int(i), b)
			}
		}
		if (p.semi && matched) || (p.outer && !matched) {
			p.emit(int(i), nil)
		}
	}
}
