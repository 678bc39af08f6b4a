package physical

import (
	"context"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
)

// ExchangeExec is the one place an operator's input is repartitioned (paper
// §4.3.3; Spark SQL's Exchange nodes): the planner puts one under each
// operator that needs it, so no operator knows how its input was partitioned
// and every stage boundary is a node adaptive execution can run and re-plan.
// A hash, range or presplit exchange splits its input into the session's
// bucket count (ShufflePartitions; one for a global aggregate), and its reduce
// tasks, however many, each read a contiguous range of buckets: a reducer
// count never changes which bucket a row lands in, or the order it comes out.
type ExchangeExec struct {
	PlanEstimate // its input's
	PlanMetrics
	FusionNote // a presplit exchange's phase 1: "fused: true, …" over batches, "rows transposed, …"
	Form       ExchangeForm
	Child      SparkPlan
	Keys       []expr.Expression // a hash exchange's keys, a presplit exchange's grouping
	Aggs       []expr.Expression // a presplit exchange's aggregate's results, whose functions phase 1 folds
	Orders     []*expr.SortOrder // a range exchange's sort order
	Partitions int               // when positive, caps the reduce tasks below the bucket count
	SkewSplits []int             // on a shuffled join's probe side: reduce task i cut into SkewSplits[i] probe chunks
	ran        *exchangeRun      // the map side adaptive execution ran, which Execute reads
	batches    bool              // phase 1 reads its child's batches: the Fuse rule fused it,
	sink       *aggSink          // compiling the sink phase 1 reuses (nil once the child was swapped)
	adapted    string            // the adaptive driver's note
}

// ExchangeForm is how an exchange repartitions its input.
type ExchangeForm uint8

const (
	HashExchange      ExchangeForm = iota // by the hash of Keys: a shuffled join's side
	RangeExchange                         // by sampled bounds of Orders, bucket i before bucket i+1: a global sort's input
	PresplitExchange                      // partial blocks phase 1 split by the grouping's hash: an aggregate's input
	BroadcastExchange                     // collected whole, once, and indexed: a join's build side
)

func (f ExchangeForm) String() string {
	return [...]string{"hash", "range", "presplit", "broadcast"}[f]
}

// exchangeRun is an exchange's map side as the adaptive driver ran it.
type exchangeRun struct {
	buckets *rdd.RDD[row.Row]  // hash or range: a partition per bucket
	blocks  *rdd.RDD[aggBlock] // presplit: likewise
	sink    *aggSink           // presplit: phase 1's compiled sink
	build   rdd.Dep            // broadcast: the *rdd.Stage its join read
	input   *rdd.RDD[row.Row]  // replaces the child: a broadcast's collected rows, a promoted build side's buckets
	stats   rdd.MapStats
}

// Adapted is the adaptive driver's note: `adapted: …` or `not adapted: …`.
func (e *ExchangeExec) Adapted() string { return e.adapted }

func (e *ExchangeExec) Children() []SparkPlan { return []SparkPlan{e.Child} }
func (e *ExchangeExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *e
	c.Child, c.sink = children[0], nil
	return &c
}
func (e *ExchangeExec) Output() []*expr.AttributeReference { return e.Child.Output() }
func (e *ExchangeExec) SimpleString() string {
	s := "Exchange " + e.Form.String()
	switch {
	case e.Form == RangeExchange:
		s += " [" + ordersString(e.Orders) + "]"
	case e.Form == PresplitExchange && len(e.Keys) == 0:
		s = "Exchange single"
	case e.Form == HashExchange:
		s += " [" + exprListString(e.Keys) + "]"
	}
	if e.Partitions > 0 {
		s += " parts=" + strconv.Itoa(e.Partitions)
	}
	return s
}
func (e *ExchangeExec) String() string { return Format(e) }

// newExchange is an exchange of child, carrying child's estimate.
func newExchange(form ExchangeForm, child SparkPlan) *ExchangeExec {
	e := &ExchangeExec{Form: form, Child: child}
	transferEstimate(e, child)
	return e
}

// exchangeOf is an operator's input exchange.
func exchangeOf(p SparkPlan) *ExchangeExec { return p.(*ExchangeExec) }

// buckets is how many buckets the exchange splits its input into.
func (e *ExchangeExec) buckets(ctx *ExecContext) int {
	if e.Form == PresplitExchange && len(e.Keys) == 0 {
		return 1
	}
	return max(1, ctx.ShufflePartitions)
}

// reducers is how many reduce tasks read the buckets, a contiguous range each.
func (e *ExchangeExec) reducers(ctx *ExecContext) int {
	if n := e.buckets(ctx); e.Partitions <= 0 || e.Partitions > n {
		return n
	}
	return e.Partitions
}

// input is what the exchange repartitions: its child's rows, or what
// adaptive execution holds of them.
func (e *ExchangeExec) input(ctx *ExecContext) *rdd.RDD[row.Row] {
	if e.ran != nil && e.ran.input != nil {
		return e.ran.input
	}
	return e.Child.Execute(ctx)
}

// Execute is a hash or range exchange's reduce side, a range of buckets a task.
// A presplit or broadcast exchange is read by its operator; as rows it is its
// input.
func (e *ExchangeExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	if e.Form != HashExchange && e.Form != RangeExchange {
		return e.input(ctx)
	}
	out := rdd.Regroup(e.shuffle(ctx), e.reducers(ctx))
	if om := e.EnableMetrics(ctx.Metrics); om != nil {
		out = rdd.MapOutput(out, func(rows []row.Row) []row.Row { om.RecordPartition(len(rows), 0); return rows })
	}
	return out
}

// rowShuffleCodec lets workers fetch each other's buckets instead of
// recomputing a map side from lineage.
var rowShuffleCodec = &rdd.Codec[row.Row]{Encode: columnar.EncodeBlock, Decode: columnar.DecodeBlock}

// shuffle is a hash or range exchange's buckets, a partition each.
func (e *ExchangeExec) shuffle(ctx *ExecContext) *rdd.RDD[row.Row] {
	if e.ran != nil && e.ran.buckets != nil {
		return e.ran.buckets
	}
	in, n := e.input(ctx), e.buckets(ctx)
	if e.Form == HashExchange {
		return rdd.PartitionByHashCodec(in, n, keyHash(bindKeys(ctx, e.Keys, e.Child.Output())), rowShuffleCodec)
	}
	order := bindOrder(ctx, e.Orders, e.Child.Output())
	if n <= 1 {
		return rdd.Coalesce(in, 1)
	}
	return rdd.PartitionByFuncCodec(in, n, func(parts [][]row.Row) func(row.Row) int {
		bounds := sampleBounds(parts, n, order)
		return func(r row.Row) int {
			return sort.Search(len(bounds), func(i int) bool { return order.compare(r, bounds[i]) < 0 })
		}
	}, rowShuffleCodec)
}

// partials is a presplit exchange's reduce side, a range of buckets' partial
// blocks a task (bucket-major, then map task, then chunk), and phase 1's sink.
func (e *ExchangeExec) partials(ctx *ExecContext) (*rdd.RDD[aggBlock], *aggSink) {
	run := e.ran
	if run == nil || run.blocks == nil {
		run = e.mapPartials(ctx)
	}
	return rdd.Regroup(run.blocks, e.reducers(ctx)), run.sink
}

// mapPartials is phase 1, the map-side combine: each map task folds a fused
// pipeline's batches, or its rows transposed a chunk at a time (compiled under
// codegen or once Fuse annotated it), into a partialAgg split into buckets.
func (e *ExchangeExec) mapPartials(ctx *ExecContext) *exchangeRun {
	input := e.Child.Output()
	vp, fused := e.Child.(*VectorizedPipelineExec)
	fused = fused && e.batches
	k := e.sink
	if !fused || k == nil {
		k = compileSink(e.Keys, e.Aggs, input, ctx.Codegen || e.Fusion() != "")
	}
	om := e.EnableMetrics(ctx.Metrics)
	skipped, n, keyTypes := ctx.RDD.Metrics().Counter("agg.partial.skipped"), e.buckets(ctx), exprTypes(e.Keys)
	finish := func(agg *partialAgg, start time.Time) []aggBlock {
		out, groups := agg.finish(om, skipped), int64(0)
		for _, b := range out {
			groups += b.groups()
		}
		om.RecordPartition(int(groups), time.Since(start))
		return out
	}
	var blocks *rdd.RDD[aggBlock]
	if fused {
		pipe := vp.compile(ctx, om, k.refs)
		blocks = rdd.GenerateCtx(ctx.RDD, "fusedAgg", pipe.tasks(), func(jc context.Context, p int) ([]aggBlock, error) {
			start, agg := time.Now(), newPartialAgg(keyTypes, k.native, k.newLanes, n) // all the task's mutable state
			err := pipe.each(jc, p, func(batch *expr.VecBatch, live []int32) {
				agg.addBatch(k.keyEvals, batch, live)
				if boxed := len(k.fallbacks); boxed > 0 {
					pipe.fallbackRows.Add(int64(len(live) * boxed))
				}
			})
			return finish(&agg, start), err
		}).Reads(pipe.src.Stages...)
	} else {
		used := make([]bool, len(input))
		for _, r := range k.refs {
			markBoundRefs(r, used)
		}
		blocks = rdd.MapPartitions(e.Child.Execute(ctx), func(_ int, in []row.Row) []aggBlock {
			start, agg := time.Now(), newPartialAgg(keyTypes, k.native, k.newLanes, n)
			chunks := newTransposer(input, used, k.codegen)
			for off := 0; off < len(in); off += rowChunk {
				b, all := chunks.load(in[off:min(off+rowChunk, len(in))])
				agg.addBatch(k.keyEvals, b, all)
			}
			return finish(&agg, start)
		})
	}
	return &exchangeRun{blocks: rdd.ExchangePresplit(blocks, n, n, aggBlock.groups), sink: k}
}

// rowsSize sums the approximate in-memory size of a collected build side.
func rowsSize(rows []row.Row) int64 {
	var n int64
	for _, r := range rows {
		n += r.ObjectSize()
	}
	return n
}

// BuildStage is a join's build side run as a stage: collected once per query,
// before any probe task starts, its size recorded for the build metric, and
// turned by index into the value the probe tasks read.
func BuildStage[V any](build *rdd.RDD[row.Row], om *OperatorMetrics, index func(rows []row.Row) V) *rdd.Stage[V] {
	return collectStage(build, om, nil, nil, index)
}

// collectStage is BuildStage recording the rows on the exchange's ex and run.
func collectStage[V any](build *rdd.RDD[row.Row], om, ex *OperatorMetrics, run *exchangeRun, index func(rows []row.Row) V) *rdd.Stage[V] {
	return rdd.NewStage(build, func(_ context.Context, parts [][]row.Row) (V, error) {
		start, rows := time.Now(), slices.Concat(parts...)
		if om != nil || run != nil {
			bytes := rowsSize(rows)
			om.RecordBuild(len(rows), bytes)
			if run != nil {
				run.input = rdd.Parallelize(build.Ctx(), rows, 1)
				run.stats = rdd.MapStats{Records: []int64{int64(len(rows))}, Bytes: []int64{bytes}}
			}
		}
		v := index(rows)
		ex.RecordPartition(len(rows), time.Since(start))
		return v, nil
	})
}

// broadcastStage is a broadcast exchange collected and indexed for its join:
// the stage adaptive execution ran, or a new one.
func broadcastStage[V any](e *ExchangeExec, ctx *ExecContext, om *OperatorMetrics, index func(rows []row.Row) V) *rdd.Stage[V] {
	if e.ran != nil {
		if s, ok := e.ran.build.(*rdd.Stage[V]); ok {
			return s
		}
	}
	s := collectStage(e.input(ctx), om, e.EnableMetrics(ctx.Metrics), e.ran, index)
	if e.ran != nil {
		e.ran.build = s
	}
	return s
}

// broadcastTable is a fused join's build side, indexed over lanes: a batch
// pipeline (or scan) with native keys and no residual is gathered as lanes,
// concatenated once; any other is collected as rows (kept for a residual or a
// key with no kernel) and transposed. EXPLAIN ANALYZE says which build ran.
func (e *ExchangeExec) broadcastTable(ctx *ExecContext, j *BroadcastHashJoinExec, hj *hashJoin, outUsed []bool) *rdd.Stage[*joinTable] {
	_, _, _, keys := j.sides(j.BuildRight)
	pipe, out := fusablePipe(e.Child), e.Output()
	keep := make([]bool, len(out)) // the lanes: the build columns used, then those the keys read too
	for c := range keep {
		keep[c] = hj.buildAt+c < len(outUsed) && outUsed[hj.buildAt+c] || hj.buildReads[c] // none used under LEFT SEMI
	}
	build := "lanes"
	if j.Residual != nil {
		build = "boxed: residual"
	} else if _, typed, _ := joinKernels(keys, out, true); !typed {
		build = "boxed: non-native build key"
	}
	if hj.om != nil {
		hj.om.Build = build
	}
	if pipe == nil || build != "lanes" {
		return broadcastStage(e, ctx, hj.om, func(rows []row.Row) *joinTable {
			t := hj.indexLanes(newTransposer(out, keep, true).load(rows))
			if j.Residual != nil {
				t.rows = rows
			}
			return t
		})
	}
	var sink []expr.Expression
	for c, a := range out {
		if keep[c] {
			sink = append(sink, bind(a, out))
		}
	}
	pm := pipe.EnableMetrics(ctx.Metrics)
	vp := pipe.compile(ctx, pm, sink)
	gathered := rdd.GenerateCtx(ctx.RDD, "joinBuild", vp.tasks(), func(jc context.Context, p int) ([][]*columnar.Vector, error) {
		start, rows := time.Now(), 0
		var part [][]*columnar.Vector
		err := vp.each(jc, p, func(b *expr.VecBatch, live []int32) {
			cols := make([]*columnar.Vector, len(out))
			for c, k := range keep {
				if k {
					cols[c] = b.Cols[c].GatherInto(nil, live)
				}
			}
			part, rows = append(part, cols), rows+len(live)
		})
		pm.RecordPartition(rows, time.Since(start))
		return part, err
	}).Reads(vp.src.Stages...)
	em := e.EnableMetrics(ctx.Metrics)
	return rdd.NewStage(gathered, func(_ context.Context, parts [][][]*columnar.Vector) (*joinTable, error) {
		start, batches := time.Now(), slices.Concat(parts...)
		all, col, size := make([]*columnar.Vector, len(out)), make([]*columnar.Vector, len(batches)), int64(0)
		for c, k := range keep {
			if k {
				for i, b := range batches {
					col[i] = b[c]
				}
				all[c] = columnar.Concat(out[c].DataType(), col)
				size += all[c].SizeBytes()
			}
		}
		n := all[slices.Index(keep, true)].Len() // every key reads a column
		hj.om.RecordBuild(n, size)
		t := hj.indexLanes(&expr.VecBatch{Cols: all, N: n, Scratch: new(expr.Scratch)}, identitySel(n))
		em.RecordPartition(n, time.Since(start))
		return t, nil
	})
}

// zipBuckets is a shuffled join's reduce side: a task per range of buckets,
// joined one bucket after another (so the output does not depend on the
// reducer count), or per probe chunk of a skew-split range, joined against the
// range's whole build side.
func zipBuckets(ctx *ExecContext, probe, build *ExchangeExec, t plan.JoinType, join func(ps, bs []row.Row) []row.Row) *rdd.RDD[row.Row] {
	n, reducers := probe.buckets(ctx), probe.reducers(ctx)
	refs := skewChunks(probe.SkewSplits, reducers, t)
	pm, bm := probe.EnableMetrics(ctx.Metrics), build.EnableMetrics(ctx.Metrics)
	return rdd.ZipAt(probe.shuffle(ctx), build.shuffle(ctx), len(refs), func(q int) (int, int) {
		return refs[q].part * n / reducers, (refs[q].part + 1) * n / reducers
	}, func(_ context.Context, q int, ps, bs [][]row.Row) ([]row.Row, error) {
		ref := refs[q]
		var out []row.Row
		for b := range ps {
			if ref.idx == 0 { // a split task's chunks share its buckets: count them once
				pm.RecordPartition(len(ps[b]), 0)
				bm.RecordPartition(len(bs[b]), 0)
			}
			if ref.of == 1 && len(ps[b])+len(bs[b]) > 0 {
				if o := join(ps[b], bs[b]); out == nil {
					out = o // a one-bucket range's output as it is
				} else {
					out = append(out, o...)
				}
			}
		}
		if ref.of > 1 {
			p := slices.Concat(ps...)
			return join(p[len(p)*ref.idx/ref.of:len(p)*(ref.idx+1)/ref.of], slices.Concat(bs...)), nil
		}
		return out, nil
	})
}

// chunkRef addresses one probe-side chunk of one reduce task.
type chunkRef struct {
	part, idx, of int
}

// skewChunks is a shuffled join's task list: reduce task p cut into splits[p]
// probe chunks, in (task, chunk) order, or one task a range where splitting
// does not apply (no or mismatched splits, or a join type skewSplittable refuses).
func skewChunks(splits []int, n int, t plan.JoinType) []chunkRef {
	if len(splits) != n || !skewSplittable(t) || slices.ContainsFunc(splits, func(s int) bool { return s < 1 }) {
		splits = make([]int, n)
		for p := range splits {
			splits[p] = 1
		}
	}
	refs := make([]chunkRef, 0, n)
	for p, of := range splits {
		for c := 0; c < of; c++ {
			refs = append(refs, chunkRef{part: p, idx: c, of: of})
		}
	}
	return refs
}
