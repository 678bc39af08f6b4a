package physical

import (
	"cmp"
	"container/heap"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/types"
)

// SortExec orders each partition of its input through the external sorter:
// in memory without a memory budget, spilling runs to the DFS under one. A
// global sort's input is a range exchange on sampled sort-key boundaries
// (Spark's range-partitioned sort), so every partition sorts in parallel and
// partition order is total order.
type SortExec struct {
	PlanEstimate
	PlanMetrics
	Orders []*expr.SortOrder
	Global bool
	Child  SparkPlan
}

func (s *SortExec) Children() []SparkPlan { return []SparkPlan{s.Child} }
func (s *SortExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *s
	c.Child = children[0]
	return &c
}
func (s *SortExec) Output() []*expr.AttributeReference { return s.Child.Output() }
func (s *SortExec) SimpleString() string {
	return fmt.Sprintf("Sort [%s] global=%v", ordersString(s.Orders), s.Global)
}
func (s *SortExec) String() string { return Format(s) }

func ordersString(orders []*expr.SortOrder) string {
	os := make([]expr.Expression, len(orders))
	for i, o := range orders {
		os[i] = o
	}
	return exprListString(os)
}

// sortOrder is a sort order bound once over rows of its input: per key, its
// evaluator (ctx.evaluator, so the interpreted engine interprets), its type
// and whether it descends.
type sortOrder struct {
	evals []func(row.Row) any
	types []types.DataType
	desc  []bool
}

func bindOrder(ctx *ExecContext, orders []*expr.SortOrder, input []*expr.AttributeReference) *sortOrder {
	n := len(orders)
	o := &sortOrder{evals: make([]func(row.Row) any, n), types: make([]types.DataType, n), desc: make([]bool, n)}
	for i, so := range orders {
		e := bind(so.Child, input)
		o.evals[i], o.types[i], o.desc[i] = ctx.evaluator(e), e.DataType(), so.Descending
	}
	return o
}

// compare orders row a against row b, -1, 0 or 1, evaluating each key as far
// as the first that differs.
func (o *sortOrder) compare(a, b row.Row) int {
	for i, ev := range o.evals {
		c := row.Compare(ev(a), ev(b))
		if o.desc[i] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// lanes evaluates each key once per row into a typed lane.
func (o *sortOrder) lanes(rows []row.Row) keyLanes {
	l := keyLanes{keys: make([]*columnar.Vector, len(o.evals)), desc: o.desc}
	for k, ev := range o.evals {
		l.keys[k] = columnar.NewVector(o.types[k], len(rows))
		for i, r := range rows {
			l.keys[k].Set(i, ev(r))
		}
	}
	return l
}

// sort returns rows in their stable order: an index sort over their key lanes
// (keyLanes.compare, the position last), the rows gathered once in its order.
func (o *sortOrder) sort(rows []row.Row) []row.Row {
	if len(rows) < 2 {
		return rows
	}
	perm := identitySel(len(rows))
	slices.SortFunc(perm, o.lanes(rows).compare)
	return gatherRows(rows, perm)
}

// gatherRows returns the rows at the positions of sel, in its order.
func gatherRows(rows []row.Row, sel []int32) []row.Row {
	out := make([]row.Row, len(sel))
	for i, p := range sel {
		out[i] = rows[p]
	}
	return out
}

func (s *SortExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	order := bindOrder(ctx, s.Orders, s.Child.Output())
	om := s.EnableMetrics(ctx.Metrics)
	return rdd.MapPartitionsCtx(s.Child.Execute(ctx), func(_ context.Context, _ int, in []row.Row) ([]row.Row, error) {
		start := time.Now()
		sorter := newExternalSorter(ctx, "sort", order)
		defer sorter.Close()
		if err := sorter.Add(in...); err != nil {
			return nil, err
		}
		out, err := sorter.Finish()
		if err != nil {
			return nil, err
		}
		om.RecordPartition(len(out), time.Since(start))
		om.RecordSpill(sorter.Stats())
		return out, nil
	})
}

// LimitExec keeps the first N rows, scanning partitions in order.
type LimitExec struct {
	PlanEstimate
	PlanMetrics
	N     int
	Child SparkPlan
}

func (l *LimitExec) Children() []SparkPlan { return []SparkPlan{l.Child} }
func (l *LimitExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *l
	c.Child = children[0]
	return &c
}
func (l *LimitExec) Output() []*expr.AttributeReference { return l.Child.Output() }
func (l *LimitExec) SimpleString() string               { return fmt.Sprintf("Limit %d", l.N) }
func (l *LimitExec) String() string                     { return Format(l) }

func (l *LimitExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	child := l.Child.Execute(ctx)
	n := l.N
	// The limit's single task reads the child's partitions in order until it
	// has n rows — a narrow read, like a coalesce, so the child's stages are
	// its stages and have run when it starts.
	om := l.EnableMetrics(ctx.Metrics)
	return rdd.GenerateCtx(ctx.RDD, "limit", 1, func(jc context.Context, _ int) ([]row.Row, error) {
		start := time.Now()
		out, err := rdd.TakeContext(jc, child, n)
		if err == nil {
			om.RecordPartition(len(out), time.Since(start))
		}
		return out, err
	}).Reads(child.Stages()...)
}

// topKMax is the largest LIMIT that plans, directly over a global ORDER BY, as
// a TopKExec: its n candidates per child partition are held outside the memory
// budget, harmless up to here; past it SortExec, whose runs spill, keeps the job.
const topKMax = 1000

// TopKExec is ORDER BY ... LIMIT n for n up to topKMax: every child partition
// keeps its n first rows under the sort order in a bounded heap, and one task
// merges the partitions' candidates — no sampling exchange, no full sort. Ties
// break on (child partition, input position): the order the stable
// range-partitioned sort and the limit over it produce. Over a batch top the
// heap runs inside the child's tasks, over each output batch's typed lanes
// (topSink), so only the rows a batch keeps are boxed.
type TopKExec struct {
	PlanEstimate
	PlanMetrics
	N      int
	Orders []*expr.SortOrder
	Child  SparkPlan
}

func (t *TopKExec) Children() []SparkPlan { return []SparkPlan{t.Child} }
func (t *TopKExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *t
	c.Child = children[0]
	return &c
}
func (t *TopKExec) Output() []*expr.AttributeReference { return t.Child.Output() }
func (t *TopKExec) SimpleString() string {
	return fmt.Sprintf("TopK n=%d [%s]", t.N, ordersString(t.Orders))
}
func (t *TopKExec) String() string { return Format(t) }

func (t *TopKExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] { return boxedRows(t, ctx) }

// Results implements BatchTop: the merge task hands its at most N rows to
// sink as one batch.
func (t *TopKExec) Results(ctx *ExecContext, sink ResultSink) *rdd.RDD[expr.Arena] {
	order := bindOrder(ctx, t.Orders, t.Child.Output())
	om := t.EnableMetrics(ctx.Metrics)
	keep := func(in []row.Row) []row.Row {
		out := topRows(in, t.N, order)
		if om != nil {
			om.KeptRows.Add(int64(len(out)))
		}
		return out
	}
	var tops *rdd.RDD[row.Row]
	if top, ok := t.Child.(BatchTop); ok {
		// A partition's batches each box their best N rows, which its task
		// cuts to the partition's best N.
		tops = rdd.MapOutput(top.Results(ctx, t.topSink(ctx, om, order.desc)), func(arenas []expr.Arena) []row.Row {
			return keep(expr.CutRows(arenas))
		})
	} else {
		tops = rdd.MapPartitions(t.Child.Execute(ctx), func(_ int, in []row.Row) []row.Row {
			if om != nil {
				om.InputRows.Add(int64(len(in)))
			}
			return keep(in)
		})
	}
	// The partitions' candidates are a stage; one task merges them.
	cands := rdd.NewStage(tops, func(_ context.Context, parts [][]row.Row) ([]row.Row, error) {
		return slices.Concat(parts...), nil
	})
	attrs := t.Output()
	return rdd.GenerateCtx(ctx.RDD, "topK", 1, func(jc context.Context, _ int) ([]expr.Arena, error) {
		start := time.Now()
		in, err := cands.Value(jc)
		if err != nil {
			return nil, err
		}
		out := topRows(in, t.N, order)
		b, all := newTransposer(attrs, nil, false).load(out)
		om.RecordPartition(len(out), time.Since(start))
		return []expr.Arena{sink(b.Cols, all)}, nil
	}).Reads(cands)
}

// topSink is the ResultSink TopK hands a batch child: it evaluates the order
// keys over the batch as kernels, selects the batch's N first positions under
// the order in a bounded heap over the keys' lanes, and boxes those alone, in
// position order.
func (t *TopKExec) topSink(ctx *ExecContext, om *OperatorMetrics, desc []bool) ResultSink {
	input := t.Child.Output()
	keys := make([]expr.VecEval, len(t.Orders))
	for i, o := range t.Orders {
		keys[i], _ = vecKernel(bind(o.Child, input), ctx.Codegen)
	}
	return func(cols []*columnar.Vector, sel []int32) expr.Arena {
		if om != nil {
			om.InputRows.Add(int64(len(sel)))
		}
		if len(sel) > t.N {
			batch := &expr.VecBatch{Cols: cols, N: int(sel[len(sel)-1]) + 1}
			h := &posHeap{keyLanes: keyLanes{keys: make([]*columnar.Vector, len(keys)), desc: desc}}
			for i, ev := range keys {
				h.keys[i] = ev(batch, sel)
			}
			sel = h.top(sel, t.N)
		}
		return BoxSink(cols, sel)
	}
}

// keyLanes are a sort order's keys evaluated over a batch or a run, one lane
// per key, and which of them descend: the one comparator over key lanes, for
// sort runs and for top-K's batches and candidates alike.
type keyLanes struct {
	keys []*columnar.Vector
	desc []bool
}

// compare orders position a against position b: the keys in order (desc flips
// a key), ties broken by position, so distinct positions never compare equal
// and any sort under it is the stable sort.
func (l keyLanes) compare(a, b int32) int {
	for k, v := range l.keys {
		c := v.CompareAt(int(a), v, int(b))
		if l.desc[k] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return cmp.Compare(a, b)
}

// posHeap holds the batch positions a top-K keeps so far with the worst at
// its root: the last under its key lanes.
type posHeap struct {
	keyLanes
	pos []int32
}

func (h *posHeap) Len() int           { return len(h.pos) }
func (h *posHeap) Less(i, j int) bool { return h.compare(h.pos[j], h.pos[i]) < 0 }
func (h *posHeap) Swap(i, j int)      { h.pos[i], h.pos[j] = h.pos[j], h.pos[i] }
func (h *posHeap) Push(any)           { panic("posHeap is filled in place") }
func (h *posHeap) Pop() any           { panic("posHeap is filled in place") }

// top returns the n first positions of the ascending selection sel, in
// ascending order: the first n seed the heap, and each later position
// replaces the root when it comes before it.
func (h *posHeap) top(sel []int32, n int) []int32 {
	if n <= 0 {
		return nil
	}
	h.pos = slices.Clone(sel[:n])
	heap.Init(h)
	for _, i := range sel[n:] {
		if h.compare(i, h.pos[0]) < 0 {
			h.pos[0] = i
			heap.Fix(h, 0)
		}
	}
	slices.Sort(h.pos)
	return h.pos
}

// topRows returns the n first rows of in under order, sorted, equal rows in
// input order: the bounded heap over their key lanes keeps n positions, which
// are then sorted and gathered.
func topRows(in []row.Row, n int, order *sortOrder) []row.Row {
	h := &posHeap{keyLanes: order.lanes(in)}
	kept := identitySel(len(in))
	if len(in) > n {
		kept = h.top(kept, n)
	}
	slices.SortFunc(kept, h.compare)
	return gatherRows(in, kept)
}

// UnionExec concatenates children partitions.
type UnionExec struct {
	PlanEstimate
	PlanMetrics
	Kids []SparkPlan
}

func (u *UnionExec) Children() []SparkPlan { return u.Kids }
func (u *UnionExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *u
	c.Kids = children
	return &c
}
func (u *UnionExec) Output() []*expr.AttributeReference { return u.Kids[0].Output() }
func (u *UnionExec) SimpleString() string               { return "Union" }
func (u *UnionExec) String() string                     { return Format(u) }

func (u *UnionExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	out := u.Kids[0].Execute(ctx)
	for _, k := range u.Kids[1:] {
		out = rdd.Union(out, k.Execute(ctx))
	}
	om := u.EnableMetrics(ctx.Metrics)
	if om == nil {
		return out
	}
	// Union has no compute of its own; counting needs a pass-through stage.
	return rdd.MapPartitions(out, func(_ int, in []row.Row) []row.Row {
		om.RecordPartition(len(in), 0)
		return in
	})
}

// SampleExec keeps a deterministic pseudo-random fraction of rows using a
// splittable hash of (seed, partition, index).
type SampleExec struct {
	PlanEstimate
	PlanMetrics
	Fraction float64
	Seed     int64
	Child    SparkPlan
}

func (s *SampleExec) Children() []SparkPlan { return []SparkPlan{s.Child} }
func (s *SampleExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *s
	c.Child = children[0]
	return &c
}
func (s *SampleExec) Output() []*expr.AttributeReference { return s.Child.Output() }
func (s *SampleExec) SimpleString() string {
	return fmt.Sprintf("Sample %.3f seed=%d", s.Fraction, s.Seed)
}
func (s *SampleExec) String() string { return Format(s) }

func (s *SampleExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	frac := s.Fraction
	seed := uint64(s.Seed)
	om := s.EnableMetrics(ctx.Metrics)
	return rdd.MapPartitions(s.Child.Execute(ctx), func(p int, in []row.Row) []row.Row {
		start := time.Now()
		out := make([]row.Row, 0, int(float64(len(in))*frac)+1)
		for i, r := range in {
			if splitmix(seed^uint64(p)<<32^uint64(i)) < uint64(float64(^uint64(0))*frac) {
				out = append(out, r)
			}
		}
		om.RecordPartition(len(out), time.Since(start))
		return out
	})
}

// splitmix is SplitMix64 — a cheap, deterministic, well-distributed hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
