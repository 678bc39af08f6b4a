package physical

// Adaptive query execution (Spark 3.x AQE): instead of executing the
// statically planned operator tree in one shot, the plan is split at its
// exchanges into a stage DAG. Each exchange input runs bottom-up as an rdd
// Stage — the same stage type a shuffle's map side and a join's build side
// are — and its observed output (rows and bytes, measured once from the
// stage's partitions) feeds a re-planning step that re-enters the planner's
// cost rules over actuals instead of estimates:
//
//   - exchange partition counts coalesce to ceil(observedBytes/target)
//     when that is below the statically chosen count; a grouped
//     aggregate's reduce tasks are re-sized to it up as well as down
//     (they take ranges of the same hash buckets, so their number never
//     changes its result or the result's order),
//   - a broadcast hash join whose build side blows past the broadcast
//     limit demotes to a shuffled hash join, and a shuffled join whose
//     input turns out tiny promotes to a broadcast hash join,
//   - a shuffled hash join reduce partition whose observed input exceeds
//     SkewFactor x the mean bucket size splits into chunks that join
//     independently against the full build bucket (order-preserving, so
//     results are byte-identical to the unsplit plan).
//
// Every decision is a pure rewrite of the static tree addressed by the
// node's post-order ordinal, so the coordinator can ship its decisions in the
// task spec and workers derive the identical adapted plan without re-adapting
// (keeping the cluster plan-hash parity check sound), and the coordinator
// replays a repeated statement's recorded decisions the same way instead of
// running its stages again. EXPLAIN ANALYZE records each decision as
// `adapted: <from> -> <to> (<reason>)`.

import (
	"cmp"
	"context"
	"fmt"

	"repro/internal/catalyst"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
)

// DefaultSkewFactor splits a reduce partition observed at more than 4x the
// mean bucket size — Spark's skewedPartitionFactor default.
const DefaultSkewFactor = 4.0

// maxSkewSplits bounds how many chunks one skewed bucket splits into.
const maxSkewSplits = 16

// partitionsFor sizes a coalesced exchange from observed bytes, by the
// planner's target.
func (d *adaptiveDriver) partitionsFor(sizeInBytes int64) int {
	return PartitionsForSize(d.cfg.TargetPartitionBytes, sizeInBytes)
}

// AdaptiveNote carries the `adapted: ...` annotation onto a physical
// operator; WithNewChildren copy semantics (c := *n) preserve it across
// rewrites, like PlanEstimate.
type AdaptiveNote struct {
	adapted string
}

// SetAdapted records the decision annotation.
func (a *AdaptiveNote) SetAdapted(note string) { a.adapted = note }

// Adapted returns the decision annotation ("" = none).
func (a *AdaptiveNote) Adapted() string { return a.adapted }

// AdaptiveAnnotated is implemented by operators that can carry an adaptive
// decision annotation (via AdaptiveNote).
type AdaptiveAnnotated interface {
	SetAdapted(string)
	Adapted() string
}

// Decision is one adaptive re-planning step, expressed as a pure rewrite
// of the statically planned tree so the coordinator and every worker
// derive the identical adapted plan from (static plan, decisions).
type Decision struct {
	// Stage is the rewritten node's post-order ordinal in the static plan
	// (children in order, then the node; the root is last). Every rewrite
	// kind preserves tree shape and child counts, so ordinals stay valid as
	// decisions apply.
	Stage int `json:"stage"`
	// Kind is "coalesce" (set an exchange's partition count), "demote",
	// "promote" or "skew".
	Kind string `json:"kind"`
	// Parts is the new exchange partition count (0 = keep current).
	Parts int `json:"parts,omitempty"`
	// BuildRight selects the broadcast build side for "promote".
	BuildRight bool `json:"buildRight,omitempty"`
	// Splits is the per-reduce-partition chunk count for "skew" (length =
	// the exchange's effective partition count).
	Splits []int `json:"splits,omitempty"`
	// Note is the EXPLAIN annotation: `adapted: <from> -> <to> (<reason>)`.
	Note string `json:"note,omitempty"`
}

// QueryStageExec is a materialization barrier: the subtree below an
// exchange, already run by the adaptive driver as a stage that holds its
// partitions. It prints as its child — the barrier is an execution detail,
// which keeps plan strings (and so the cluster plan-hash parity check)
// identical between the coordinator's stage-materialized tree and a worker's
// decision-applied live tree — and executes as the stage's partitions, so
// downstream operators never recompute stage output.
type QueryStageExec struct {
	PlanEstimate
	Child SparkPlan
	// Rows and Bytes are the stage's observed output statistics.
	Rows, Bytes int64
	stage       *rdd.Stage[[][]row.Row]
}

func (q *QueryStageExec) Children() []SparkPlan { return []SparkPlan{q.Child} }
func (q *QueryStageExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *q
	c.Child = children[0]
	return &c
}
func (q *QueryStageExec) Output() []*expr.AttributeReference { return q.Child.Output() }

// ApplyDecisions replays a decision list over the static plan; applying
// the decisions AdaptPlan returned reproduces its adapted tree exactly —
// the worker-side half of the coordinator/worker parity contract. A
// decision naming no node, or a node its kind cannot rewrite, is an error.
func ApplyDecisions(p SparkPlan, ds []Decision) (SparkPlan, error) {
	var err error
	ord := 0
	p = catalyst.TransformUp(p, func(n SparkPlan) (SparkPlan, bool) {
		static := n
		for _, d := range ds {
			if d.Stage == ord && err == nil {
				n, err = applyDecision(n, d)
			}
		}
		ord++
		return n, n != static && err == nil
	})
	for _, d := range ds {
		if err == nil && (d.Stage < 0 || d.Stage >= ord) {
			err = fmt.Errorf("physical: %s decision names stage %d of a %d-node plan", d.Kind, d.Stage, ord)
		}
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// applyDecision rewrites one node under one decision.
func applyDecision(p SparkPlan, d Decision) (SparkPlan, error) {
	switch d.Kind {
	case "coalesce":
		c := p.WithNewChildren(p.Children()) // a copy
		switch n := c.(type) {
		case *ShuffledHashJoinExec:
			n.Partitions = d.Parts
		case *HashAggregateExec:
			n.Partitions = d.Parts
		case *SortExec:
			n.Partitions = d.Parts
		default:
			return nil, fmt.Errorf("physical: coalesce decision on %T", p)
		}
		c.(AdaptiveAnnotated).SetAdapted(d.Note)
		return c, nil
	case "skew":
		n, ok := p.(*ShuffledHashJoinExec)
		if !ok {
			return nil, fmt.Errorf("physical: skew decision on %T", p)
		}
		c := *n
		if d.Parts > 0 {
			c.Partitions = d.Parts
		}
		c.SkewSplits = d.Splits
		c.SetAdapted(d.Note)
		return &c, nil
	case "demote":
		n, ok := p.(*BroadcastHashJoinExec)
		if !ok {
			return nil, fmt.Errorf("physical: demote decision on %T", p)
		}
		shj := &ShuffledHashJoinExec{EquiJoin: n.EquiJoin, Partitions: d.Parts}
		transferEstimate(shj, n)
		shj.SetAdapted(d.Note)
		return shj, nil
	case "promote":
		n, ok := p.(*ShuffledHashJoinExec)
		if !ok {
			return nil, fmt.Errorf("physical: promote decision on %T", p)
		}
		bhj := &BroadcastHashJoinExec{EquiJoin: n.EquiJoin, BuildRight: d.BuildRight}
		transferEstimate(bhj, n)
		bhj.SetAdapted(d.Note)
		return bhj, nil
	}
	return nil, fmt.Errorf("physical: unknown decision kind %q", d.Kind)
}

// AdaptPlan is the stage-graph driver: it walks the static plan bottom-up,
// runs each exchange input as a stage held by a QueryStageExec (through the
// rdd layer's ordinary job path, so retry, speculation and cancellation apply
// to stage execution exactly as to final execution), and re-plans each
// exchange from the observed statistics. It returns the executed tree
// (stage leaves in place, zero recompute) and the decision list to ship
// to workers. With ctx.Adaptive off the plan is returned untouched.
func AdaptPlan(jc context.Context, ctx *ExecContext, p SparkPlan) (SparkPlan, []Decision, error) {
	if !ctx.Adaptive {
		return p, nil, nil
	}
	d := &adaptiveDriver{jc: jc, ctx: ctx, cfg: &ctx.Planner}
	out, err := d.adapt(p)
	if err != nil {
		return nil, nil, err
	}
	return out, d.decisions, nil
}

type adaptiveDriver struct {
	jc        context.Context
	ctx       *ExecContext
	cfg       *PlannerConfig
	decisions []Decision
	// next is the number of static nodes the walk has finished: one more
	// than the post-order ordinal of the node being adapted.
	next int
}

// transparent reports whether the driver may rewrite p's children. Fused
// and vectorized operators are opaque: their children feed batch-native
// pipelines that a row-partition stage leaf cannot stand in for, so
// adaptation treats them as leaves (they still materialize fine as stage
// *inputs* above them).
func transparent(p SparkPlan) bool {
	switch p.(type) {
	case *ProjectExec, *FilterExec, *SortExec, *LimitExec, *TopKExec, *UnionExec, *SampleExec,
		*HashAggregateExec, *ShuffledHashJoinExec, *BroadcastHashJoinExec, *NestedLoopJoinExec:
		return true
	}
	return false
}

// effectiveParts is the reducer count an exchange will actually use.
func effectiveParts(session, override int) int {
	if override > 0 && override < session {
		return override
	}
	return session
}

// adapt walks p bottom-up, counting the static nodes as it finishes them.
// It stops at a node that is not transparent, whose whole subtree it counts.
func (d *adaptiveDriver) adapt(p SparkPlan) (SparkPlan, error) {
	if !transparent(p) {
		catalyst.Foreach(p, func(SparkPlan) { d.next++ })
		return p, nil
	}
	var err error
	kids, changed := catalyst.MapSlice(p.Children(), func(k SparkPlan) SparkPlan {
		if err == nil {
			k, err = d.adapt(k)
		}
		return k
	})
	if err != nil {
		return nil, err
	}
	if changed {
		p = p.WithNewChildren(kids)
	}
	d.next++
	return d.adaptNode(p)
}

// materialize runs one exchange input as a stage and wraps it.
func (d *adaptiveDriver) materialize(child SparkPlan) (*QueryStageExec, error) {
	if qs, ok := child.(*QueryStageExec); ok {
		return qs, nil
	}
	qs := &QueryStageExec{Child: child}
	qs.stage = rdd.NewStage(child.Execute(d.ctx), func(_ context.Context, parts [][]row.Row) ([][]row.Row, error) {
		for _, pr := range parts {
			qs.Rows += int64(len(pr))
			qs.Bytes += rowsSize(pr)
		}
		return parts, nil
	})
	if _, err := qs.stage.Value(d.jc); err != nil {
		return nil, err
	}
	transferEstimate(qs, child)
	return qs, nil
}

// record addresses a decision to the node being adapted, applies it, logs
// it for shipping, and returns the rewritten node.
func (d *adaptiveDriver) record(p SparkPlan, dec Decision) (SparkPlan, error) {
	dec.Stage = d.next - 1
	d.decisions = append(d.decisions, dec)
	return applyDecision(p, dec)
}

func (d *adaptiveDriver) adaptNode(p SparkPlan) (SparkPlan, error) {
	switch n := p.(type) {
	case *ShuffledHashJoinExec:
		return d.adaptShuffledJoin(n)
	case *HashAggregateExec:
		if len(n.Grouping) == 0 {
			// A global aggregate always reduces to one partition; nothing
			// to re-plan, and materializing its input buys nothing.
			return p, nil
		}
		return d.adaptAggregate(n)
	case *SortExec:
		if !n.Global {
			return p, nil
		}
		return d.adaptCoalesceOnly(p, n.Child, n.Partitions)
	case *BroadcastHashJoinExec:
		return d.adaptBroadcastJoin(n)
	}
	return p, nil
}

// adaptCoalesceOnly materializes a single exchange input and re-sizes the
// downstream partition count from observed bytes.
func (d *adaptiveDriver) adaptCoalesceOnly(p, child SparkPlan, current int) (SparkPlan, error) {
	stage, err := d.materialize(child)
	if err != nil {
		return nil, err
	}
	if p, err = d.coalesce(p, d.coalesced(current, stage.Bytes), stage.Bytes); err != nil {
		return nil, err
	}
	return p.WithNewChildren([]SparkPlan{stage}), nil
}

// adaptAggregate materializes a grouped aggregate's input and re-sizes its
// reduce tasks from the observed input bytes, up as well as down: the bytes
// bound what the reducers will hold, where the planner's output estimate may
// rest on a guessed group count (RowCount/16 for a key without statistics),
// and a reducer count never changes an aggregate's result, because its
// reduce tasks take ranges of the same hash buckets.
func (d *adaptiveDriver) adaptAggregate(n *HashAggregateExec) (SparkPlan, error) {
	stage, err := d.materialize(n.Child)
	if err != nil {
		return nil, err
	}
	parts := min(d.partitionsFor(stage.Bytes), n.buckets(d.ctx))
	if parts == n.reducers(d.ctx) {
		parts = 0 // already what the input calls for
	}
	p, err := d.coalesce(n, parts, stage.Bytes)
	if err != nil {
		return nil, err
	}
	return p.WithNewChildren([]SparkPlan{stage}), nil
}

// coalesced is the reducer count observed bytes call for, or 0 when that is
// not below what the exchange has: coalescing only ever shrinks the
// statically chosen count, so accurate estimates see no adaptation.
func (d *adaptiveDriver) coalesced(current int, bytes int64) int {
	if parts := d.partitionsFor(bytes); parts > 0 && parts < effectiveParts(d.ctx.ShufflePartitions, current) {
		return parts
	}
	return 0
}

// coalesce records p's exchange coalesced to parts, if parts is set.
func (d *adaptiveDriver) coalesce(p SparkPlan, parts int, bytes int64) (SparkPlan, error) {
	if parts == 0 {
		return p, nil
	}
	return d.record(p, Decision{Kind: "coalesce", Parts: parts, Note: coalesceNote(parts, bytes)})
}

func coalesceNote(parts int, bytes int64) string {
	return fmt.Sprintf("adapted: shuffle exchange -> %d partitions (observed %d B)", parts, bytes)
}

// adaptShuffledJoin runs both inputs of a shuffled hash join as stages and
// re-plans it from their observed bytes: promote it to a broadcast hash join
// when a buildable side fits the broadcast limit, otherwise coalesce the
// reducer count and split skewed reduce buckets.
func (d *adaptiveDriver) adaptShuffledJoin(n *ShuffledHashJoinExec) (SparkPlan, error) {
	ls, err := d.materialize(n.Left)
	if err != nil {
		return nil, err
	}
	rs, err := d.materialize(n.Right)
	if err != nil {
		return nil, err
	}
	if dec, ok := d.promotion(n.Type, ls.Bytes, rs.Bytes); ok {
		p, err := d.record(n, dec)
		if err != nil {
			return nil, err
		}
		return p.WithNewChildren([]SparkPlan{ls, rs}), nil
	}
	bytes := ls.Bytes + rs.Bytes
	newParts := d.coalesced(n.Partitions, bytes)
	splits, maxBytes, meanBytes := d.detectSkew(n, ls, cmp.Or(newParts, effectiveParts(d.ctx.ShufflePartitions, n.Partitions)))
	var p SparkPlan
	if splits == nil {
		p, err = d.coalesce(n, newParts, bytes)
	} else {
		note := fmt.Sprintf("adapted: uniform reduce -> skew-split buckets (max bucket %d B over %.1fx mean %d B)",
			maxBytes, d.cfg.skewFactor(), meanBytes)
		if newParts > 0 {
			note += "  " + coalesceNote(newParts, bytes)
		}
		p, err = d.record(n, Decision{Kind: "skew", Parts: newParts, Splits: splits, Note: note})
	}
	if err != nil {
		return nil, err
	}
	return p.WithNewChildren([]SparkPlan{ls, rs}), nil
}

// promotion decides a shuffled-to-broadcast join switch, mirroring the
// static planner's side preference and build-legality rules over observed
// bytes instead of estimates.
func (d *adaptiveDriver) promotion(t plan.JoinType, leftBytes, rightBytes int64) (Decision, bool) {
	canRight, canLeft := canBuildSides(t)
	bcast := d.cfg.broadcastLimit()
	if bcast <= 0 {
		return Decision{}, false
	}
	buildRight, bytes := true, rightBytes
	switch {
	case canRight && rightBytes <= bcast &&
		(rightBytes <= leftBytes || !canLeft || leftBytes > bcast):
	case canLeft && leftBytes <= bcast:
		buildRight, bytes = false, leftBytes
	default:
		return Decision{}, false
	}
	return Decision{Kind: "promote", BuildRight: buildRight,
		Note: fmt.Sprintf("adapted: ShuffledHashJoin -> BroadcastHashJoin (build side %d B observed under %d B limit)",
			bytes, bcast),
	}, true
}

// adaptBroadcastJoin materializes the build side and demotes to a shuffled
// hash join when the observed build blows past the broadcast limit the static
// planner believed it fit under.
func (d *adaptiveDriver) adaptBroadcastJoin(n *BroadcastHashJoinExec) (SparkPlan, error) {
	stage, err := d.materialize(n.buildSide())
	if err != nil {
		return nil, err
	}
	var p SparkPlan = n
	if bcast := d.cfg.broadcastLimit(); stage.Bytes > bcast {
		dec := Decision{Kind: "demote", Parts: d.partitionsFor(stage.Bytes),
			Note: fmt.Sprintf("adapted: BroadcastHashJoin -> ShuffledHashJoin (build side %d B observed over %d B limit)",
				stage.Bytes, bcast),
		}
		if p, err = d.record(n, dec); err != nil {
			return nil, err
		}
	}
	kids := []SparkPlan{p.Children()[0], p.Children()[1]}
	if n.BuildRight {
		kids[1] = stage
	} else {
		kids[0] = stage
	}
	return p.WithNewChildren(kids), nil
}

// detectSkew simulates the exchange's exact bucketing (keyHash % n, as
// PartitionByHashCodec applies it) over the materialized probe side and
// proposes per-bucket splits when the largest bucket exceeds
// skewFactor x mean. Only join types whose reduce output is exactly
// probe-input order are splittable (Inner/LeftOuter/LeftSemi): chunked
// probes concatenated in (partition, chunk) order are then byte-identical
// to the unsplit plan.
func (d *adaptiveDriver) detectSkew(n *ShuffledHashJoinExec, left *QueryStageExec, eff int) (splits []int, maxBytes, meanBytes int64) {
	if eff <= 1 || !skewSplittable(n.Type) {
		return nil, 0, 0
	}
	hash := keyHash(bindKeys(d.ctx, n.LeftKeys, n.Left.Output()))
	parts, _ := left.stage.Value(d.jc) // memoized: it ran when left was made
	bytes := make([]int64, eff)
	var total int64
	for _, part := range parts {
		for _, r := range part {
			sz := r.ObjectSize()
			bytes[int(hash(r)%uint64(eff))] += sz
			total += sz
		}
	}
	mean := total / int64(eff)
	if mean <= 0 {
		return nil, 0, 0
	}
	factor := d.cfg.skewFactor()
	threshold := int64(factor * float64(mean))
	splits = make([]int, eff)
	any := false
	for i, b := range bytes {
		maxBytes = max(maxBytes, b)
		splits[i] = 1
		if b > threshold {
			splits[i] = max(1, min(int((b+mean-1)/mean), maxSkewSplits))
			any = any || splits[i] > 1
		}
	}
	if !any {
		return nil, 0, 0
	}
	return splits, maxBytes, mean
}

// skewSplittable reports whether a join type's shuffled-hash reduce output
// is exactly probe-side input order, making contiguous chunk splits
// order-preserving. RightOuter probes from the right side and FullOuter
// appends the unmatched build rows — never split those.
func skewSplittable(t plan.JoinType) bool {
	switch t {
	case plan.InnerJoin, plan.CrossJoin, plan.LeftOuterJoin, plan.LeftSemiJoin:
		return true
	}
	return false
}

// Execute serves the stage's partitions.
func (q *QueryStageExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	return rdd.FromStage(q.stage)
}

func (q *QueryStageExec) SimpleString() string {
	return fmt.Sprintf("QueryStage (%d rows, %d B)", q.Rows, q.Bytes)
}
func (q *QueryStageExec) String() string { return Format(q) }
