package physical

// Adaptive query execution (Spark 3.x AQE) over the plan's exchanges: one
// catalyst transform of the static plan runs each hash, range or presplit
// exchange's map side once, as an rdd Stage through the ordinary job path,
// reads what it wrote per bucket (rdd.MapStats), and at the operator above
// re-enters the planner's cost rules over those actuals:
//
//   - reduce tasks coalesce to ceil(observedBytes/target) below the planned
//     count; a grouped aggregate's are re-sized up as well as down;
//   - a broadcast hash join whose build side blows past the broadcast limit
//     demotes to a shuffled join over the rows its broadcast collected, and a
//     shuffled join whose input turns out tiny promotes to a broadcast join
//     that builds from the build side's buckets and probes the probe side's;
//   - a shuffled join's reduce task whose probe buckets exceed SkewFactor x
//     the mean splits into chunks joined against its whole build side.
//
// Reduce tasks read ranges of fixed buckets, so no decision runs or copies a
// stage again. Each decision rewrites one exchange, addressed by its
// post-order ordinal in the static plan (its stage id), and a join whose
// exchanges changed form becomes the join they make (settle): workers and a
// repeated statement replay the list (ApplyDecisions) without running a stage.
// EXPLAIN ANALYZE shows `adapted: <from> -> <to> (<reason>)` on a decided
// exchange and `not adapted: <reason>` on the others.

import (
	"cmp"
	"context"
	"fmt"

	"repro/internal/catalyst"
	"repro/internal/plan"
)

const (
	DefaultSkewFactor = 4.0 // split a reduce task over 4x the mean: Spark's skewedPartitionFactor default
	maxSkewSplits     = 16  // the most chunks one skewed reduce task splits into
)

// Decision is one adaptive re-planning step, a pure rewrite of one exchange
// of the static plan, so the coordinator and every worker derive the same
// adapted plan from (static plan, decisions).
type Decision struct {
	Stage      int    `json:"stage"`                // the exchange's post-order ordinal in the static plan
	Kind       string `json:"kind"`                 // "coalesce", "skew", "promote" (hash to broadcast) or "demote"
	Parts      int    `json:"parts,omitempty"`      // the new reduce task count (0 = keep current)
	BuildRight bool   `json:"buildRight,omitempty"` // which side a "promote" broadcasts
	Splits     []int  `json:"splits,omitempty"`     // "skew": chunks per reduce task
	Note       string `json:"note,omitempty"`       // `adapted: <from> -> <to> (<reason>)`
}

// ApplyDecisions replays a decision list over the static plan, rebuilding
// the tree AdaptPlan executed (its notes and map outputs aside): the worker's
// half of the parity contract. A decision naming no node, or one its kind
// cannot rewrite, is an error.
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
		if err != nil {
			return nil, false
		}
		n = settle(n)
		return n, n != static
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

// applyDecision rewrites one exchange under one decision.
func applyDecision(p SparkPlan, d Decision) (SparkPlan, error) {
	e, ok := p.(*ExchangeExec)
	if !ok {
		return nil, fmt.Errorf("physical: %s decision on %T", d.Kind, p)
	}
	c := *e
	c.adapted = d.Note
	switch want := HashExchange; d.Kind {
	case "coalesce":
		if e.Form == BroadcastExchange {
			return nil, fmt.Errorf("physical: coalesce decision on a broadcast exchange")
		}
		c.Partitions = d.Parts
	case "skew", "promote":
		if e.Form != want {
			return nil, fmt.Errorf("physical: %s decision on a %s exchange", d.Kind, e.Form)
		}
		if d.Kind == "skew" {
			c.Partitions, c.SkewSplits = cmp.Or(d.Parts, c.Partitions), d.Splits
			break
		}
		c.Form, c.Partitions, c.ran = BroadcastExchange, 0, nil
		if e.ran != nil { // it builds from the buckets its map side wrote
			c.ran = &exchangeRun{input: e.ran.buckets}
		}
	case "demote":
		if e.Form != BroadcastExchange {
			return nil, fmt.Errorf("physical: demote decision on a %s exchange", e.Form)
		}
		c.Form, c.Partitions, c.ran = HashExchange, d.Parts, nil
		if e.ran != nil { // it re-partitions the rows its broadcast collected
			c.ran = &exchangeRun{input: e.ran.input}
		}
	default:
		return nil, fmt.Errorf("physical: unknown decision kind %q", d.Kind)
	}
	return &c, nil
}

// settle makes a join whose exchanges changed form the join they make: a
// shuffled join with a broadcast side a broadcast join, a broadcast join with a
// hash build side a shuffled join (keying it, and hashing its probe side).
func settle(p SparkPlan) SparkPlan {
	switch j := p.(type) {
	case *ShuffledHashJoinExec:
		for _, right := range []bool{true, false} {
			if _, build, _, _ := j.sides(right); exchangeOf(build).Form == BroadcastExchange {
				return transferEstimate(&BroadcastHashJoinExec{EquiJoin: j.EquiJoin, BuildRight: right}, j)
			}
		}
	case *BroadcastHashJoinExec:
		probe, build, probeKeys, buildKeys := j.sides(j.BuildRight)
		if b := exchangeOf(build); b.Form == HashExchange {
			ej, keyed := j.EquiJoin, *b
			keyed.Keys = buildKeys
			shuffled := newExchange(HashExchange, probe)
			shuffled.Keys, shuffled.Partitions = probeKeys, b.Partitions
			if ej.Left, ej.Right = shuffled, &keyed; !j.BuildRight {
				ej.Left, ej.Right = &keyed, shuffled
			}
			return transferEstimate(&ShuffledHashJoinExec{EquiJoin: ej}, j)
		}
	}
	return p
}

// AdaptPlan is the stage-graph driver. It returns the executed tree — its
// exchanges holding their map outputs — and the decision list to ship to
// workers; with ctx.Adaptive off, the plan untouched.
func AdaptPlan(jc context.Context, ctx *ExecContext, p SparkPlan) (SparkPlan, []Decision, error) {
	if !ctx.Adaptive {
		return p, nil, nil
	}
	d := &adaptiveDriver{jc: jc, ctx: ctx, cfg: &ctx.Planner, ords: map[*ExchangeExec]int{}}
	out := catalyst.TransformUp(p, d.adapt)
	if d.err != nil {
		return nil, nil, d.err
	}
	return out, d.decisions, nil
}

type adaptiveDriver struct {
	jc        context.Context
	ctx       *ExecContext
	cfg       *PlannerConfig
	decisions []Decision
	next      int                   // the post-order ordinal of the node visited next
	ords      map[*ExchangeExec]int // the static ordinal of each exchange passed
	err       error
}

// adapt is the driver's one rule.
func (d *adaptiveDriver) adapt(p SparkPlan) (SparkPlan, bool) {
	ord := d.next
	d.next++
	if d.err != nil {
		return nil, false
	}
	var out SparkPlan
	switch n := p.(type) {
	case *ExchangeExec:
		e := d.run(n)
		d.ords[e] = ord
		out = e
	case *HashAggregateExec:
		out = d.adaptReduce(n, exchangeOf(n.Child), true)
	case *SortExec:
		if n.Global {
			out = d.adaptReduce(n, exchangeOf(n.Child), false)
		}
	case *ShuffledHashJoinExec:
		out = d.adaptShuffledJoin(n)
	case *BroadcastHashJoinExec:
		out = d.adaptBroadcastJoin(n)
	case *FusedBroadcastJoinExec:
		out = d.keep(n, buildIndex(n.Join.BuildRight), "not adapted: a fused join is not demoted")
	case *NestedLoopJoinExec:
		out = d.keep(n, 1, "not adapted: a nested-loop join is not re-planned")
	}
	if d.err != nil || out == nil {
		return nil, false
	}
	return out, true
}

// run runs a hash, range or presplit exchange's map side, once, and returns
// the exchange holding it; a broadcast runs for its join, and one bucket has
// no reduce side to re-plan.
func (d *adaptiveDriver) run(e *ExchangeExec) *ExchangeExec {
	if e.Form == BroadcastExchange || e.Form != HashExchange && e.buckets(d.ctx) == 1 {
		return e
	}
	c := *e
	if c.ran = (&exchangeRun{}); e.Form == PresplitExchange {
		c.ran = c.mapPartials(d.ctx)
		c.ran.stats, _, d.err = c.ran.blocks.MapStats(d.jc)
	} else {
		c.ran.buckets = c.shuffle(d.ctx)
		c.ran.stats, _, d.err = c.ran.buckets.MapStats(d.jc)
	}
	return &c
}

// record addresses a decision to p's exchange child i, applies it, logs it
// for shipping, and returns p over the rewritten exchange, settled.
func (d *adaptiveDriver) record(p SparkPlan, i int, dec Decision) SparkPlan {
	kids := p.Children() // a fresh slice: every operator over an exchange builds one
	e := kids[i].(*ExchangeExec)
	dec.Stage = d.ords[e]
	d.decisions = append(d.decisions, dec)
	c, err := applyDecision(e, dec)
	if d.err = err; err != nil {
		return nil
	}
	kids[i] = c
	return settle(p.WithNewChildren(kids))
}

// keep notes on p's exchange child i why it stays as planned: on the copy the
// driver ran, or a new one.
func (d *adaptiveDriver) keep(p SparkPlan, i int, note string) SparkPlan {
	kids := p.Children()
	e := kids[i].(*ExchangeExec)
	if e.ran != nil {
		e.adapted = note
		return p
	}
	c := *e
	c.adapted = note
	d.ords[&c] = d.ords[e]
	kids[i] = &c
	return p.WithNewChildren(kids)
}

// coalesced is the reduce task count observed bytes call for, or 0 unless it
// is below e's: accurate estimates see no adaptation.
func (d *adaptiveDriver) coalesced(e *ExchangeExec, bytes int64) int {
	if parts := PartitionsForSize(d.cfg.TargetPartitionBytes, bytes); parts > 0 && parts < e.reducers(d.ctx) {
		return parts
	}
	return 0
}

// resize records p's exchange children, of reducers reduce tasks, coalesced
// to parts, or notes that they keep theirs when parts is 0.
func (d *adaptiveDriver) resize(p SparkPlan, reducers, parts int, bytes int64) SparkPlan {
	for i := range len(p.Children()) {
		if parts == 0 {
			p = d.keep(p, i, fmt.Sprintf("not adapted: %d reduce tasks for observed %d B", reducers, bytes))
		} else if p = d.record(p, i, Decision{Kind: "coalesce", Parts: parts, Note: coalesceNote(parts, bytes)}); p == nil {
			return nil
		}
	}
	return p
}

func coalesceNote(parts int, bytes int64) string {
	return fmt.Sprintf("adapted: shuffle exchange -> %d partitions (observed %d B)", parts, bytes)
}

// adaptReduce re-sizes the reduce tasks of an aggregate's presplit or a
// global sort's range exchange, e, from the bytes its map side wrote. A sort's
// only coalesce; an aggregate's go up as well as down (up): its partial blocks
// bound what its reducers hold, where the planner's estimate may rest on a
// guessed group count, and its reducer count never changes its result.
func (d *adaptiveDriver) adaptReduce(p SparkPlan, e *ExchangeExec, up bool) SparkPlan {
	if e.ran == nil {
		return d.keep(p, 0, "not adapted: one bucket")
	}
	_, bytes := e.ran.stats.Total()
	parts := d.coalesced(e, bytes)
	if up {
		if parts = min(PartitionsForSize(d.cfg.TargetPartitionBytes, bytes), e.buckets(d.ctx)); parts == e.reducers(d.ctx) {
			parts = 0 // already what the input calls for
		}
	}
	return d.resize(p, e.reducers(d.ctx), parts, bytes)
}

// adaptShuffledJoin promotes a shuffled join whose buildable side fits the
// broadcast limit, or else coalesces its reduce tasks and splits skewed ones.
func (d *adaptiveDriver) adaptShuffledJoin(n *ShuffledHashJoinExec) SparkPlan {
	l, r := exchangeOf(n.Left), exchangeOf(n.Right)
	_, lb := l.ran.stats.Total()
	_, rb := r.ran.stats.Total()
	if right, ok := d.cfg.buildSide(n.Type, lb, rb); ok && d.cfg.broadcastLimit() > 0 {
		bytes := lb
		if right {
			bytes = rb
		}
		return d.record(n, buildIndex(right), Decision{Kind: "promote", BuildRight: right,
			Note: fmt.Sprintf("adapted: ShuffledHashJoin -> BroadcastHashJoin (build side %d B observed under %d B limit)",
				bytes, d.cfg.broadcastLimit())})
	}
	bytes := lb + rb
	newParts := d.coalesced(l, bytes)
	splits, maxBytes, meanBytes := d.detectSkew(n.Type, l.ran.stats.Bytes, cmp.Or(newParts, l.reducers(d.ctx)))
	if splits == nil {
		return d.resize(n, l.reducers(d.ctx), newParts, bytes)
	}
	note := fmt.Sprintf("adapted: uniform reduce -> skew-split buckets (max bucket %d B over %.1fx mean %d B)",
		maxBytes, d.cfg.skewFactor(), meanBytes)
	if newParts > 0 {
		note += "  " + coalesceNote(newParts, bytes)
	}
	// Skew splits only probe-ordered joins, which probe the left side.
	p := d.record(n, 0, Decision{Kind: "skew", Parts: newParts, Splits: splits, Note: note})
	if p != nil && newParts > 0 {
		return d.record(p, 1, Decision{Kind: "coalesce", Parts: newParts, Note: coalesceNote(newParts, bytes)})
	}
	return p
}

// buildIndex is the child position of a broadcast join's build side.
func buildIndex(buildRight bool) int {
	if buildRight {
		return 1
	}
	return 0
}

// adaptBroadcastJoin runs a row broadcast join's build stage, the one its
// probe tasks read, and demotes the join when the build is over the limit.
func (d *adaptiveDriver) adaptBroadcastJoin(n *BroadcastHashJoinExec) SparkPlan {
	i, kids := buildIndex(n.BuildRight), n.Children()
	e := kids[i].(*ExchangeExec)
	c := *e
	c.ran = &exchangeRun{}
	d.ords[&c] = d.ords[e]
	hj := newHashJoin(d.ctx, n.EnableMetrics(d.ctx.Metrics), &n.EquiJoin, n.BuildRight, d.ctx.Codegen)
	if _, d.err = broadcastStage(&c, d.ctx, hj.om, hj.build).Value(d.jc); d.err != nil {
		return nil
	}
	kids[i] = &c
	p := n.WithNewChildren(kids)
	_, bytes := c.ran.stats.Total()
	if bcast := d.cfg.broadcastLimit(); bytes > bcast {
		return d.record(p, i, Decision{Kind: "demote", Parts: PartitionsForSize(d.cfg.TargetPartitionBytes, bytes),
			Note: fmt.Sprintf("adapted: BroadcastHashJoin -> ShuffledHashJoin (build side %d B observed over %d B limit)",
				bytes, bcast),
		})
	}
	return d.keep(p, i, fmt.Sprintf("not adapted: build side %d B under %d B limit", bytes, d.cfg.broadcastLimit()))
}

// detectSkew splits the reduce tasks (ranges of buckets) of a shuffled join's
// probe side whose bucket bytes exceed skewFactor x the mean, for the join
// types whose chunks, concatenated in (task, chunk) order, are the unsplit
// output (skewSplittable).
func (d *adaptiveDriver) detectSkew(t plan.JoinType, buckets []int64, eff int) (splits []int, maxBytes, meanBytes int64) {
	if eff <= 1 || !skewSplittable(t) {
		return nil, 0, 0
	}
	bytes := make([]int64, eff)
	var total int64
	for q := range bytes {
		for _, b := range buckets[q*len(buckets)/eff : (q+1)*len(buckets)/eff] {
			bytes[q] += b
		}
		total += bytes[q]
	}
	mean := total / int64(eff)
	if mean <= 0 {
		return nil, 0, 0
	}
	threshold := int64(d.cfg.skewFactor() * float64(mean))
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

// skewSplittable says a join type's reduce output is its probe side's input
// order: not RightOuter (it probes the right) nor FullOuter (its remainder).
func skewSplittable(t plan.JoinType) bool {
	switch t {
	case plan.InnerJoin, plan.CrossJoin, plan.LeftOuterJoin, plan.LeftSemiJoin:
		return true
	}
	return false
}
