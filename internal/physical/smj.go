package physical

import (
	"context"
	"time"

	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
)

// SortMergeJoinExec hash-partitions both sides on the join keys, sorts
// each partition pair by the key tuple with the external merge sort, and
// merges the sorted streams group-by-group — Spark SQL's default shuffle
// join once build sides can outgrow memory. The planner selects it in
// place of ShuffledHashJoinExec when a memory budget is set and the
// build side's estimated size is unknown or too large to hash within it:
// sort state degrades gracefully to spilled runs, while a hash table
// cannot shrink below its full build side.
type SortMergeJoinExec struct {
	PlanEstimate
	PlanMetrics
	AdaptiveNote
	EquiJoin
	// Partitions, when positive, caps the exchange's reducer count below
	// the session default.
	Partitions int
}

func (j *SortMergeJoinExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *j
	c.Left, c.Right = children[0], children[1]
	return &c
}
func (j *SortMergeJoinExec) SimpleString() string {
	return j.describe("SortMergeJoin", j.Partitions)
}
func (j *SortMergeJoinExec) String() string { return Format(j) }

// keyRowFunc evaluates the join keys into a comparable tuple; ok=false
// marks a NULL key (never equal to anything in an equi-join).
func keyRowFunc(evals []func(row.Row) any) func(row.Row) (row.Row, bool) {
	return func(r row.Row) (row.Row, bool) {
		kv := make(row.Row, len(evals))
		for i, ev := range evals {
			v := ev(r)
			if v == nil {
				return nil, false
			}
			kv[i] = v
		}
		return kv, true
	}
}

// compositeLess orders key-prefixed composite rows lexicographically on
// the first k fields.
func compositeLess(k int) func(a, b row.Row) bool {
	return func(a, b row.Row) bool {
		for x := 0; x < k; x++ {
			if c := row.Compare(a[x], b[x]); c != 0 {
				return c < 0
			}
		}
		return false
	}
}

func sameKeyPrefix(a, b row.Row, k int) bool {
	for x := 0; x < k; x++ {
		if row.Compare(a[x], b[x]) != 0 {
			return false
		}
	}
	return true
}

func (j *SortMergeJoinExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	leftOut, rightOut := j.Left.Output(), j.Right.Output()
	leftEvals, rightEvals := bindKeys(ctx, j.LeftKeys, leftOut), bindKeys(ctx, j.RightKeys, rightOut)
	leftKeyRow, rightKeyRow := keyRowFunc(leftEvals), keyRowFunc(rightEvals)
	match := residualPred(ctx, j.Residual, leftOut, rightOut)
	n := effectiveParts(ctx.ShufflePartitions, j.Partitions)
	leftShuf := rdd.PartitionByHashCodec(j.Left.Execute(ctx), n, keyHash(leftEvals), rowShuffleCodec)
	rightShuf := rdd.PartitionByHashCodec(j.Right.Execute(ctx), n, keyHash(rightEvals), rowShuffleCodec)

	nLeft, nRight := len(leftOut), len(rightOut)
	k := len(j.LeftKeys)
	t := j.Type
	om := j.EnableMetrics(ctx.Metrics)
	less := compositeLess(k)
	zipped, err := rdd.ZipPartitionsCtx(leftShuf, rightShuf, func(_ context.Context, _ int, ls, rs []row.Row) ([]row.Row, error) {
		start := time.Now()
		var out []row.Row

		// NULL-keyed rows never merge: outer sides null-extend them up
		// front (in input order), inner/semi sides drop them.
		sortRows := func(op string, in []row.Row, keyRow func(row.Row) (row.Row, bool),
			keep func(row.Row)) ([]row.Row, error) {
			sorter := newExternalSorter(ctx, op, less)
			defer sorter.Close()
			for _, r := range in {
				kv, ok := keyRow(r)
				if !ok {
					if keep != nil {
						keep(r)
					}
					continue
				}
				comp := make(row.Row, k+len(r))
				copy(comp, kv)
				copy(comp[k:], r)
				if err := sorter.Add(comp); err != nil {
					return nil, err
				}
			}
			sorted, err := sorter.Finish()
			om.RecordSpill(sorter.Stats())
			return sorted, err
		}

		var keepL, keepR func(row.Row)
		if t == plan.LeftOuterJoin || t == plan.FullOuterJoin {
			keepL = func(l row.Row) { out = append(out, concatRows(l, nullRow(nRight))) }
		}
		if t == plan.RightOuterJoin || t == plan.FullOuterJoin {
			keepR = func(r row.Row) { out = append(out, concatRows(nullRow(nLeft), r)) }
		}
		sortedL, err := sortRows("smj.left", ls, leftKeyRow, keepL)
		if err != nil {
			return nil, err
		}
		sortedR, err := sortRows("smj.right", rs, rightKeyRow, keepR)
		if err != nil {
			return nil, err
		}

		out = mergeJoin(out, sortedL, sortedR, k, nLeft, nRight, t, match)
		om.RecordPartition(len(out), time.Since(start))
		return out, nil
	})
	if err != nil {
		// Both sides are hash-partitioned to n above; unequal counts here
		// are a planner bug, not a runtime task failure.
		panic(err)
	}
	return zipped
}

// mergeJoin merges two key-sorted composite-row streams, emitting joined
// rows group by group. Composite rows carry the k-field key tuple before
// the original row; originals are sliced back out on emission.
func mergeJoin(out []row.Row, ls, rs []row.Row, k, nLeft, nRight int,
	t plan.JoinType, match func(l, r row.Row) bool) []row.Row {
	leftOuter := t == plan.LeftOuterJoin || t == plan.FullOuterJoin
	rightOuter := t == plan.RightOuterJoin || t == plan.FullOuterJoin
	semi := t == plan.LeftSemiJoin

	i, jj := 0, 0
	for i < len(ls) && jj < len(rs) {
		c := 0
		for x := 0; x < k; x++ {
			if c = row.Compare(ls[i][x], rs[jj][x]); c != 0 {
				break
			}
		}
		switch {
		case c < 0:
			if leftOuter {
				out = append(out, concatRows(ls[i][k:], nullRow(nRight)))
			}
			i++
		case c > 0:
			if rightOuter {
				out = append(out, concatRows(nullRow(nLeft), rs[jj][k:]))
			}
			jj++
		default:
			i2 := i + 1
			for i2 < len(ls) && sameKeyPrefix(ls[i2], ls[i], k) {
				i2++
			}
			j2 := jj + 1
			for j2 < len(rs) && sameKeyPrefix(rs[j2], rs[jj], k) {
				j2++
			}
			var rightMatched []bool
			if rightOuter {
				rightMatched = make([]bool, j2-jj)
			}
			for li := i; li < i2; li++ {
				l := ls[li][k:]
				matched := false
				for rj := jj; rj < j2; rj++ {
					r := rs[rj][k:]
					if !match(l, r) {
						continue
					}
					matched = true
					if semi {
						break
					}
					if rightMatched != nil {
						rightMatched[rj-jj] = true
					}
					out = append(out, concatRows(l, r))
				}
				switch {
				case semi && matched:
					out = append(out, l)
				case !matched && leftOuter:
					out = append(out, concatRows(l, nullRow(nRight)))
				}
			}
			if rightOuter {
				for rj := jj; rj < j2; rj++ {
					if !rightMatched[rj-jj] {
						out = append(out, concatRows(nullRow(nLeft), rs[rj][k:]))
					}
				}
			}
			i, jj = i2, j2
		}
	}
	if leftOuter {
		for ; i < len(ls); i++ {
			out = append(out, concatRows(ls[i][k:], nullRow(nRight)))
		}
	}
	if rightOuter {
		for ; jj < len(rs); jj++ {
			out = append(out, concatRows(nullRow(nLeft), rs[jj][k:]))
		}
	}
	return out
}
