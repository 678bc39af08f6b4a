package rdd

import (
	"context"
	"slices"
)

// Transformations are package-level functions because Go methods cannot
// introduce new type parameters. All are lazy: they build a new RDD whose
// compute function pulls from the parent (a narrow dependency) and that reads
// the parent's stages, except the shuffle-based operations in shuffle.go.

// narrow is r with f applied to each of its partitions, in a task of its own
// named r's name plus suffix, reading r's stages.
func narrow[T, U any](r *RDD[T], suffix string, f func(jc context.Context, p int, in []T) ([]U, error)) *RDD[U] {
	return newRDD(r.ctx, r.name+suffix, r.numPart, func(jc context.Context, p int) ([]U, error) {
		in, err := r.partition(jc, p)
		if err != nil {
			return nil, err
		}
		return f(jc, p, in)
	}).Reads(r.stages...)
}

// Map applies f to every element.
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	return narrow(r, ".map", func(_ context.Context, _ int, in []T) ([]U, error) {
		out := make([]U, len(in))
		for i, v := range in {
			out[i] = f(v)
		}
		return out, nil
	})
}

// Filter keeps elements satisfying pred.
func Filter[T any](r *RDD[T], pred func(T) bool) *RDD[T] {
	return narrow(r, ".filter", func(_ context.Context, _ int, in []T) ([]T, error) {
		out := make([]T, 0, len(in)/2)
		for _, v := range in {
			if pred(v) {
				out = append(out, v)
			}
		}
		return out, nil
	})
}

// FlatMap applies f and concatenates the results.
func FlatMap[T, U any](r *RDD[T], f func(T) []U) *RDD[U] {
	return narrow(r, ".flatMap", func(_ context.Context, _ int, in []T) ([]U, error) {
		var out []U
		for _, v := range in {
			out = append(out, f(v)...)
		}
		return out, nil
	})
}

// MapPartitions transforms whole partitions at once — the pipelining
// primitive: a fused project+filter chain becomes one MapPartitions
// (paper §4.3.3, "pipelining projections or filters into one Spark map
// operation").
func MapPartitions[T, U any](r *RDD[T], f func(p int, in []T) []U) *RDD[U] {
	return narrow(r, ".mapPartitions", func(_ context.Context, p int, in []T) ([]U, error) { return f(p, in), nil })
}

// MapPartitionsCtx is MapPartitions for partition functions that observe
// the job context or fail with an error — operators that read a stage's value
// inside a task (a broadcast join's table) use it so the stage's failure or
// cancellation propagates instead of panicking.
func MapPartitionsCtx[T, U any](r *RDD[T], f func(jc context.Context, p int, in []T) ([]U, error)) *RDD[U] {
	return narrow(r, ".mapPartitions", f)
}

// MapOutput is r with f applied to what each of its tasks returns, inside the
// same task attempt: one task per partition under r's name, not a task over a
// task, so f's work retries, is traced and fails with r's. r must not be
// cached — its tasks run only as part of this RDD's.
func MapOutput[T, U any](r *RDD[T], f func(out []T) []U) *RDD[U] {
	return newRDD(r.ctx, r.name, r.numPart, func(jc context.Context, p int) ([]U, error) {
		out, err := r.compute(jc, p)
		if err != nil {
			return nil, err
		}
		return f(out), nil
	}).Reads(r.stages...)
}

// Union concatenates the partitions of two RDDs.
func Union[T any](a, b *RDD[T]) *RDD[T] {
	return newRDD(a.ctx, "union", a.numPart+b.numPart, func(jc context.Context, p int) ([]T, error) {
		if p < a.numPart {
			return a.partition(jc, p)
		}
		return b.partition(jc, p-a.numPart)
	}).Reads(a.stages...).Reads(b.stages...)
}

// Coalesce reduces the partition count without a shuffle by concatenating
// ranges of parent partitions.
func Coalesce[T any](r *RDD[T], numPartitions int) *RDD[T] {
	if numPartitions >= r.numPart {
		return r
	}
	return newRDD(r.ctx, r.name+".coalesce", numPartitions, func(jc context.Context, p int) ([]T, error) {
		lo := r.numPart * p / numPartitions
		hi := r.numPart * (p + 1) / numPartitions
		var out []T
		for q := lo; q < hi; q++ {
			part, err := r.partition(jc, q)
			if err != nil {
				return nil, err
			}
			out = append(out, part...)
		}
		return out, nil
	}).Reads(r.stages...)
}

// Reduce folds all elements with f; ok is false for an empty RDD.
func Reduce[T any](r *RDD[T], f func(T, T) T) (result T, ok bool, err error) {
	parts, err := r.computeAll(context.Background())
	if err != nil {
		var zero T
		return zero, false, err
	}
	for _, part := range parts {
		for _, v := range part {
			if !ok {
				result, ok = v, true
			} else {
				result = f(result, v)
			}
		}
	}
	return result, ok, nil
}

// Take returns up to n leading elements without computing later partitions
// once enough rows are found (partitions are still computed whole).
func Take[T any](r *RDD[T], n int) ([]T, error) {
	return TakeContext(context.Background(), r, n)
}

// TakeContext is Take under a job context. Over Batched elements it takes
// whole elements until they hold n records.
func TakeContext[T any](jc context.Context, r *RDD[T], n int) ([]T, error) {
	parts, err := r.action(jc, "take", func(jc context.Context) ([][]T, error) {
		if err := runStages(jc, r.stages); err != nil {
			return nil, err
		}
		var parts [][]T
		for p, taken := 0, int64(0); p < r.numPart && taken < int64(n); p++ {
			part, err := r.partition(jc, p)
			if err != nil {
				return nil, err
			}
			k := 0
			for ; k < len(part) && taken < int64(n); k++ {
				taken += records(part[k : k+1])
			}
			parts = append(parts, part[:k])
		}
		return parts, nil
	})
	return slices.Concat(parts...), err
}

// ZipAt combines ranges of partitions of two RDDs partitioned the same way
// (a shuffle's buckets), as an RDD of n partitions of its own: partition q
// combines partitions lo..hi-1 of a, (lo, hi) = at(q), with the same
// partitions of b, handing f each side's partitions in order, a shuffle's
// buckets read straight off its map side — the shuffled hash join's reduce
// side, a task per range of buckets. Several tasks may
// split one range between them (the skew-split join's chunks); f's errors are
// retryable task errors.
func ZipAt[A, B, C any](a *RDD[A], b *RDD[B], n int, at func(q int) (lo, hi int), f func(jc context.Context, q int, left [][]A, right [][]B) ([]C, error)) *RDD[C] {
	return newRDD(a.ctx, "zipPartitions", n, func(jc context.Context, q int) ([]C, error) {
		lo, hi := at(q)
		left, err := a.bucketRange(jc, lo, hi)
		if err != nil {
			return nil, err
		}
		right, err := b.bucketRange(jc, lo, hi)
		if err != nil {
			return nil, err
		}
		return f(jc, q, left, right)
	}).Reads(a.stages...).Reads(b.stages...)
}

// Broadcast is a value shipped once to all tasks (paper §4.3.3's
// peer-to-peer broadcast facility; in-process it is a shared pointer, but
// keeping the explicit type preserves the programming model).
type Broadcast[T any] struct{ value T }

// NewBroadcast wraps a value for broadcast.
func NewBroadcast[T any](v T) *Broadcast[T] { return &Broadcast[T]{value: v} }

// Value returns the broadcast value.
func (b *Broadcast[T]) Value() T { return b.value }
