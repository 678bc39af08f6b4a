package rdd

import (
	"context"
	"fmt"
)

// Transformations are package-level functions because Go methods cannot
// introduce new type parameters. All are lazy: they build a new RDD whose
// compute function pulls from the parent (a narrow dependency), except the
// shuffle-based operations in shuffle.go.

// Map applies f to every element.
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	return newRDD(r.ctx, r.name+".map", r.numPart, func(jc context.Context, p int) ([]U, error) {
		in, err := r.partition(jc, p)
		if err != nil {
			return nil, err
		}
		out := make([]U, len(in))
		for i, v := range in {
			out[i] = f(v)
		}
		return out, nil
	})
}

// Filter keeps elements satisfying pred.
func Filter[T any](r *RDD[T], pred func(T) bool) *RDD[T] {
	return newRDD(r.ctx, r.name+".filter", r.numPart, func(jc context.Context, p int) ([]T, error) {
		in, err := r.partition(jc, p)
		if err != nil {
			return nil, err
		}
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
	return newRDD(r.ctx, r.name+".flatMap", r.numPart, func(jc context.Context, p int) ([]U, error) {
		in, err := r.partition(jc, p)
		if err != nil {
			return nil, err
		}
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
	return newRDD(r.ctx, r.name+".mapPartitions", r.numPart, func(jc context.Context, p int) ([]U, error) {
		in, err := r.partition(jc, p)
		if err != nil {
			return nil, err
		}
		return f(p, in), nil
	})
}

// MapPartitionsCtx is MapPartitions for partition functions that observe
// the job context or fail with an error — operators that run nested jobs
// inside a task (a broadcast build side, a limit's scan) use it so nested
// failures and cancellation propagate instead of panicking.
func MapPartitionsCtx[T, U any](r *RDD[T], f func(jc context.Context, p int, in []T) ([]U, error)) *RDD[U] {
	return newRDD(r.ctx, r.name+".mapPartitions", r.numPart, func(jc context.Context, p int) ([]U, error) {
		in, err := r.partition(jc, p)
		if err != nil {
			return nil, err
		}
		return f(jc, p, in)
	})
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
	})
}

// Union concatenates the partitions of two RDDs.
func Union[T any](a, b *RDD[T]) *RDD[T] {
	return newRDD(a.ctx, "union", a.numPart+b.numPart, func(jc context.Context, p int) ([]T, error) {
		if p < a.numPart {
			return a.partition(jc, p)
		}
		return b.partition(jc, p-a.numPart)
	})
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
	})
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

// TakeContext is Take under a job context.
func TakeContext[T any](jc context.Context, r *RDD[T], n int) ([]T, error) {
	out := make([]T, 0, n)
	for p := 0; p < r.numPart && len(out) < n; p++ {
		part, err := r.partition(jc, p)
		if err != nil {
			return nil, err
		}
		for _, v := range part {
			out = append(out, v)
			if len(out) == n {
				break
			}
		}
	}
	return out, nil
}

// ZipPartitions combines the corresponding partitions of two RDDs with
// equal partition counts — the primitive under shuffled hash joins (both
// sides are hash-partitioned the same way, then joined partition-by-
// partition). Unequal partition counts are a construction error.
func ZipPartitions[A, B, C any](a *RDD[A], b *RDD[B], f func(p int, left []A, right []B) []C) (*RDD[C], error) {
	if a.numPart != b.numPart {
		return nil, fmt.Errorf("rdd: ZipPartitions requires equal partition counts (%d vs %d)",
			a.numPart, b.numPart)
	}
	return newRDD(a.ctx, "zipPartitions", a.numPart, func(jc context.Context, p int) ([]C, error) {
		left, err := a.partition(jc, p)
		if err != nil {
			return nil, err
		}
		right, err := b.partition(jc, p)
		if err != nil {
			return nil, err
		}
		return f(p, left, right), nil
	}), nil
}

// ZipPartitionsCtx is ZipPartitions for partition functions that observe
// the job context or fail with an error — the sort-merge join uses it so
// spill-file write failures inside a task surface as retryable task errors.
func ZipPartitionsCtx[A, B, C any](a *RDD[A], b *RDD[B], f func(jc context.Context, p int, left []A, right []B) ([]C, error)) (*RDD[C], error) {
	if a.numPart != b.numPart {
		return nil, fmt.Errorf("rdd: ZipPartitions requires equal partition counts (%d vs %d)",
			a.numPart, b.numPart)
	}
	return newRDD(a.ctx, "zipPartitions", a.numPart, func(jc context.Context, p int) ([]C, error) {
		left, err := a.partition(jc, p)
		if err != nil {
			return nil, err
		}
		right, err := b.partition(jc, p)
		if err != nil {
			return nil, err
		}
		return f(jc, p, left, right)
	}), nil
}

// Broadcast is a value shipped once to all tasks (paper §4.3.3's
// peer-to-peer broadcast facility; in-process it is a shared pointer, but
// keeping the explicit type preserves the programming model).
type Broadcast[T any] struct{ value T }

// NewBroadcast wraps a value for broadcast.
func NewBroadcast[T any](v T) *Broadcast[T] { return &Broadcast[T]{value: v} }

// Value returns the broadcast value.
func (b *Broadcast[T]) Value() T { return b.value }
