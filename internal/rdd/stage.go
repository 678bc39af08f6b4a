package rdd

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Stage is a parent RDD run once per RDD graph, ahead of the tasks that read
// it: a shuffle's map side (which adaptive execution may run first, once), a
// join's build side, top-K's candidates. A
// terminal failure is memoized; a cancellation is not, so a query that timed
// out does not poison a later run of the same graph (cluster workers keep a
// statement's graph for the life of their session).
type Stage[V any] struct {
	ctx     *Context
	numPart int // the parent's
	build   func(jc context.Context) (V, error)

	mu   sync.Mutex
	done bool
	val  V
	err  error
}

// A Dep is a stage some RDD's tasks read: any *Stage.
type Dep interface {
	run(jc context.Context) error
}

// NewStage is r run as a stage: its partitions computed by one job, after the
// stages r reads, then handed to build. build runs outside any task, so its
// failure, a returned error or a panic, is the job's: a JobError naming r at
// partition -1.
func NewStage[T, V any](r *RDD[T], build func(jc context.Context, parts [][]T) (V, error)) *Stage[V] {
	return &Stage[V]{ctx: r.ctx, numPart: r.numPart, build: func(jc context.Context) (val V, err error) {
		parts, err := r.action(jc, "stage", r.computeAll) // a job of its own only when run outside one, as by AdaptPlan
		if err != nil {
			return val, err
		}
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("panic in stage build: %v", rec)
			}
			if err != nil && !terminalErr(err) {
				err = &JobError{RDDName: r.name, Partition: -1, Attempts: 1, Cause: err}
			}
		}()
		return build(jc, parts)
	}}
}

// Value returns the stage's value, running the stage first if nothing has. A
// task that has to run it — one computed outside an action, like a worker's
// PartitionContext — runs a job from inside its slot, which rdd.stages.nested
// counts.
func (s *Stage[V]) Value(jc context.Context) (V, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return s.val, s.err
	}
	if jc.Value(taskInfoKey{}) != nil {
		s.ctx.stagesNested.Add(1)
	}
	val, err := s.build(jc)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return val, err
	}
	s.done, s.val, s.err = true, val, err
	return val, err
}

func (s *Stage[V]) run(jc context.Context) error {
	_, err := s.Value(jc)
	return err
}

func runStages(jc context.Context, deps []Dep) error {
	for _, d := range deps {
		if err := d.run(jc); err != nil {
			return err
		}
	}
	return nil
}

// Stages returns the stages r's tasks read, in the order an action runs them.
func (r *RDD[T]) Stages() []Dep { return r.stages }

// Reads adds deps to the stages r's tasks read and returns r: it is for an RDD
// being built, before anything runs it.
func (r *RDD[T]) Reads(deps ...Dep) *RDD[T] {
	r.stages = slices.Concat(r.stages, deps)
	return r
}
