package physical

// LazyBuild as it stood before a join's build side was a stage an action
// runs: a memoized build, run as a nested job inside the first probe task.
type LazyBuild[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
	err  error
}

func (b *LazyBuild[T]) Get(jc context.Context, build func(context.Context) (T, error)) (T, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.done {
		b.val, b.err = build(jc)
		b.done = true
	}
	return b.val, b.err
}

// adaptStage collected a query stage's partitions itself.
func adaptStage(jc context.Context, child *rdd.RDD[row.Row]) ([][]row.Row, error) {
	return child.CollectPartitionsContext(jc)
}
