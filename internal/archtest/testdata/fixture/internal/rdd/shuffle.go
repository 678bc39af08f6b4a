package rdd

// shuffleState as it stood before a shuffle's map side was a stage an action
// runs: a second memoizer, run from inside the first reduce task.
type shuffleState[T any] struct {
	mu      sync.Mutex
	done    bool
	buckets [][]T
	err     error
}

func (st *shuffleState[T]) materialize(jc context.Context, build func(context.Context) ([][]T, error)) ([][]T, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.done {
		return st.buckets, st.err
	}
	st.buckets, st.err = build(jc)
	st.done = true
	return st.buckets, st.err
}

// CollectPartitionsContext was the adaptive driver's stage action.
func (r *RDD[T]) CollectPartitionsContext(jc context.Context) ([][]T, error) {
	return r.computeAll(jc)
}
