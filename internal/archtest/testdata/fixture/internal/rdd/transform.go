package rdd

// TakeContext as it stood before a take was sized to the rows it takes: the
// result was allocated at its cap, however few rows came back.
func TakeContext[T any](jc context.Context, r *RDD[T], n int) ([]T, error) {
	if err := runStages(jc, r.stages); err != nil {
		return nil, err
	}
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

// takeAll sizes its result by n outside TakeContext: not reported.
func takeAll[T any](n int) []T { return make([]T, 0, n) }
