package rangejoin

func (e *IntervalJoinExec) load(jc context.Context, buildSide *rdd.RDD[row.Row]) (*Tree, error) {
	leftRows, err := buildSide.CollectContext(jc)
	if err != nil {
		return nil, err
	}
	return NewTree(leftRows), nil
}
