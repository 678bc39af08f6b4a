package rangejoin

func collectAll(r *rdd.RDD[row.Row]) ([]row.Row, error) {
	return r.CollectContext(context.Background())
}
