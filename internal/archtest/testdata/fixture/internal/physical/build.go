package physical

// collectBuild runs the build side as a job from inside the probe task that
// first needs it; a comment naming CollectContext( is not reported.
func collectBuild(jc context.Context, build *rdd.RDD[row.Row]) ([]row.Row, error) {
	return build.CollectContext(jc)
}

func probeSkewed(jc context.Context, probe *rdd.RDD[row.Row], part int) ([]row.Row, error) {
	return probe.PartitionContext(jc, part)
}
