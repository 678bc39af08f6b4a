package physical

// PlannerConfig is a view derived from core.Config.
type PlannerConfig struct {
	BroadcastThreshold   int64
	TargetPartitionBytes int64
}
