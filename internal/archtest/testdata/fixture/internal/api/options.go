package api

// Options mirrors two knobs on one line. Fusion is not a knob's type, and a
// comment saying "Codegen bool" declares nothing.
type Options struct {
	Codegen, Vectorized bool
	Fusion              string
	Threshold           int64
}

// ClusterOptions is a second cluster options struct.
type ClusterOptions struct{ Workers int }

var session = struct {
	ShufflePartitions int
}{}

// partitions takes an AdaptiveConfig; its parameters are not struct fields.
func partitions(a AdaptiveConfig, Codegen bool) int { return session.ShufflePartitions }
