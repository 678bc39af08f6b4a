package core

// Config is where the engine knobs live.
type Config struct {
	Codegen           bool
	ShufflePartitions int
}

// ClusterOptions is the one cluster options struct.
type ClusterOptions struct{ Workers int }
