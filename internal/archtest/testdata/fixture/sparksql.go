package sparksql

import "repro/internal/core"

// ClusterOptions aliases the one struct: an alias is not a second one.
type ClusterOptions = core.ClusterOptions
