package sqlexec

import (
	"repro/internal/cluster/sqlwire"
	"repro/internal/core"
)

// buildContext copies one knob out of the spec by hand.
func buildContext(spec *sqlwire.SessionSpec) *core.Config {
	cfg := &core.Config{}
	cfg.Codegen = spec.Codegen
	return cfg
}

// describe may read the spec: only buildContext builds the worker's Config.
func describe(spec *sqlwire.SessionSpec) int { return spec.Parallelism }
