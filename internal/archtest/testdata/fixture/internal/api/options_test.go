package api

// A test may declare a knob field, but not an AdaptiveConfig.
type AdaptiveConfig struct{ Codegen bool }
