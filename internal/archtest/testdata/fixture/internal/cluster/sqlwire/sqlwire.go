package sqlwire

// SessionSpec carries the coordinator's Config whole, and two knobs by hand.
type SessionSpec struct {
	Config      []byte
	Parallelism int
	Codegen     bool
}
