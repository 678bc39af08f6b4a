package physical

// The group table keeps a Go map[string]int32 of key strings again; this
// comment names the map type and is not reported.
type groupTable struct {
	index map[string]int32
}

func (t *groupTable) add(key string) int32 {
	g, ok := t.index[keyFunc(key)]
	if !ok {
		g = int32(len(t.index))
		t.index[key] = g
	}
	return g
}
