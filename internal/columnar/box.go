package columnar

import "unsafe"

// eface is the runtime layout of an empty interface: its dynamic type and a
// pointer to its value.
type eface struct {
	typ, data unsafe.Pointer
}

// stringType is the dynamic type word of a boxed string.
var stringType = func() unsafe.Pointer {
	var boxed any = ""
	return (*eface)(unsafe.Pointer(&boxed)).typ
}()

// boxStrings boxes lane[i] for the k-th position i of sel into dst[k*stride],
// skipping the positions nulls marks NULL (empty nulls: none), which stay nil.
// Boxing a string the ordinary way allocates a 16-byte header per cell; here
// the selected headers are copied into one fresh slab and each cell is an
// interface whose value pointer is its slab slot, so a call allocates once
// whatever the selection's length. The cells are ordinary strings to every
// reader: ==, hashing as a map key and type switches read through the
// pointer. The slab belongs to this call and is never written again, and a
// retained cell keeps all of it reachable.
func boxStrings(dst []any, stride int, lane []string, sel []int32, nulls []uint64) {
	slab := make([]string, len(sel))
	for k, i := range sel {
		if len(nulls) > 0 && nulls[i/64]&(1<<(uint(i)%64)) != 0 {
			continue
		}
		slab[k] = lane[i]
		*(*eface)(unsafe.Pointer(&dst[k*stride])) = eface{typ: stringType, data: unsafe.Pointer(&slab[k])}
	}
}
