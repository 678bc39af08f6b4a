package columnar

import "unsafe"

// eface is the runtime layout of an empty interface: its dynamic type and a
// pointer to its value.
type eface struct {
	typ, data unsafe.Pointer
}

// The dynamic type words of a boxed string and a boxed float64.
var stringType, float64Type = typeWord(""), typeWord(0.0)

func typeWord(boxed any) unsafe.Pointer {
	return (*eface)(unsafe.Pointer(&boxed)).typ
}

// boxSlab boxes lane[i] for the k-th position i of sel into dst[k*stride],
// skipping the positions nulls marks NULL (empty nulls: none), which stay nil;
// typ is the type word of T. Boxing a string or a float64 the ordinary way
// allocates per cell; here the selected values are copied into one fresh slab
// and each cell is an interface whose value pointer is its slab slot, so a
// call allocates once whatever the selection's length. The cells are ordinary
// values to every reader: ==, hashing as a map key and type switches read
// through the pointer. The slab belongs to this call and is never written
// again, and a retained cell keeps all of it reachable.
func boxSlab[T string | float64](dst []any, stride int, lane []T, sel []int32, nulls []uint64, typ unsafe.Pointer) {
	slab := make([]T, len(sel))
	for k, i := range sel {
		if len(nulls) > 0 && nulls[i/64]&(1<<(uint(i)%64)) != 0 {
			continue
		}
		slab[k] = lane[i]
		*(*eface)(unsafe.Pointer(&dst[k*stride])) = eface{typ: typ, data: unsafe.Pointer(&slab[k])}
	}
}
