package columnar

import "unsafe"

// eface is the runtime layout of an empty interface: its dynamic type and a
// pointer to its value.
type eface struct {
	typ, data unsafe.Pointer
}

// The dynamic type words of a boxed string, float64, int32 and int64.
var stringType, float64Type, int32Type, int64Type = typeWord(""), typeWord(0.0), typeWord(int32(0)), typeWord(int64(0))

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
		if nullAt(nulls, i) {
			continue
		}
		slab[k] = lane[i]
		*(*eface)(unsafe.Pointer(&dst[k*stride])) = eface{typ: typ, data: unsafe.Pointer(&slab[k])}
	}
}

// boxInts is boxSlab for an int64 lane whose values box as T (int32 for INT
// and DATE). A value 0–255 boxes as an ordinary conversion does, to the
// runtime's preboxed copy, which allocates nothing; the others share one slab
// sized to them alone, so a selection allocates no more bytes than boxing each
// cell on its own did, but for the slab's rounding to an allocation size.
func boxInts[T int32 | int64](dst []any, stride int, lane []int64, sel []int32, nulls []uint64, typ unsafe.Pointer) {
	big := 0
	for _, i := range sel {
		if uint64(lane[i]) > 255 && !nullAt(nulls, i) {
			big++
		}
	}
	slab := make([]T, 0, big)
	for k, i := range sel {
		if x := lane[i]; uint64(x) <= 255 {
			if !nullAt(nulls, i) {
				dst[k*stride] = T(x)
			}
		} else if !nullAt(nulls, i) {
			slab = append(slab, T(x))
			*(*eface)(unsafe.Pointer(&dst[k*stride])) = eface{typ: typ, data: unsafe.Pointer(&slab[len(slab)-1])}
		}
	}
}

// nullAt reports whether position i is NULL in a null bitmap (empty: none).
func nullAt(nulls []uint64, i int32) bool {
	return len(nulls) > 0 && nulls[i/64]&(1<<(uint(i)%64)) != 0
}
