package physical

import (
	"slices"

	r "repro/internal/row"
)

// A per-row boxing loop at a result edge, under the import's other name, and
// the per-batch header copy.
func boxEach(b batch, sel []int32) []r.Row {
	out := make([]r.Row, 0, len(sel))
	for _, i := range sel {
		cells := make(r.Row, 2)
		out = append(out, cells, b.Row(int(i)))
	}
	return slices.Concat(out, nil)
}
