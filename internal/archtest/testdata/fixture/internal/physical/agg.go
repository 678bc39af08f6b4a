package physical

import (
	ex "repro/internal/expr"
	"repro/internal/row"
)

// The aggregate's spill records may make rows; its tasks may not copy a
// batch's row headers.
func flush(a ex.Arena, n int) []row.Row {
	rec := make(row.Row, n)
	return append(ex.BoxRows(a), rec)
}
