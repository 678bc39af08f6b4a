package physical

import "repro/internal/row"

// A test may build key strings as a reference.
func refKey(r row.Row) string { return row.GroupKey(r, []int{0}) }
