package datasource

import "repro/internal/row"

func rows(b batch, n int) []row.Row {
	var out []row.Row
	for i := 0; i < n; i++ {
		out = append(out, b.Row(int(i)))
	}
	return out
}
