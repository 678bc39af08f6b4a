package physical

import rw "repro/internal/row"

// A join builds key strings under the import's other name; a map outside the
// group table's and the reducer's files is not reported.
func buildKeys(rows []rw.Row, ords []int) map[string]int {
	out := make(map[string]int)
	for i, r := range rows {
		out[rw.GroupKey(r, ords)] = i
	}
	return out
}

func (j *joiner) probe(r rw.Row) int { return j.keyFunc(r) }
