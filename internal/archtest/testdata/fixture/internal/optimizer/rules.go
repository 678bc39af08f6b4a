package optimizer

// Plan is a logical plan.
type Plan interface{ String() string }

func rewrite(p Plan) Plan { return p }

// pushDown compares renderings to decide whether a rule fired, once on each
// side of the comparison.
func pushDown(p Plan) (Plan, bool) {
	q := rewrite(p)
	if q.String() == p.String() {
		return p, false
	}
	changed := "" != q.String()
	return q, changed
}
