package physical

import "fmt"

// joinFuseBlocker reports why a broadcast join cannot take the fused probe
// path ("" = fusable); a comment naming the "key shape" is not reported.
func joinFuseBlocker(j *BroadcastHashJoinExec) string {
	if !j.BuildRight && j.Type != plan.InnerJoin {
		return "build side not right"
	}
	if j.Type != plan.InnerJoin && j.Type != plan.LeftOuterJoin {
		return fmt.Sprintf("join type %s", j.Type)
	}
	if j.Residual != nil {
		return "residual predicate"
	}
	if r := keyShapeBlocker(j.LeftKeys, j.RightKeys); r != "" {
		return r
	}
	for _, k := range j.probeKeys() {
		if _, ok := expr.CompileVec(k); !ok {
			return "probe key not native"
		}
	}
	return "probe side not vectorized"
}

func keyShapeBlocker(l, r []expr.Expression) string {
	if len(l) == 1 && len(r) == 1 {
		return ""
	}
	return "unsupported key shape"
}
