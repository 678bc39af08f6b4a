package optimizer

import "testing"

func TestPushDown(t *testing.T) {
	p := Plan(nil)
	if q, _ := pushDown(p); q.String() != p.String() {
		t.Fatal("a test may compare renderings")
	}
}
