package sparksql

import (
	"strings"
	"testing"
	"time"
)

// chainWithin runs q, whose expression is a chain of n terms joined by op,
// and fails unless it is answered within limit (ten times it under the race
// detector). The parser builds such a chain in a loop, so nothing but its
// depth bound limits n, and everything after it walks the tree: a node's type
// or resolution worked out from its subtree at every node, or its text
// rebuilt from its children's at every level, makes the chain cost O(n^2) or
// O(n^3) per analyzer pass.
func chainWithin(t *testing.T, q func(chain string) string, term, op string, n int, limit time.Duration) {
	t.Helper()
	if raceEnabled {
		limit *= 10
	}
	sql := q(strings.Repeat(term+op, n-1) + term)
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		df, err := NewContext().SQL(sql)
		if err == nil {
			_, err = df.Collect()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%d-term %q chain: %v", n, op, err)
		}
		t.Logf("%d-term %q chain: %v", n, op, time.Since(start))
	case <-time.After(limit):
		t.Fatalf("a %d-term %q chain is not answered within %v", n, op, limit)
	}
}

func selectList(chain string) string  { return "SELECT " + chain }
func whereClause(chain string) string { return "SELECT x FROM (SELECT 1 AS x) t WHERE " + chain }

func TestArithmeticChainIsLinear(t *testing.T) {
	chainWithin(t, selectList, "1", " + ", 2000, 100*time.Millisecond)
	chainWithin(t, selectList, "1", " - ", 2000, 100*time.Millisecond)
	chainWithin(t, selectList, "2", " * ", 2000, 100*time.Millisecond)
}

func TestBooleanChainIsLinear(t *testing.T) {
	chainWithin(t, whereClause, "1 = 1", " OR ", 8000, time.Second)
	chainWithin(t, whereClause, "x = 1", " AND ", 8000, time.Second)
}

func TestConcatChainIsLinear(t *testing.T) {
	chainWithin(t, selectList, "'a'", " || ", 8000, time.Second)
}
