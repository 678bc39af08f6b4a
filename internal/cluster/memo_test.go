package cluster

import (
	"fmt"
	"testing"
)

type memoValue struct {
	MemoEntry
	n int
}

// A full memo drops the entry used longest ago: a Get counts as a use, and
// replacing a key's value evicts nothing.
func TestMemoEvictsLeastRecentlyUsed(t *testing.T) {
	m := make(Memo[*memoValue])
	for i := 0; i < MemoCapacity; i++ {
		m.Put(fmt.Sprint(i), &memoValue{n: i})
	}
	if _, ok := m.Get("0"); !ok {
		t.Fatal("entry 0 missing before the memo was full")
	}
	m.Put("1", &memoValue{n: -1})
	if len(m) != MemoCapacity {
		t.Fatalf("replacing a key left %d entries, want %d", len(m), MemoCapacity)
	}
	m.Put("new", &memoValue{n: MemoCapacity})
	if len(m) != MemoCapacity {
		t.Fatalf("%d entries after an insert into a full memo, want %d", len(m), MemoCapacity)
	}
	if _, ok := m["2"]; ok {
		t.Fatal("entry 2, the least recently used, survived the insert")
	}
	for _, k := range []string{"0", "1", "new"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("entry %s was evicted although it was used after entry 2", k)
		}
	}
	if v, _ := m.Get("1"); v.n != -1 {
		t.Fatalf("entry 1 holds %d, want the replacement -1", v.n)
	}
}
