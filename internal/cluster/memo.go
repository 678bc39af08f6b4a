package cluster

import "sync/atomic"

// MemoCapacity bounds every Memo: a statement memo that outgrows it drops its
// least recently used entry.
const MemoCapacity = 32

// MemoEntry, embedded in a value a Memo holds, stamps the value's last use.
type MemoEntry struct{ used uint64 }

func (e *MemoEntry) memoEntry() *MemoEntry { return e }

// memoized is a pointer to a value that embeds MemoEntry.
type memoized interface{ memoEntry() *MemoEntry }

// memoClock orders uses across every Memo (only the order within one matters):
// a Memo is a plain map, with nowhere to keep a clock of its own.
var memoClock atomic.Uint64

// Memo is a statement memo bounded at MemoCapacity entries, a plain map whose
// Put evicts. The coordinator keeps decision lists in one and a worker its
// built statements, each under its own lock: a Memo does no locking.
type Memo[V memoized] map[string]V

// Get returns the value under key and marks it used.
func (m Memo[V]) Get(key string) (V, bool) {
	v, ok := m[key]
	if ok {
		v.memoEntry().used = memoClock.Add(1)
	}
	return v, ok
}

// Put stores v under key, first dropping the least recently used entry when
// key is new and the memo is full.
func (m Memo[V]) Put(key string, v V) {
	if _, ok := m[key]; !ok && len(m) >= MemoCapacity {
		oldest, at := "", ^uint64(0)
		for k, e := range m {
			if u := e.memoEntry().used; u <= at {
				oldest, at = k, u
			}
		}
		delete(m, oldest)
	}
	v.memoEntry().used = memoClock.Add(1)
	m[key] = v
}
