package cluster

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/frame"
)

// BlockStore is a worker's in-memory shuffle-block storage: map outputs
// are published here under "<shuffleID>/<bucket>" keys and served to peer
// workers over the block server. Groups (one per shuffle) are evicted
// least-recently-used once the store exceeds its byte budget — a stale
// advertisement then fails the peer's fetch, which falls back to lineage
// recompute, so eviction is always safe.
type BlockStore struct {
	mu       sync.Mutex
	blocks   map[string][]byte
	groups   map[string]*blockGroup // prefix → group
	order    []string               // prefixes, LRU order (front = oldest)
	bytes    int64
	maxBytes int64
}

type blockGroup struct {
	keys  []string
	bytes int64
}

// NewBlockStore builds a store bounded at maxBytes (0 = 256 MB default).
func NewBlockStore(maxBytes int64) *BlockStore {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &BlockStore{
		blocks:   make(map[string][]byte),
		groups:   make(map[string]*blockGroup),
		maxBytes: maxBytes,
	}
}

// groupOf returns the group prefix of a key ("<shuffleID>/<bucket>" →
// "<shuffleID>"); keys without a slash form their own group.
func groupOf(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[:i]
	}
	return key
}

// Put stores one block, evicting old groups if needed. A key stored again
// (a retried map task, a statement rebuilt) replaces its block in place.
func (s *BlockStore) Put(key string, data []byte) {
	g := groupOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	old, stored := s.blocks[key]
	if stored {
		s.bytes -= int64(len(old))
		if grp := s.groups[g]; grp != nil {
			grp.bytes -= int64(len(old))
		}
	}
	cp := append([]byte(nil), data...)
	s.blocks[key] = cp
	s.bytes += int64(len(cp))
	grp := s.groups[g]
	if grp == nil {
		grp = &blockGroup{}
		s.groups[g] = grp
		s.order = append(s.order, g)
	}
	if !stored {
		grp.keys = append(grp.keys, key)
	}
	grp.bytes += int64(len(cp))
	for s.bytes > s.maxBytes && len(s.order) > 1 {
		oldest := s.order[0]
		if oldest == g {
			break // never evict the group being written
		}
		s.dropGroupLocked(oldest)
	}
}

// Get returns a copy of a stored block.
func (s *BlockStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blocks[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// DropGroup removes every block of one shuffle.
func (s *BlockStore) DropGroup(prefix string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropGroupLocked(prefix)
}

func (s *BlockStore) dropGroupLocked(prefix string) {
	grp, ok := s.groups[prefix]
	if !ok {
		return
	}
	for _, k := range grp.keys {
		if b, ok := s.blocks[k]; ok {
			s.bytes -= int64(len(b))
			delete(s.blocks, k)
		}
	}
	delete(s.groups, prefix)
	for i, g := range s.order {
		if g == prefix {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// NumBlocks returns the number of stored blocks.
func (s *BlockStore) NumBlocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}

// Bytes returns the stored byte total.
func (s *BlockStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// FetchBlock retrieves one block from a peer worker's block server: one
// short-lived connection, one request/response round trip, CRC-checked by
// the framing layer. The timeout bounds dial + read so a dead peer cannot
// wedge the fetching task.
func FetchBlock(addr, key string, timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch %q from %s: %w", key, addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if err := frame.Write(conn, fBlockGet, encodeString(key)); err != nil {
		return nil, fmt.Errorf("cluster: fetch %q from %s: %w", key, addr, err)
	}
	ft, payload, err := frame.Read(conn)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch %q from %s: %w", key, addr, err)
	}
	if ft != fBlockData {
		return nil, fmt.Errorf("cluster: fetch %q from %s: unexpected frame type %d", key, addr, ft)
	}
	m, err := decodeBlockData(payload)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch %q from %s: %w", key, addr, err)
	}
	if !m.OK {
		return nil, fmt.Errorf("cluster: fetch %q from %s: %s", key, addr, m.Message)
	}
	return m.Data, nil
}

// serveBlocks answers fBlockGet requests on one peer connection until it
// closes or errors.
func serveBlocks(conn net.Conn, store *BlockStore) {
	defer conn.Close()
	for {
		ft, payload, err := frame.Read(conn)
		if err != nil {
			return
		}
		if ft != fBlockGet {
			return
		}
		key, err := decodeString(payload)
		if err != nil {
			return
		}
		var reply blockDataMsg
		if data, ok := store.Get(key); ok {
			reply = blockDataMsg{OK: true, Data: data}
		} else {
			reply = blockDataMsg{Message: fmt.Sprintf("no such block %q", key)}
		}
		if err := frame.Write(conn, fBlockData, encodeBlockData(reply)); err != nil {
			return
		}
	}
}
