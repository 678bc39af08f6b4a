// Package dfs simulates a distributed file system (the HDFS of the paper's
// cluster) for experiments that materialize intermediate datasets between
// jobs — the cost Figure 10's separate-engines pipeline pays and the
// integrated DataFrame pipeline avoids. Files are stored in memory as
// partitioned byte blocks; reads and writes are metered and charged a
// configurable per-byte cost so the serialization + replication + I/O
// penalty of crossing an engine boundary is represented.
package dfs

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FileSystem is an in-memory partitioned blob store with I/O accounting.
// Opened with OpenDir it additionally mirrors durable paths to a directory
// on the host file system (see durable.go), which is what makes the table
// store's write-ahead log survive process restarts.
type FileSystem struct {
	mu    sync.Mutex
	files map[string][][]byte

	// dir is the host directory durable files mirror to ("" = memory only);
	// handles caches append-mode OS files so WAL appends don't reopen the
	// segment on every record.
	dir     string
	handles map[string]*os.File
	// torn holds the paths whose torn or corrupt tail OpenDir cut off.
	torn map[string]bool

	// protected holds namespace prefixes registered via Protect: files under
	// them survive DeletePrefix sweeps rooted outside the namespace, so a
	// broad spill/temp cleanup can never eat WAL segments or checkpoints.
	protected []string

	// WriteNanosPerByte and ReadNanosPerByte simulate disk+network cost;
	// defaults model a ~50 MB/s effective write path (HDFS pipeline
	// replication over the cluster network) and ~200 MB/s read path.
	WriteNanosPerByte float64
	ReadNanosPerByte  float64

	bytesWritten int64
	bytesRead    int64

	// Fault injection (chaos testing): readAttempts counts Reads per path
	// (1-based), so hooks can fail or slow only the first k reads and let a
	// retry succeed — modelling a flaky datanode rather than a lost file.
	// writeAttempts and the write-fault hook mirror the read side so spill
	// writes are chaos-testable too.
	readAttempts   map[string]int
	readFaultHook  func(path string, attempt int) error
	readLatency    func(path string, attempt int) time.Duration
	writeAttempts  map[string]int
	writeFaultHook func(path string, attempt int) error

	tempSeq atomic.Int64
}

// New creates an empty file system with default cost parameters.
func New() *FileSystem {
	return &FileSystem{
		files:             make(map[string][][]byte),
		readAttempts:      make(map[string]int),
		writeAttempts:     make(map[string]int),
		WriteNanosPerByte: 20.0, // ≈50 MB/s
		ReadNanosPerByte:  5.0,  // ≈200 MB/s
	}
}

// SetReadFaultHook installs a hook consulted before every Read with the
// path and the 1-based attempt number for that path; a non-nil return
// fails that read. nil clears the hook.
func (fs *FileSystem) SetReadFaultHook(hook func(path string, attempt int) error) {
	fs.mu.Lock()
	fs.readFaultHook = hook
	fs.mu.Unlock()
}

// SetReadLatencyHook installs a hook that adds a latency spike to a read
// (on top of the simulated per-byte cost). nil clears the hook.
func (fs *FileSystem) SetReadLatencyHook(hook func(path string, attempt int) time.Duration) {
	fs.mu.Lock()
	fs.readLatency = hook
	fs.mu.Unlock()
}

// ReadAttempts returns how many Reads (successful or injected-failed) have
// been issued against path.
func (fs *FileSystem) ReadAttempts(path string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.readAttempts[path]
}

// SetWriteFaultHook installs a hook consulted before every Write and
// AppendBlock with the path and the 1-based attempt number for that path;
// a non-nil return fails that write before any state changes, modelling a
// failed HDFS pipeline. nil clears the hook.
func (fs *FileSystem) SetWriteFaultHook(hook func(path string, attempt int) error) {
	fs.mu.Lock()
	fs.writeFaultHook = hook
	fs.mu.Unlock()
}

// WriteAttempts returns how many Writes (successful or injected-failed)
// have been issued against path.
func (fs *FileSystem) WriteAttempts(path string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.writeAttempts[path]
}

// beginWrite counts the attempt and applies the write-fault hook.
func (fs *FileSystem) beginWrite(path string) error {
	fs.mu.Lock()
	fs.writeAttempts[path]++
	attempt := fs.writeAttempts[path]
	fault := fs.writeFaultHook
	fs.mu.Unlock()
	if fault != nil {
		if err := fault(path, attempt); err != nil {
			return fmt.Errorf("dfs: write %q (attempt %d): %w", path, attempt, err)
		}
	}
	return nil
}

// Write stores a file as partitioned blocks, charging the write cost.
// Injected faults (see SetWriteFaultHook) fail the write before any state
// changes.
func (fs *FileSystem) Write(path string, partitions [][]byte) error {
	if err := fs.beginWrite(path); err != nil {
		return err
	}
	var n int64
	for _, p := range partitions {
		n += int64(len(p))
	}
	fs.charge(float64(n) * fs.WriteNanosPerByte)
	cp := make([][]byte, len(partitions))
	for i, p := range partitions {
		cp[i] = append([]byte(nil), p...)
	}
	fs.mu.Lock()
	fs.files[path] = cp
	fs.bytesWritten += n
	err := fs.mirrorWrite(path, cp)
	fs.mu.Unlock()
	return err
}

// AppendBlock appends one block to a file (creating it if absent),
// charging the write cost — the primitive spill files are built from.
func (fs *FileSystem) AppendBlock(path string, block []byte) error {
	if err := fs.beginWrite(path); err != nil {
		return err
	}
	fs.charge(float64(len(block)) * fs.WriteNanosPerByte)
	cp := append([]byte(nil), block...)
	fs.mu.Lock()
	fs.files[path] = append(fs.files[path], cp)
	fs.bytesWritten += int64(len(block))
	err := fs.mirrorAppend(path, cp)
	fs.mu.Unlock()
	return err
}

// Read returns a file's blocks, charging the read cost. Injected faults
// and latency spikes (see SetReadFaultHook / SetReadLatencyHook) apply
// before the data is served.
func (fs *FileSystem) Read(path string) ([][]byte, error) {
	fs.mu.Lock()
	fs.readAttempts[path]++
	attempt := fs.readAttempts[path]
	fault := fs.readFaultHook
	latency := fs.readLatency
	parts, ok := fs.files[path]
	fs.mu.Unlock()
	if latency != nil {
		if d := latency(path, attempt); d > 0 {
			time.Sleep(d)
		}
	}
	if fault != nil {
		if err := fault(path, attempt); err != nil {
			return nil, fmt.Errorf("dfs: read %q (attempt %d): %w", path, attempt, err)
		}
	}
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", path)
	}
	var n int64
	for _, p := range parts {
		n += int64(len(p))
	}
	fs.charge(float64(n) * fs.ReadNanosPerByte)
	fs.mu.Lock()
	fs.bytesRead += n
	fs.mu.Unlock()
	return parts, nil
}

// ReadBlock returns one block of a file, charging only that block's read
// cost — the streaming read under the external sort's k-way merge. The
// read-fault and latency hooks apply, sharing the path's attempt counter
// with Read.
func (fs *FileSystem) ReadBlock(path string, i int) ([]byte, error) {
	fs.mu.Lock()
	fs.readAttempts[path]++
	attempt := fs.readAttempts[path]
	fault := fs.readFaultHook
	latency := fs.readLatency
	parts, ok := fs.files[path]
	var block []byte
	if ok && i >= 0 && i < len(parts) {
		block = parts[i]
	}
	fs.mu.Unlock()
	if latency != nil {
		if d := latency(path, attempt); d > 0 {
			time.Sleep(d)
		}
	}
	if fault != nil {
		if err := fault(path, attempt); err != nil {
			return nil, fmt.Errorf("dfs: read %q block %d (attempt %d): %w", path, i, attempt, err)
		}
	}
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", path)
	}
	if block == nil {
		return nil, fmt.Errorf("dfs: %q has no block %d", path, i)
	}
	fs.charge(float64(len(block)) * fs.ReadNanosPerByte)
	fs.mu.Lock()
	fs.bytesRead += int64(len(block))
	fs.mu.Unlock()
	return block, nil
}

// NumBlocks returns how many blocks a file holds.
func (fs *FileSystem) NumBlocks(path string) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parts, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("dfs: no such file %q", path)
	}
	return len(parts), nil
}

// Delete removes a file. Exact-path deletes are always honored, protected
// namespace or not — they are deliberate, file-level operations (the store
// truncating its own WAL segment), unlike the sweep semantics of
// DeletePrefix.
func (fs *FileSystem) Delete(path string) {
	fs.mu.Lock()
	delete(fs.files, path)
	fs.mirrorDelete(path)
	fs.mu.Unlock()
}

// Protect registers a namespace prefix whose files survive DeletePrefix
// sweeps rooted outside it. The table store protects its root so WAL
// segments and checkpoints can never be collected by a query's spill/temp
// cleanup; the store's own maintenance still works because a DeletePrefix
// rooted at or inside the protected prefix is considered deliberate.
func (fs *FileSystem) Protect(prefix string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, p := range fs.protected {
		if p == prefix {
			return
		}
	}
	fs.protected = append(fs.protected, prefix)
}

// shielded reports whether path sits in a protected namespace that the
// sweep rooted at prefix is not allowed to touch.
func (fs *FileSystem) shielded(path, prefix string) bool {
	for _, prot := range fs.protected {
		if strings.HasPrefix(path, prot) && !strings.HasPrefix(prefix, prot) {
			return true
		}
	}
	return false
}

// DeletePrefix removes every file whose path starts with prefix and
// returns how many were removed — how a query drops a spill scope's temp
// files in one call at task close or query end/cancel. Files under a
// Protect-ed namespace are skipped unless the sweep itself is rooted at or
// inside that namespace.
func (fs *FileSystem) DeletePrefix(prefix string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := 0
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) && !fs.shielded(p, prefix) {
			delete(fs.files, p)
			fs.mirrorDelete(p)
			n++
		}
	}
	return n
}

// List returns the sorted paths starting with prefix ("" lists everything).
func (fs *FileSystem) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// NumFiles returns how many files are stored — the no-temp-file-leak
// assertion tests make after queries complete or cancel.
func (fs *FileSystem) NumFiles() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.files)
}

// TempPath returns a process-unique path under /tmp for scratch files
// (spill runs, experiment intermediates). /tmp is a memory-only namespace:
// even on a durable file system its files are never mirrored to disk, so
// scratch paths can never collide with — or be confused for — WAL segments.
// Existing paths are skipped: the sequence counter restarts with the
// process, but files may have survived it.
func (fs *FileSystem) TempPath(prefix string) string {
	for {
		p := fmt.Sprintf("/tmp/%s-%d", prefix, fs.tempSeq.Add(1))
		fs.mu.Lock()
		_, taken := fs.files[p]
		fs.mu.Unlock()
		if !taken {
			return p
		}
	}
}

// Exists reports whether a path is stored.
func (fs *FileSystem) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	return ok
}

// BytesWritten returns total bytes written.
func (fs *FileSystem) BytesWritten() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.bytesWritten
}

// BytesRead returns total bytes read.
func (fs *FileSystem) BytesRead() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.bytesRead
}

// charge sleeps for the simulated I/O duration.
func (fs *FileSystem) charge(nanos float64) {
	if nanos <= 0 {
		return
	}
	time.Sleep(time.Duration(nanos))
}
