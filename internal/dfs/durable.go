// Durable mode: a FileSystem opened with OpenDir mirrors its files to a
// host directory so state survives process restarts — the substrate the
// table store's write-ahead log and checkpoints need for crash recovery.
//
// Layout: each dfs path maps to one OS file whose name is the URL-escaped
// path, and each of a file's blocks is one internal/frame frame of kind
// blockKind, CRC-checked. Appending a block appends one frame, so a crash
// leaves at most one torn frame at the tail of a file; the loader keeps the
// longest prefix of intact frames and cuts a torn or corrupt tail, so no
// block comes back altered. A file that does not open with a block frame
// is refused and left untouched. Scratch namespaces ("/tmp/", "/spill/")
// are never mirrored: spills are worthless after a crash and must not be
// mistaken for durable state.
package dfs

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"

	"repro/internal/frame"
)

// blockKind is the frame kind of a mirrored block: not an ASCII byte, and
// not the first byte of any file the earlier length-prefixed format wrote.
const blockKind byte = 0xDB

// memoryOnlyNamespaces are path prefixes that never reach the host disk.
var memoryOnlyNamespaces = []string{"/tmp/", "/spill/"}

func memoryOnly(path string) bool {
	for _, ns := range memoryOnlyNamespaces {
		if len(path) >= len(ns) && path[:len(ns)] == ns {
			return true
		}
	}
	return false
}

// OpenDir opens a file system mirrored to dir, creating the directory if
// needed and loading every file already present (cutting a torn or corrupt
// tail per file, the possible residue of a crash mid-append). A file that
// is not a block file fails the open, naming it. Durable file systems
// charge no simulated I/O cost: the host disk is the cost.
func OpenDir(dir string) (*FileSystem, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dfs: open %q: %w", dir, err)
	}
	fs := New()
	fs.dir = dir
	fs.handles = make(map[string]*os.File)
	fs.torn = make(map[string]bool)
	fs.WriteNanosPerByte = 0
	fs.ReadNanosPerByte = 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dfs: open %q: %w", dir, err)
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		path, err := url.PathUnescape(ent.Name())
		if err != nil {
			continue // not one of ours
		}
		osPath := filepath.Join(dir, ent.Name())
		blocks, torn, err := loadFrames(osPath)
		if err != nil {
			return nil, fmt.Errorf("dfs: load %s: %w", osPath, err)
		}
		fs.files[path] = blocks
		fs.torn[path] = torn
	}
	return fs, nil
}

// Dir returns the host directory a durable file system mirrors to ("" for
// a memory-only file system).
func (fs *FileSystem) Dir() string { return fs.dir }

// hostPath maps a dfs path to its OS file.
func (fs *FileSystem) hostPath(path string) string {
	return filepath.Join(fs.dir, url.PathEscape(path))
}

// errForeign refuses a non-empty file whose first byte is not blockKind.
var errForeign = errors.New("not a dfs block file")

// loadFrames reads a mirrored file's blocks: the payloads of its longest
// prefix of intact block frames. A torn or corrupt tail is truncated off
// the OS file (torn reports it), so that later appends land after the last
// intact frame rather than after garbage that would hide them on the next
// load. A file that is not a block file is refused and left as it is.
func loadFrames(osPath string) (blocks [][]byte, torn bool, err error) {
	data, err := os.ReadFile(osPath)
	if err != nil || len(data) == 0 {
		return nil, false, err
	}
	if data[0] != blockKind {
		return nil, false, errForeign
	}
	rest := data
	for len(rest) > 0 {
		kind, payload, next, err := frame.Next(rest)
		if err != nil || kind != blockKind {
			return blocks, true, os.Truncate(osPath, int64(len(data)-len(rest)))
		}
		blocks = append(blocks, payload)
		rest = next
	}
	return blocks, false, nil
}

// TornTail reports whether OpenDir cut a torn or corrupt tail off path's
// mirrored file and nothing has written the path since.
func (fs *FileSystem) TornTail(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.torn[path]
}

// mirrorWrite replaces a path's OS file with the given blocks, atomically
// via a temp file + rename so a crash leaves either the old or the new
// content, never a mix. Called with fs.mu held.
func (fs *FileSystem) mirrorWrite(path string, blocks [][]byte) error {
	if fs.dir == "" || memoryOnly(path) {
		return nil
	}
	delete(fs.torn, path)
	if h, ok := fs.handles[path]; ok {
		h.Close()
		delete(fs.handles, path)
	}
	target := fs.hostPath(path)
	tmp := target + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("dfs: mirror %q: %w", path, err)
	}
	var buf []byte
	for _, b := range blocks {
		buf = frame.Append(buf[:0], blockKind, b)
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return fmt.Errorf("dfs: mirror %q: %w", path, err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("dfs: mirror %q: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dfs: mirror %q: %w", path, err)
	}
	if err := os.Rename(tmp, target); err != nil {
		return fmt.Errorf("dfs: mirror %q: %w", path, err)
	}
	return nil
}

// mirrorAppend appends one frame to a path's OS file, caching the append
// handle so WAL appends don't reopen the segment per record. Called with
// fs.mu held.
func (fs *FileSystem) mirrorAppend(path string, block []byte) error {
	if fs.dir == "" || memoryOnly(path) {
		return nil
	}
	delete(fs.torn, path)
	h, ok := fs.handles[path]
	if !ok {
		var err error
		h, err = os.OpenFile(fs.hostPath(path), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("dfs: append %q: %w", path, err)
		}
		fs.handles[path] = h
	}
	if _, err := h.Write(frame.Append(nil, blockKind, block)); err != nil {
		return fmt.Errorf("dfs: append %q: %w", path, err)
	}
	return nil
}

// mirrorDelete removes a path's OS file. Called with fs.mu held.
func (fs *FileSystem) mirrorDelete(path string) {
	if fs.dir == "" || memoryOnly(path) {
		return
	}
	delete(fs.torn, path)
	if h, ok := fs.handles[path]; ok {
		h.Close()
		delete(fs.handles, path)
	}
	os.Remove(fs.hostPath(path))
}

// Sync flushes a path's mirrored bytes to stable storage — the
// fsync-on-commit hook the write-ahead log calls before declaring a
// transaction durable. A no-op for memory-only file systems and
// namespaces, whose durability scope is the process lifetime anyway.
func (fs *FileSystem) Sync(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.dir == "" || memoryOnly(path) {
		return nil
	}
	if h, ok := fs.handles[path]; ok {
		if err := h.Sync(); err != nil {
			return fmt.Errorf("dfs: sync %q: %w", path, err)
		}
	}
	return nil
}

// Close releases cached OS handles (after syncing them). Memory-only file
// systems need no Close; it is a cheap no-op there.
func (fs *FileSystem) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var first error
	for p, h := range fs.handles {
		if err := h.Sync(); err != nil && first == nil {
			first = err
		}
		if err := h.Close(); err != nil && first == nil {
			first = err
		}
		delete(fs.handles, p)
	}
	return first
}
