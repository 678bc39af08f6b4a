// Durable mode: a FileSystem opened with OpenDir mirrors its files to a
// host directory so state survives process restarts — the substrate the
// table store's write-ahead log and checkpoints need for crash recovery.
//
// Layout: each dfs path maps to one OS file whose name is the URL-escaped
// path, and a file's blocks are stored as length-prefixed frames
//
//	[u32 big-endian length][payload] ...
//
// Appending a block appends one frame; a crash can therefore leave at most
// one torn frame at the tail of a file, which the loader detects and drops
// (the WAL's record CRCs catch anything subtler). Scratch namespaces
// ("/tmp/", "/spill/") are never mirrored: spills are worthless after a
// crash and must not be mistaken for durable state.
package dfs

import (
	"encoding/binary"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
)

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
// needed and loading every file already present (dropping a torn trailing
// frame per file, the possible residue of a crash mid-append). Durable
// file systems charge no simulated I/O cost: the host disk is the cost.
func OpenDir(dir string) (*FileSystem, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dfs: open %q: %w", dir, err)
	}
	fs := New()
	fs.dir = dir
	fs.handles = make(map[string]*os.File)
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
		blocks, err := loadFrames(filepath.Join(dir, ent.Name()))
		if err != nil {
			return nil, fmt.Errorf("dfs: load %q: %w", path, err)
		}
		fs.files[path] = blocks
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

// loadFrames reads a mirrored file's frames, dropping a truncated tail —
// and truncating the OS file back to the valid prefix, so that later
// appends land after the last intact frame rather than after crash
// garbage that would render them unreadable on the next load.
func loadFrames(osPath string) ([][]byte, error) {
	data, err := os.ReadFile(osPath)
	if err != nil {
		return nil, err
	}
	blocks, valid := parseFrames(data)
	if valid < len(data) {
		if err := os.Truncate(osPath, int64(valid)); err != nil {
			return nil, err
		}
	}
	return blocks, nil
}

// parseFrames splits a mirrored file's bytes into the payloads of its whole
// frames (copies) and the length of the prefix they cover; what follows is
// a torn tail from a crash mid-append.
func parseFrames(data []byte) (blocks [][]byte, valid int) {
	rest := data
	for len(rest) >= 4 {
		n := binary.BigEndian.Uint32(rest[:4])
		if uint64(len(rest)-4) < uint64(n) {
			break
		}
		blocks = append(blocks, append([]byte(nil), rest[4:4+n]...))
		rest = rest[4+n:]
	}
	return blocks, len(data) - len(rest)
}

func frame(block []byte) []byte {
	out := make([]byte, 4+len(block))
	binary.BigEndian.PutUint32(out, uint32(len(block)))
	copy(out[4:], block)
	return out
}

// mirrorWrite replaces a path's OS file with the given blocks, atomically
// via a temp file + rename so a crash leaves either the old or the new
// content, never a mix. Called with fs.mu held.
func (fs *FileSystem) mirrorWrite(path string, blocks [][]byte) error {
	if fs.dir == "" || memoryOnly(path) {
		return nil
	}
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
	for _, b := range blocks {
		if _, err := f.Write(frame(b)); err != nil {
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
	h, ok := fs.handles[path]
	if !ok {
		var err error
		h, err = os.OpenFile(fs.hostPath(path), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("dfs: append %q: %w", path, err)
		}
		fs.handles[path] = h
	}
	if _, err := h.Write(frame(block)); err != nil {
		return fmt.Errorf("dfs: append %q: %w", path, err)
	}
	return nil
}

// mirrorDelete removes a path's OS file. Called with fs.mu held.
func (fs *FileSystem) mirrorDelete(path string) {
	if fs.dir == "" || memoryOnly(path) {
		return
	}
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
