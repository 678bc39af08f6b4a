// Crash recovery: rebuild the store from its last checkpoint plus a redo
// replay of the WAL. Replay applies only transactions whose commit record
// made it to the log intact, in LSN order, and stops at the first torn or
// corrupt record — everything after it is by definition uncommitted. The
// file system catches torn and corrupt bytes (a durable one cuts them off
// each file it loads; see dfs.FileSystem.TornTail); replay stops at the
// first segment that lost a tail, or at the first malformed record.
// Replay runs the same apply functions live commits use, so a recovered
// store is bit-for-bit the state a clean shutdown would have left.
package store

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/row"
	"repro/internal/types"
)

// recover loads the checkpoint named by CURRENT (if any), replays the WAL
// past the checkpoint's LSN, and publishes every surviving table.
func (s *Store) recover() error {
	start := time.Now()
	var last manifest
	if s.fs.Exists(s.currentPath()) {
		blocks, err := s.fs.Read(s.currentPath())
		if err != nil || len(blocks) == 0 {
			return fmt.Errorf("store: reading CURRENT: %w", err)
		}
		mblocks, err := s.fs.Read(string(blocks[0]))
		if err != nil || len(mblocks) == 0 {
			return fmt.Errorf("store: reading manifest %q: %w", blocks[0], err)
		}
		if err := json.Unmarshal(mblocks[0], &last); err != nil {
			return fmt.Errorf("store: decoding manifest: %w", err)
		}
		if err := s.loadCheckpoint(last); err != nil {
			return err
		}
	}
	s.wal = &wal{fs: s.fs, root: s.root, seg: last.WALSeg, nextLSN: last.LastLSN + 1}
	if s.wal.nextLSN == 0 {
		s.wal.nextLSN = 1
	}

	replayed, torn, err := s.replayWAL(last.LastLSN)
	if err != nil {
		return err
	}
	s.replayedTxns.Add(int64(replayed))
	s.tornRecords.Add(int64(torn))

	// Publish recovered tables: fresh statistics (the rows were just
	// decoded anyway) and one catalog notification each.
	for _, name := range s.tableNamesLocked() {
		t := s.tables[name]
		s.refreshStatsLocked(t)
		t.rel = t.buildRel()
		s.notify(t.Name, t.rel)
	}
	s.span("wal.recover", start, int64(replayed), 0)
	return nil
}

// loadCheckpoint rebuilds tables and segments from manifest files.
func (s *Store) loadCheckpoint(m manifest) error {
	for _, mt := range m.Tables {
		fields := make([]types.StructField, 0, len(mt.Cols))
		for _, c := range mt.Cols {
			dt, err := columnType(c.Type)
			if err != nil {
				return fmt.Errorf("store: manifest table %q: %w", mt.Name, err)
			}
			fields = append(fields, types.StructField{Name: c.Name, Type: dt, Nullable: c.Nullable})
		}
		t := &Table{
			Name:    mt.Name,
			Schema:  types.StructType{Fields: fields},
			ver:     mt.Version,
			nextSeg: mt.NextSeg,
		}
		for _, ms := range mt.Segs {
			blocks, err := s.fs.Read(ms.File)
			if err != nil {
				return fmt.Errorf("store: segment %q: %w", ms.File, err)
			}
			var rows []row.Row
			for _, b := range blocks {
				rs, err := row.DecodeRows(b)
				if err != nil {
					return fmt.Errorf("store: segment %q: %w", ms.File, err)
				}
				rows = append(rows, rs...)
			}
			if int64(len(rows)) != ms.Rows {
				return fmt.Errorf("store: segment %q: %d rows, manifest says %d", ms.File, len(rows), ms.Rows)
			}
			t.segs = append(t.segs, newSegment(ms.ID, t.Schema, rows))
		}
		s.tables[mt.Name] = t
	}
	return nil
}

// walSegments lists WAL files in segment order (names embed a zero-padded
// number, but parse it anyway rather than trusting lexicographic order).
func (s *Store) walSegments() []string {
	paths := s.fs.List(s.root + "/wal-")
	type numbered struct {
		path string
		n    int64
	}
	var segs []numbered
	for _, p := range paths {
		num := p[strings.LastIndex(p, "-")+1:]
		n, err := strconv.ParseInt(num, 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, numbered{p, n})
	}
	for i := 1; i < len(segs); i++ {
		for j := i; j > 0 && segs[j].n < segs[j-1].n; j-- {
			segs[j], segs[j-1] = segs[j-1], segs[j]
		}
	}
	out := make([]string, len(segs))
	for i, g := range segs {
		out[i] = g.path
	}
	return out
}

// replayWAL redoes committed transactions with LSN > afterLSN. It returns
// the replayed-transaction count and how many trailing records were
// dropped as torn/uncommitted. Scanning stops at the first invalid record:
// the log's contract is that nothing after it was acknowledged.
func (s *Store) replayWAL(afterLSN uint64) (replayed, dropped int, err error) {
	var pending []record // records of the current (uncommitted) transaction
	var lastLSN uint64
	segs := s.walSegments()
	// Position just past the last valid commit record; everything after it
	// is torn or uncommitted and must be truncated away, or a future
	// transaction's commit marker would resurrect the dead records.
	cutSeg, cutBlk := -1, 0
	scan := true
	for si, path := range segs {
		if !scan {
			break
		}
		blocks, rerr := s.fs.Read(path)
		if rerr != nil {
			return replayed, dropped, fmt.Errorf("store: replay %q: %w", path, rerr)
		}
		if s.fs.TornTail(path) {
			dropped++
			scan = false
		}
		for bi, b := range blocks {
			rec, derr := decodeRecord(b)
			if derr != nil {
				dropped++
				scan = false
				break
			}
			if rec.lsn > lastLSN {
				lastLSN = rec.lsn
			}
			if rec.typ == recCommit {
				cutSeg, cutBlk = si, bi+1
			}
			if rec.lsn <= afterLSN {
				continue // already in the checkpoint
			}
			if rec.typ != recCommit {
				pending = append(pending, rec)
				continue
			}
			if aerr := s.applyTxn(pending); aerr != nil {
				return replayed, dropped, aerr
			}
			replayed++
			pending = pending[:0]
		}
	}
	dropped += len(pending) // trailing records with no commit: uncommitted
	// Truncate the dead tail: whole segments past the cut, then the cut
	// segment's trailing blocks (an atomic rewrite in durable mode).
	for si := len(segs) - 1; si > cutSeg; si-- {
		s.fs.Delete(segs[si])
	}
	if cutSeg >= 0 {
		blocks, rerr := s.fs.Read(segs[cutSeg])
		if rerr == nil && cutBlk < len(blocks) {
			if werr := s.fs.Write(segs[cutSeg], blocks[:cutBlk]); werr != nil {
				return replayed, dropped, fmt.Errorf("store: truncating %q: %w", segs[cutSeg], werr)
			}
		}
	}
	if lastLSN >= s.wal.nextLSN {
		s.wal.nextLSN = lastLSN + 1
	}
	return replayed, dropped, nil
}

// applyTxn redoes one committed transaction's records against the
// in-memory state — the same mutations the live commit paths perform,
// including identical new-segment ID assignment. Each surviving table a
// transaction touched gets one version bump, mirroring the live publish.
func (s *Store) applyTxn(recs []record) error {
	touched := map[string]bool{}
	for _, rec := range recs {
		switch rec.typ {
		case recCreate:
			name, schema, err := decodeCreate(rec.payload)
			if err != nil {
				return err
			}
			s.tables[name] = &Table{Name: name, Schema: schema}
			touched[name] = true
		case recDrop:
			name, err := decodeDrop(rec.payload)
			if err != nil {
				return err
			}
			delete(s.tables, name)
		case recInsert:
			name, segID, rows, err := decodeInsert(rec.payload)
			if err != nil {
				return err
			}
			t, ok := s.tables[name]
			if !ok {
				return fmt.Errorf("store: replay insert into unknown table %q", name)
			}
			t.segs = append(t.segs, newSegment(segID, t.Schema, rows))
			if segID >= t.nextSeg {
				t.nextSeg = segID + 1
			}
			touched[name] = true
		case recDelete:
			name, oldID, newID, offsets, err := decodeDelete(rec.payload)
			if err != nil {
				return err
			}
			t, ok := s.tables[name]
			if !ok {
				return fmt.Errorf("store: replay delete on unknown table %q", name)
			}
			if err := t.applyDelete(oldID, newID, offsets); err != nil {
				return err
			}
			if newID >= t.nextSeg {
				t.nextSeg = newID + 1
			}
			touched[name] = true
		}
	}
	for name := range touched {
		if t, ok := s.tables[name]; ok {
			t.ver++
		}
	}
	return nil
}

// applyDelete rewrites segment oldID without the rows at offsets; the
// survivors become segment newID (none survive when newID is -1).
func (t *Table) applyDelete(oldID, newID int64, offsets []int) error {
	for i, g := range t.segs {
		if g.ID != oldID {
			continue
		}
		rows := g.decode()
		drop := make(map[int]bool, len(offsets))
		for _, o := range offsets {
			if o < 0 || o >= len(rows) {
				return fmt.Errorf("store: replay delete offset %d out of range (segment %d has %d rows)", o, oldID, len(rows))
			}
			drop[o] = true
		}
		var kept []row.Row
		for j, r := range rows {
			if !drop[j] {
				kept = append(kept, r)
			}
		}
		if newID < 0 {
			t.segs = append(append([]*Segment(nil), t.segs[:i]...), t.segs[i+1:]...)
		} else {
			segs := append([]*Segment(nil), t.segs...)
			segs[i] = newSegment(newID, t.Schema, kept)
			t.segs = segs
		}
		return nil
	}
	return fmt.Errorf("store: replay delete: unknown segment %d", oldID)
}
