// Package store is the persistent table subsystem: a columnar table store
// on the simulated DFS with a write-ahead log, MVCC row versioning and
// crash recovery — the reproduction's stand-in for the writable data
// sources and Hive metastore the Spark SQL paper assumes around its
// catalog. CREATE/DROP TABLE, INSERT, UPDATE and DELETE commit through the
// WAL (fsync-on-commit); every commit publishes an immutable new table
// version whose InMemoryRelation plugs straight into the catalog, the
// vectorized/fused scan pipelines, the cost-based optimizer and the
// cluster session wire. Recovery replays committed transactions up to the
// last valid LSN; periodic checkpoints bound replay work by materializing
// segments and truncating the log.
package store

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/row"
	"repro/internal/stats"
	"repro/internal/types"
)

// Options tunes a store.
type Options struct {
	// Root is the dfs namespace prefix (default "store"); it is Protect-ed
	// so spill/temp sweeps can never collect WAL or checkpoint files.
	Root string
	// StatsRefreshRows is the minimum DML row-delta before a commit
	// recomputes optimizer statistics (0 = default 256; negative = never).
	// The effective threshold is max(StatsRefreshRows, liveRows/8): a
	// recompute scans the whole table, so it only fires once the table has
	// drifted proportionally, keeping sustained ingest linear.
	StatsRefreshRows int64
	// CheckpointBytes triggers a checkpoint once the WAL segment exceeds
	// this size (0 = default 4 MB; negative = only explicit Checkpoint).
	CheckpointBytes int64
	// Metrics receives store.* counters (nil = unregistered registry).
	Metrics *metrics.Registry
	// Trace receives WAL commit/checkpoint/recovery spans (nil = none).
	Trace *metrics.TraceBuffer
	// OnChange is the catalog hook: called with the new current version's
	// relation after every commit, and with a nil relation on DROP. Open
	// calls it once per recovered table.
	OnChange func(name string, rel *plan.InMemoryRelation)
}

// TableInfo is the SHOW TABLES / DESCRIBE view of one table: live (not
// stats-epoch) row and byte counts, plus the MVCC version number.
type TableInfo struct {
	Name    string
	Schema  types.StructType
	Version int64
	Rows    int64
	Bytes   int64
}

// Store manages the persistent tables of one engine.
type Store struct {
	// The store mutex serializes writers and catalog publication; readers
	// never take it — they hold immutable version relations.
	mu     sync.Mutex
	fs     *dfs.FileSystem
	root   string
	opts   Options
	wal    *wal
	tables map[string]*Table

	// counters (always non-nil; a fresh registry when Options.Metrics nil)
	commits, aborts, walRecords, walBytes  *metrics.Counter
	checkpoints, replayedTxns, tornRecords *metrics.Counter
	rowsIn, rowsDel, rowsUpd, statsRefresh *metrics.Counter
}

// Open opens (or initializes) a store on fs under opts.Root, running crash
// recovery: load the last checkpoint manifest, then redo-replay committed
// WAL transactions in LSN order up to the last valid record. Uncommitted
// or torn tails are discarded. OnChange fires once per recovered table.
func Open(fs *dfs.FileSystem, opts Options) (*Store, error) {
	if opts.Root == "" {
		opts.Root = "store"
	}
	if opts.StatsRefreshRows == 0 {
		opts.StatsRefreshRows = 256
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = 4 << 20
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	scope := reg.Scoped("store")
	s := &Store{
		fs:           fs,
		root:         opts.Root,
		opts:         opts,
		tables:       map[string]*Table{},
		commits:      scope.Counter("txn.commits"),
		aborts:       scope.Counter("txn.aborts"),
		walRecords:   scope.Counter("wal.records"),
		walBytes:     scope.Counter("wal.bytes"),
		checkpoints:  scope.Counter("checkpoints"),
		replayedTxns: scope.Counter("recovery.replayed_txns"),
		tornRecords:  scope.Counter("recovery.torn_records"),
		rowsIn:       scope.Counter("rows.inserted"),
		rowsDel:      scope.Counter("rows.deleted"),
		rowsUpd:      scope.Counter("rows.updated"),
		statsRefresh: scope.Counter("stats.refreshes"),
	}
	fs.Protect(opts.Root + "/")
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) span(name string, start time.Time, records, bytes int64) {
	if s.opts.Trace == nil {
		return
	}
	s.opts.Trace.Append(metrics.Span{
		Kind:    metrics.SpanWAL,
		Name:    name,
		Start:   metrics.Since(start),
		DurNS:   time.Since(start).Nanoseconds(),
		Records: records,
		Bytes:   bytes,
	})
}

// notify publishes a table's current relation (or its disappearance) to
// the catalog hook. Called with the store mutex held; the hook must not
// call back into the store.
func (s *Store) notify(name string, rel *plan.InMemoryRelation) {
	if s.opts.OnChange != nil {
		s.opts.OnChange(name, rel)
	}
}

// publish builds and installs a new version for t after a committed
// mutation, refreshing optimizer statistics when the row delta since the
// last refresh crosses the threshold.
func (s *Store) publish(t *Table) {
	rows, bytes := t.liveCounts()
	delta := rows - t.statsRows
	if delta < 0 {
		delta = -delta
	}
	// The effective threshold scales with the table: a recompute scans
	// every live row, so refreshing on a fixed delta would make steady
	// ingest quadratic. Requiring ~12.5% drift keeps total stats work
	// linear in rows written while small tables still refresh eagerly.
	threshold := s.opts.StatsRefreshRows
	if prop := rows / 8; prop > threshold {
		threshold = prop
	}
	if t.rel == nil || (s.opts.StatsRefreshRows > 0 && delta >= threshold) {
		s.refreshStatsLocked(t)
	} else {
		// Carry the stats-epoch view forward: the CBO keeps planning with
		// the last collected statistics until the table drifts far enough.
		// ANALYZE TABLE mutations on the previous relation are preserved
		// because relStats is read back from it.
		t.relStats = t.rel.TableStats
		t.relRows = t.rel.RowCount
		t.relBytes = t.rel.SizeInBytes
	}
	_ = bytes
	t.ver++
	t.rel = t.buildRel()
	s.notify(t.Name, t.rel)
}

// refreshStatsLocked recomputes t's optimizer statistics from its live
// rows and resets the drift baseline.
func (s *Store) refreshStatsLocked(t *Table) {
	all := t.allRows()
	st := stats.FromRows(t.Schema, all)
	_, bytes := t.liveCounts()
	st.SizeInBytes = bytes
	t.relStats = st
	t.relRows = int64(len(all))
	t.relBytes = bytes
	t.statsRows = int64(len(all))
	s.statsRefresh.Add(1)
}

// Analyze recomputes a table's statistics immediately (the ANALYZE TABLE
// path) and republishes its relation so queries planned afterwards see
// them.
func (s *Store) Analyze(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	if !ok {
		return fmt.Errorf("store: unknown table %q", name)
	}
	s.refreshStatsLocked(t)
	t.rel = t.buildRel()
	s.notify(t.Name, t.rel)
	return nil
}

// commit appends the transaction's records plus a commit marker to the
// WAL and syncs — the durability point. It then bumps metrics and, when
// the WAL has grown past the threshold, checkpoints.
func (s *Store) commit(recs []record) error {
	start := time.Now()
	recs = append(recs, record{typ: recCommit})
	n, err := s.wal.appendTxn(recs)
	s.walBytes.Add(n)
	if err != nil {
		s.aborts.Add(1)
		return err
	}
	s.walRecords.Add(int64(len(recs)))
	s.commits.Add(1)
	s.span("wal.commit", start, int64(len(recs)), n)
	return nil
}

// maybeCheckpoint runs a checkpoint when the WAL is past its threshold.
// Called with the mutex held, after the commit has been applied.
func (s *Store) maybeCheckpoint() {
	if s.opts.CheckpointBytes > 0 && s.wal.bytes >= s.opts.CheckpointBytes {
		_ = s.checkpointLocked() // best-effort: the WAL alone is still correct
	}
}

// CreateTable creates a persistent table.
func (s *Store) CreateTable(name string, schema types.StructType, ifNotExists bool) error {
	if len(schema.Fields) == 0 {
		return fmt.Errorf("store: CREATE TABLE %q: no columns", name)
	}
	for _, f := range schema.Fields {
		if _, err := columnType(f.Type.Name()); err != nil {
			return fmt.Errorf("store: CREATE TABLE %q: column %q: %w", name, f.Name, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		if ifNotExists {
			return nil
		}
		return fmt.Errorf("store: table %q already exists", name)
	}
	payload, err := encodeCreate(name, schema)
	if err != nil {
		return err
	}
	if err := s.commit([]record{{typ: recCreate, payload: payload}}); err != nil {
		return err
	}
	t := &Table{Name: name, Schema: schema}
	s.tables[name] = t
	s.publish(t)
	s.maybeCheckpoint()
	return nil
}

// DropTable removes a persistent table.
func (s *Store) DropTable(name string, ifExists bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("store: unknown table %q", name)
	}
	payload, err := encodeDrop(name)
	if err != nil {
		return err
	}
	if err := s.commit([]record{{typ: recDrop, payload: payload}}); err != nil {
		return err
	}
	delete(s.tables, name)
	s.notify(name, nil)
	s.maybeCheckpoint()
	return nil
}

// Insert appends rows as one committed transaction and returns the count.
func (s *Store) Insert(name string, data []row.Row) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	if !ok {
		return 0, fmt.Errorf("store: unknown table %q", name)
	}
	for _, r := range data {
		if err := validateRow(t.Schema, r); err != nil {
			s.aborts.Add(1)
			return 0, err
		}
	}
	if len(data) == 0 {
		return 0, nil
	}
	segID := t.nextSeg
	payload, err := encodeInsert(name, segID, data)
	if err != nil {
		return 0, err
	}
	if err := s.commit([]record{{typ: recInsert, payload: payload}}); err != nil {
		return 0, err
	}
	t.nextSeg++
	t.segs = append(append([]*Segment(nil), t.segs...), newSegment(segID, t.Schema, data))
	s.rowsIn.Add(int64(len(data)))
	s.publish(t)
	s.maybeCheckpoint()
	return int64(len(data)), nil
}

// Delete removes the rows matching pred as one committed transaction and
// returns how many were removed. Affected segments are rewritten
// copy-on-write; untouched segments are shared with the previous version.
func (s *Store) Delete(name string, pred func(row.Row) (bool, error)) (int64, error) {
	return s.mutate(name, func(r row.Row) (row.Row, bool, error) {
		hit, err := pred(r)
		return nil, hit, err
	}, s.rowsDel)
}

// Update rewrites rows through upd, which returns the replacement row and
// whether the row matched, as one committed transaction. Matched rows move
// to a fresh tail segment (a delete+insert in the log), preserving the
// copy-on-write sharing of untouched segments.
func (s *Store) Update(name string, upd func(row.Row) (row.Row, bool, error)) (int64, error) {
	return s.mutate(name, upd, s.rowsUpd)
}

// mutate is the shared DELETE/UPDATE engine: scan every segment, collect
// matched offsets (and, for updates, replacement rows), log one delete
// record per affected segment plus one insert record for replacements,
// commit, then apply the same rewrite in memory.
func (s *Store) mutate(name string, fn func(row.Row) (row.Row, bool, error), counter *metrics.Counter) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	if !ok {
		return 0, fmt.Errorf("store: unknown table %q", name)
	}

	type rewrite struct {
		seg     *Segment
		offsets []int
		kept    []row.Row
	}
	var rewrites []rewrite
	var replacements []row.Row
	for _, g := range t.segs {
		rows := g.decode()
		var offs []int
		var kept []row.Row
		for i, r := range rows {
			repl, hit, err := fn(r)
			if err != nil {
				s.aborts.Add(1)
				return 0, err
			}
			if !hit {
				kept = append(kept, r)
				continue
			}
			offs = append(offs, i)
			if repl != nil {
				if err := validateRow(t.Schema, repl); err != nil {
					s.aborts.Add(1)
					return 0, err
				}
				replacements = append(replacements, repl)
			}
		}
		if len(offs) > 0 {
			rewrites = append(rewrites, rewrite{seg: g, offsets: offs, kept: kept})
		}
	}
	if len(rewrites) == 0 {
		return 0, nil
	}

	// Build the transaction: segment rewrites, then the replacement-row
	// insert, with new segment IDs assigned in scan order (recovery replay
	// reassigns identically).
	nextSeg := t.nextSeg
	var recs []record
	newIDs := make(map[*Segment]int64, len(rewrites))
	var matched int64
	for _, rw := range rewrites {
		matched += int64(len(rw.offsets))
		newID := int64(-1)
		if len(rw.kept) > 0 {
			newID = nextSeg
			nextSeg++
		}
		newIDs[rw.seg] = newID
		payload, err := encodeDelete(name, rw.seg.ID, newID, rw.offsets)
		if err != nil {
			return 0, err
		}
		recs = append(recs, record{typ: recDelete, payload: payload})
	}
	var replSeg int64 = -1
	if len(replacements) > 0 {
		replSeg = nextSeg
		nextSeg++
		payload, err := encodeInsert(name, replSeg, replacements)
		if err != nil {
			return 0, err
		}
		recs = append(recs, record{typ: recInsert, payload: payload})
	}
	if err := s.commit(recs); err != nil {
		return 0, err
	}

	// Apply copy-on-write: rebuild the segment list sharing untouched
	// segments, rewriting affected ones, appending replacements.
	segs := make([]*Segment, 0, len(t.segs)+1)
	byID := make(map[int64]rewrite, len(rewrites))
	for _, rw := range rewrites {
		byID[rw.seg.ID] = rw
	}
	for _, g := range t.segs {
		rw, hit := byID[g.ID]
		if !hit {
			segs = append(segs, g)
			continue
		}
		if id := newIDs[rw.seg]; id >= 0 {
			segs = append(segs, newSegment(id, t.Schema, rw.kept))
		}
	}
	if replSeg >= 0 {
		segs = append(segs, newSegment(replSeg, t.Schema, replacements))
	}
	t.segs = segs
	t.nextSeg = nextSeg
	counter.Add(matched)
	s.publish(t)
	s.maybeCheckpoint()
	return matched, nil
}

// Snapshot returns the current version's relation — the immutable plan
// leaf a query pins — or nil for unknown tables.
func (s *Store) Snapshot(name string) *plan.InMemoryRelation {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tables[name]; ok {
		return t.rel
	}
	return nil
}

// Has reports whether name is a persistent table.
func (s *Store) Has(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.tables[name]
	return ok
}

// Info returns one table's SHOW TABLES/DESCRIBE view.
func (s *Store) Info(name string) (TableInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	if !ok {
		return TableInfo{}, false
	}
	return s.infoLocked(t), true
}

func (s *Store) infoLocked(t *Table) TableInfo {
	rows, bytes := t.liveCounts()
	return TableInfo{Name: t.Name, Schema: t.Schema, Version: t.ver, Rows: rows, Bytes: bytes}
}

// Tables lists every persistent table, sorted by name.
func (s *Store) Tables() []TableInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TableInfo, 0, len(s.tables))
	for _, t := range s.tables {
		out = append(out, s.infoLocked(t))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Checkpoint materializes every table's segments, writes a new manifest,
// swaps CURRENT and truncates the WAL — bounding recovery replay.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

// Close syncs durable state. The store needs no explicit shutdown beyond
// the file system's own Close; this is a convenience for symmetric defers.
func (s *Store) Close() error { return s.fs.Close() }

// ---------------------------------------------------------------------------
// Checkpoint + manifest

// manifest is the JSON checkpoint descriptor; CURRENT points at the live
// one. Statistics are not persisted — recovery recomputes them, which it
// can afford because it has just decoded every row anyway.
type manifest struct {
	Ckpt    int64           `json:"ckpt"`
	LastLSN uint64          `json:"last_lsn"`
	WALSeg  int64           `json:"wal_seg"`
	Tables  []manifestTable `json:"tables"`
}

type manifestTable struct {
	Name    string        `json:"name"`
	Version int64         `json:"version"`
	NextSeg int64         `json:"next_seg"`
	Cols    []manifestCol `json:"cols"`
	Segs    []manifestSeg `json:"segs"`
}

type manifestCol struct {
	Name     string `json:"name"`
	Type     string `json:"type"`
	Nullable bool   `json:"nullable"`
}

type manifestSeg struct {
	ID   int64  `json:"id"`
	File string `json:"file"`
	Rows int64  `json:"rows"`
}

func (s *Store) ckptDir(ckpt int64) string   { return fmt.Sprintf("%s/ckpt-%06d", s.root, ckpt) }
func (s *Store) manifestPath(n int64) string { return fmt.Sprintf("%s/manifest-%06d", s.root, n) }
func (s *Store) currentPath() string         { return s.root + "/CURRENT" }

// checkpointLocked writes segments and manifest for a new checkpoint id,
// atomically swaps CURRENT, then deletes the previous checkpoint and the
// now-redundant WAL segments. A crash at any step leaves either the old or
// the new checkpoint fully intact.
func (s *Store) checkpointLocked() error {
	start := time.Now()
	ckpt := s.wal.seg + 1 // monotonically unique: one checkpoint per WAL rotation
	m := manifest{Ckpt: ckpt, LastLSN: s.wal.nextLSN - 1, WALSeg: ckpt}
	var bytes int64
	for _, name := range s.tableNamesLocked() {
		t := s.tables[name]
		mt := manifestTable{Name: t.Name, Version: t.ver, NextSeg: t.nextSeg}
		for _, f := range t.Schema.Fields {
			mt.Cols = append(mt.Cols, manifestCol{Name: f.Name, Type: f.Type.Name(), Nullable: f.Nullable})
		}
		for _, g := range t.segs {
			file := fmt.Sprintf("%s/%s/seg-%06d", s.ckptDir(ckpt), t.Name, g.ID)
			var blocks [][]byte
			for _, b := range g.Batches {
				rows := make([]row.Row, 0, b.NumRows)
				for i := 0; i < b.NumRows; i++ {
					rows = append(rows, b.Row(i))
				}
				enc, err := row.EncodeRows(rows)
				if err != nil {
					return fmt.Errorf("store: checkpoint %q: %w", t.Name, err)
				}
				blocks = append(blocks, enc)
				bytes += int64(len(enc))
			}
			if err := s.fs.Write(file, blocks); err != nil {
				return fmt.Errorf("store: checkpoint %q: %w", t.Name, err)
			}
			mt.Segs = append(mt.Segs, manifestSeg{ID: g.ID, File: file, Rows: g.Rows})
		}
		m.Tables = append(m.Tables, mt)
	}
	enc, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := s.fs.Write(s.manifestPath(ckpt), [][]byte{enc}); err != nil {
		return err
	}
	// The commit point: CURRENT now names the new manifest.
	if err := s.fs.Write(s.currentPath(), [][]byte{[]byte(s.manifestPath(ckpt))}); err != nil {
		return err
	}
	// Garbage-collect superseded state. These sweeps are rooted inside the
	// protected namespace, so they are allowed; a crash before them only
	// leaves dead files that the next checkpoint's sweep removes.
	for _, p := range s.fs.List(s.root + "/ckpt-") {
		if len(p) >= len(s.ckptDir(ckpt)) && p[:len(s.ckptDir(ckpt))] == s.ckptDir(ckpt) {
			continue
		}
		s.fs.Delete(p)
	}
	for _, p := range s.fs.List(s.root + "/manifest-") {
		if p != s.manifestPath(ckpt) {
			s.fs.Delete(p)
		}
	}
	for _, p := range s.fs.List(s.root + "/wal-") {
		s.fs.Delete(p)
	}
	s.wal.seg = ckpt
	s.wal.bytes = 0
	s.checkpoints.Add(1)
	s.span("wal.checkpoint", start, int64(len(m.Tables)), bytes)
	return nil
}

func (s *Store) tableNamesLocked() []string {
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
