package store

import (
	"bytes"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/metrics"
	"repro/internal/row"
)

func counterValue(reg *metrics.Registry, name string) int64 {
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

func openDurable(t *testing.T, dir string) *dfs.FileSystem {
	t.Helper()
	fs, err := dfs.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// reopen closes a store's file system and opens a brand-new store on a
// fresh file system over the same host directory — a process restart.
func reopen(t *testing.T, s *Store, dir string, opts Options) *Store {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return openStore(t, openDurable(t, dir), opts)
}

func TestRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, openDurable(t, dir), Options{CheckpointBytes: -1})
	if err := s.CreateTable("kv", kvSchema(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("kv", []row.Row{{int64(1), "a"}, {int64(2), "b"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("kv", func(r row.Row) (bool, error) { return r[0].(int64) == 1, nil }); err != nil {
		t.Fatal(err)
	}
	liveRows := collect(t, s, "kv")
	liveInfo, _ := s.Info("kv")

	reg := metrics.NewRegistry()
	s2 := reopen(t, s, dir, Options{CheckpointBytes: -1, Metrics: reg})
	if got := collect(t, s2, "kv"); !reflect.DeepEqual(got, liveRows) {
		t.Fatalf("recovered rows = %v, want %v", got, liveRows)
	}
	info, ok := s2.Info("kv")
	if !ok || info.Version != liveInfo.Version || info.Rows != liveInfo.Rows {
		t.Fatalf("recovered info = %+v, live was %+v", info, liveInfo)
	}
	if got := counterValue(reg, "store.recovery.replayed_txns"); got != 3 {
		t.Fatalf("replayed_txns = %d, want 3", got)
	}
	// Post-recovery writes must keep working (LSNs and segment IDs advance
	// past everything replayed).
	if _, err := s2.Insert("kv", []row.Row{{int64(3), "c"}}); err != nil {
		t.Fatal(err)
	}
	want := append(append([]row.Row(nil), liveRows...), row.Row{int64(3), "c"})
	if got := collect(t, s2, "kv"); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-recovery rows = %v, want %v", got, want)
	}
	s2.Close()
}

func TestRecoverCheckpointPlusWAL(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, openDurable(t, dir), Options{CheckpointBytes: -1})
	if err := s.CreateTable("kv", kvSchema(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("kv", []row.Row{{int64(1), "a"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint DML lands in a fresh WAL segment.
	if _, err := s.Insert("kv", []row.Row{{int64(2), "b"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update("kv", func(r row.Row) (row.Row, bool, error) {
		if r[0].(int64) == 1 {
			return row.Row{int64(1), "A"}, true, nil
		}
		return nil, false, nil
	}); err != nil {
		t.Fatal(err)
	}
	liveRows := collect(t, s, "kv")

	s2 := reopen(t, s, dir, Options{CheckpointBytes: -1})
	if got := collect(t, s2, "kv"); !reflect.DeepEqual(got, liveRows) {
		t.Fatalf("recovered rows = %v, want %v", got, liveRows)
	}
	// Recover → checkpoint → recover again: the manifest path round-trips.
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s3 := reopen(t, s2, dir, Options{CheckpointBytes: -1})
	if got := collect(t, s3, "kv"); !reflect.DeepEqual(got, liveRows) {
		t.Fatalf("second recovery rows = %v, want %v", got, liveRows)
	}
	s3.Close()
}

// TestRecoverDropsUncommitted: records appended without a commit marker —
// a transaction in flight when the process died — must not replay.
func TestRecoverDropsUncommitted(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, openDurable(t, dir), Options{CheckpointBytes: -1})
	if err := s.CreateTable("kv", kvSchema(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("kv", []row.Row{{int64(1), "a"}}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-transaction: an insert record reaches the log
	// but its commit marker never does.
	payload, err := encodeInsert("kv", 99, []row.Row{{int64(666), "ghost"}})
	if err != nil {
		t.Fatal(err)
	}
	rec := record{lsn: s.wal.nextLSN, typ: recInsert, payload: payload}
	if err := s.fs.AppendBlock(walPath(s.root, s.wal.seg), encodeRecord(nil, rec)); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	s2 := reopen(t, s, dir, Options{CheckpointBytes: -1, Metrics: reg})
	if got := collect(t, s2, "kv"); !reflect.DeepEqual(got, []row.Row{{int64(1), "a"}}) {
		t.Fatalf("uncommitted insert replayed: %v", got)
	}
	if got := counterValue(reg, "store.recovery.torn_records"); got != 1 {
		t.Fatalf("torn_records = %d, want 1", got)
	}
	s2.Close()
}

// TestRecoverTornTail: a record physically torn mid-write (truncated OS
// file) is dropped along with everything after it; the committed prefix
// survives exactly.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, openDurable(t, dir), Options{CheckpointBytes: -1})
	if err := s.CreateTable("kv", kvSchema(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("kv", []row.Row{{int64(1), "a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("kv", []row.Row{{int64(2), "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop bytes off the WAL file's tail: the second insert's commit marker
	// becomes a torn frame, so that whole transaction must be discarded.
	osPath := filepath.Join(dir, url.PathEscape(walPath(s.root, 0)))
	data, err := os.ReadFile(osPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(osPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, openDurable(t, dir), Options{CheckpointBytes: -1})
	if got := collect(t, s2, "kv"); !reflect.DeepEqual(got, []row.Row{{int64(1), "a"}}) {
		t.Fatalf("rows after torn tail = %v, want just row 1", got)
	}
	// The store keeps accepting writes after truncation-recovery.
	if _, err := s2.Insert("kv", []row.Row{{int64(3), "c"}}); err != nil {
		t.Fatal(err)
	}
	s3 := reopen(t, s2, dir, Options{CheckpointBytes: -1})
	want := []row.Row{{int64(1), "a"}, {int64(3), "c"}}
	if got := collect(t, s3, "kv"); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	s3.Close()
}

// TestRecoverDeterministicSegmentIDs: replaying a DELETE must reproduce
// the exact segment structure the live path built, so later WAL records
// that reference those segment IDs resolve.
func TestRecoverDeterministicSegmentIDs(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, openDurable(t, dir), Options{CheckpointBytes: -1})
	if err := s.CreateTable("kv", kvSchema(), false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Insert("kv", []row.Row{{int64(2 * i), "x"}, {int64(2*i + 1), "y"}}); err != nil {
			t.Fatal(err)
		}
	}
	// Delete across two segments → two rewrites with fresh IDs; then delete
	// again targeting rows that now live in those rewritten segments.
	if _, err := s.Delete("kv", func(r row.Row) (bool, error) { return r[0].(int64)%2 == 0, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("kv", func(r row.Row) (bool, error) { return r[0].(int64) == 3, nil }); err != nil {
		t.Fatal(err)
	}
	liveRows := collect(t, s, "kv")
	liveSegs := make([]int64, 0, len(s.tables["kv"].segs))
	for _, g := range s.tables["kv"].segs {
		liveSegs = append(liveSegs, g.ID)
	}

	s2 := reopen(t, s, dir, Options{CheckpointBytes: -1})
	if got := collect(t, s2, "kv"); !reflect.DeepEqual(got, liveRows) {
		t.Fatalf("recovered rows = %v, want %v", got, liveRows)
	}
	recSegs := make([]int64, 0, len(s2.tables["kv"].segs))
	for _, g := range s2.tables["kv"].segs {
		recSegs = append(recSegs, g.ID)
	}
	if !reflect.DeepEqual(recSegs, liveSegs) {
		t.Fatalf("recovered segment IDs %v, live were %v", recSegs, liveSegs)
	}
	s2.Close()
}

// TestRecoverDroppedTable: a DROP in the log erases the table for good.
func TestRecoverDroppedTable(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, openDurable(t, dir), Options{CheckpointBytes: -1})
	if err := s.CreateTable("kv", kvSchema(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("kv", []row.Row{{int64(1), "a"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("kv", false); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, s, dir, Options{CheckpointBytes: -1})
	if s2.Has("kv") {
		t.Fatal("dropped table came back after recovery")
	}
	s2.Close()
}

// TestCheckpointTruncatesWAL: after a checkpoint the old WAL files are
// gone and recovery does not replay pre-checkpoint transactions.
func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, openDurable(t, dir), Options{CheckpointBytes: -1})
	if err := s.CreateTable("kv", kvSchema(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("kv", []row.Row{{int64(1), "a"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if wals := s.walSegments(); len(wals) != 0 {
		t.Fatalf("WAL files after checkpoint: %v", wals)
	}
	reg := metrics.NewRegistry()
	s2 := reopen(t, s, dir, Options{CheckpointBytes: -1, Metrics: reg})
	if got := counterValue(reg, "store.recovery.replayed_txns"); got != 0 {
		t.Fatalf("replayed %d txns from a checkpointed log", got)
	}
	if got := collect(t, s2, "kv"); !reflect.DeepEqual(got, []row.Row{{int64(1), "a"}}) {
		t.Fatalf("rows = %v", got)
	}
	s2.Close()
}

// TestCheckpointAutoTrigger: crossing CheckpointBytes checkpoints without
// an explicit call.
func TestCheckpointAutoTrigger(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s := openStore(t, openDurable(t, dir), Options{CheckpointBytes: 1, Metrics: reg})
	if err := s.CreateTable("kv", kvSchema(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("kv", []row.Row{{int64(1), "a"}}); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(reg, "store.checkpoints"); got == 0 {
		t.Fatal("no automatic checkpoint despite 1-byte threshold")
	}
	s2 := reopen(t, s, dir, Options{})
	if got := collect(t, s2, "kv"); !reflect.DeepEqual(got, []row.Row{{int64(1), "a"}}) {
		t.Fatalf("rows = %v", got)
	}
	s2.Close()
}

// flipIn flips one byte inside the first occurrence of needle in the files
// of a durable store's directory, returning the file it changed.
func flipIn(t *testing.T, dir, needle string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		path := filepath.Join(dir, ent.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(data, []byte(needle)); i >= 0 {
			data[i+len(needle)/2] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}
	}
	t.Fatalf("%q is in no file of %s", needle, dir)
	return ""
}

// TestRecoverStopsAtCorruptRecord: a flipped byte inside the second of three
// committed inserts ends the valid log there. Reopening recovers exactly the
// first insert, counts the drop, cuts the rest away and accepts new commits.
func TestRecoverStopsAtCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, openDurable(t, dir), Options{CheckpointBytes: -1})
	if err := s.CreateTable("kv", kvSchema(), false); err != nil {
		t.Fatal(err)
	}
	for i, v := range []string{"first-insert", "second-insert", "third-insert"} {
		if _, err := s.Insert("kv", []row.Row{{int64(i + 1), v}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal := flipIn(t, dir, "second-insert")
	before, _ := os.Stat(wal)

	reg := metrics.NewRegistry()
	s2 := openStore(t, openDurable(t, dir), Options{CheckpointBytes: -1, Metrics: reg})
	if got := collect(t, s2, "kv"); !reflect.DeepEqual(got, []row.Row{{int64(1), "first-insert"}}) {
		t.Fatalf("rows after a corrupt record = %v, want just the first insert", got)
	}
	if got := counterValue(reg, "store.recovery.torn_records"); got < 1 {
		t.Fatalf("torn_records = %d, want the drop counted", got)
	}
	if after, err := os.Stat(wal); err != nil || after.Size() >= before.Size() {
		t.Fatalf("the log was not cut back past the corrupt record (%v)", err)
	}
	if _, err := s2.Insert("kv", []row.Row{{int64(4), "after"}}); err != nil {
		t.Fatal(err)
	}
	s3 := reopen(t, s2, dir, Options{CheckpointBytes: -1})
	want := []row.Row{{int64(1), "first-insert"}, {int64(4), "after"}}
	if got := collect(t, s3, "kv"); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	s3.Close()
}

// TestCheckpointCorruptSegmentRefused: a flipped byte inside a string value
// of a checkpoint segment makes opening the store fail; it never returns
// the altered rows.
func TestCheckpointCorruptSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, openDurable(t, dir), Options{CheckpointBytes: -1})
	if err := s.CreateTable("kv", kvSchema(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("kv", []row.Row{{int64(1), "a"}, {int64(2), "checkpointed-value"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	flipIn(t, dir, "checkpointed-value")

	fs, err := dfs.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	s2, err := Open(fs, Options{CheckpointBytes: -1})
	if err == nil {
		rows := collect(t, s2, "kv")
		t.Fatalf("store opened over a corrupt checkpoint segment and returned %v", rows)
	}
	if !strings.Contains(err.Error(), "segment") {
		t.Fatalf("err = %v, want it to name the segment", err)
	}
}
