// Write-ahead log: every DML transaction appends its mutation records plus
// a commit marker to the log and syncs before the store's in-memory state
// (and the catalog) advance — the redo log that makes tables durable
// across crashes. One record is one dfs block,
//
//	[type u8][lsn u64 big-endian][payload]
//
// and the log frames nothing itself: a durable file system mirrors each
// block as one CRC-checked frame and cuts a torn or corrupt tail when it
// loads, and an in-memory one never persists bytes. Recovery (see
// recovery.go) replays committed transactions in LSN order, stopping at the
// first record that is missing, cut or malformed.
package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dfs"
)

type recType uint8

const (
	recCreate recType = iota + 1 // payload: table name + column defs
	recDrop                      // payload: table name
	recInsert                    // payload: table name, segment id, rows
	recDelete                    // payload: table name, old seg, new seg, offsets
	recCommit                    // transaction boundary: earlier records are durable
)

func (t recType) String() string {
	switch t {
	case recCreate:
		return "create"
	case recDrop:
		return "drop"
	case recInsert:
		return "insert"
	case recDelete:
		return "delete"
	case recCommit:
		return "commit"
	}
	return fmt.Sprintf("rec(%d)", uint8(t))
}

type record struct {
	lsn     uint64
	typ     recType
	payload []byte
}

// encodeRecord appends r's block form, [type u8][lsn u64 big-endian]
// [payload], to dst.
func encodeRecord(dst []byte, r record) []byte {
	dst = append(dst, byte(r.typ))
	dst = binary.BigEndian.AppendUint64(dst, r.lsn)
	return append(dst, r.payload...)
}

// decodeRecord parses one record block. A short block or an unknown type
// is an error; recovery treats it as the end of the valid log.
func decodeRecord(b []byte) (record, error) {
	if len(b) < 9 {
		return record{}, fmt.Errorf("store: wal record truncated (%d bytes)", len(b))
	}
	typ := recType(b[0])
	if typ < recCreate || typ > recCommit {
		return record{}, fmt.Errorf("store: wal record unknown type %d", b[0])
	}
	return record{lsn: binary.BigEndian.Uint64(b[1:9]), typ: typ, payload: b[9:]}, nil
}

// wal is the log writer: an append-only sequence of records over dfs
// blocks, one record per block, in numbered segment files under
// <root>/wal-NNNNNN.
type wal struct {
	fs      *dfs.FileSystem
	root    string
	seg     int64 // current segment number
	bytes   int64 // bytes appended to the current segment
	nextLSN uint64
}

func walPath(root string, seg int64) string {
	return fmt.Sprintf("%s/wal-%06d", root, seg)
}

// appendTxn assigns LSNs to the transaction's records, appends each as one
// block and syncs the segment — the fsync-on-commit point. It returns the
// encoded byte count. On any error the transaction is not committed (a
// partial append without a commit record is discarded by recovery).
func (w *wal) appendTxn(recs []record) (int64, error) {
	path := walPath(w.root, w.seg)
	var total int64
	for i := range recs {
		recs[i].lsn = w.nextLSN
		w.nextLSN++
		b := encodeRecord(make([]byte, 0, 9+len(recs[i].payload)), recs[i])
		if err := w.fs.AppendBlock(path, b); err != nil {
			return total, fmt.Errorf("store: wal append: %w", err)
		}
		total += int64(len(b))
	}
	if err := w.fs.Sync(path); err != nil {
		return total, fmt.Errorf("store: wal sync: %w", err)
	}
	w.bytes += total
	return total, nil
}

// rotate abandons the current segment for a fresh one — called after a
// checkpoint has made the old segment's records redundant and deleted it.
func (w *wal) rotate() {
	w.seg++
	w.bytes = 0
}
