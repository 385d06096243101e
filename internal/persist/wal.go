package persist

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/trace"
)

// WAL operation codes.
const (
	WALInsert byte = 1
	WALDelete byte = 2
)

// WALRecord is one logged mutation. Insert records carry the point and the
// ID the engine assigned (IDs are dense and assigned in order, so replay
// verifies each insert lands on the ID it was given originally — a cheap
// end-to-end integrity check on the snapshot+log pair). Delete records
// carry only the ID.
type WALRecord struct {
	Op    byte
	ID    int
	Point []float64
}

// SyncPolicy controls how often the WAL fsyncs. Every=1 (the default used
// by DefaultSync) syncs after each record: an acknowledged write survives
// an OS crash. Every=0 never fsyncs: records still reach the OS on each
// append (the WAL is unbuffered in process), so they survive a process
// crash but the tail may be lost to an OS crash. Every=n>1 syncs each n-th
// record, bounding the loss window to n-1 acknowledged writes.
type SyncPolicy struct {
	Every int
}

// DefaultSync is the safe policy: fsync every record.
func DefaultSync() SyncPolicy { return SyncPolicy{Every: 1} }

// WAL is an append-only write-ahead log. Appends are not internally
// synchronized; callers serialize them (the facade already serializes all
// writers through one mutex).
type WAL struct {
	f      *os.File
	policy SyncPolicy
	since  int // appends since the last fsync
}

// Record framing, little-endian:
//
//	u32 payload length | u32 CRC-32C(payload) | payload
//
// Payload: u8 op, then for WALInsert u64 id + u32 dim + dim×f64, for
// WALDelete u64 id. A record is written with a single Write call so a
// crashed process can tear at most the final record, never interleave.

// appendWALFrame frames rec onto buf: the header is reserved first and
// filled in once the payload behind it is complete.
func appendWALFrame(buf []byte, rec WALRecord) ([]byte, error) {
	start := len(buf)
	buf = append(buf, make([]byte, 8)...)
	buf = appendU8(buf, rec.Op)
	switch rec.Op {
	case WALInsert:
		if rec.ID < 0 {
			return nil, fmt.Errorf("persist: negative insert id %d", rec.ID)
		}
		if len(rec.Point) == 0 || len(rec.Point) > maxDim {
			return nil, fmt.Errorf("persist: insert dimension %d out of range [1, %d]", len(rec.Point), maxDim)
		}
		buf = appendU64(buf, uint64(rec.ID))
		buf = appendU32(buf, uint32(len(rec.Point)))
		for _, x := range rec.Point {
			buf = appendF64(buf, x)
		}
	case WALDelete:
		if rec.ID < 0 {
			return nil, fmt.Errorf("persist: negative delete id %d", rec.ID)
		}
		buf = appendU64(buf, uint64(rec.ID))
	default:
		return nil, fmt.Errorf("persist: unknown WAL op %d", rec.Op)
	}
	payload := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf, nil
}

// decodeWALPayload parses a CRC-verified payload.
func decodeWALPayload(p []byte) (WALRecord, error) {
	cur := &byteCursor{b: p}
	op, err := cur.u8()
	if err != nil {
		return WALRecord{}, err
	}
	rec := WALRecord{Op: op}
	switch op {
	case WALInsert:
		id, err := cur.u64()
		if err != nil {
			return WALRecord{}, err
		}
		dim, err := cur.u32()
		if err != nil {
			return WALRecord{}, err
		}
		if dim < 1 || dim > maxDim {
			return WALRecord{}, corruptf("insert dimension %d out of range", dim)
		}
		raw, err := cur.take(int(dim) * 8)
		if err != nil {
			return WALRecord{}, err
		}
		rec.ID = int(id)
		if rec.ID < 0 || uint64(rec.ID) != id {
			return WALRecord{}, corruptf("insert id %d overflows int", id)
		}
		rec.Point = make([]float64, dim)
		for j := range rec.Point {
			rec.Point[j] = getF64(raw[j*8:])
		}
	case WALDelete:
		id, err := cur.u64()
		if err != nil {
			return WALRecord{}, err
		}
		rec.ID = int(id)
		if rec.ID < 0 || uint64(rec.ID) != id {
			return WALRecord{}, corruptf("delete id %d overflows int", id)
		}
	default:
		return WALRecord{}, corruptf("unknown WAL op %d", op)
	}
	if err := cur.done(); err != nil {
		return WALRecord{}, err
	}
	return rec, nil
}

// ReplayWAL streams the intact prefix of the log at path through apply and
// returns the byte offset of the end of the last intact record. torn
// reports whether trailing bytes past that offset failed validation — the
// expected signature of a crash mid-append — in which case the opener
// truncates the file to valid and recovery proceeds; a missing file replays
// as empty. An error from apply aborts the replay and is returned as is.
func ReplayWAL(path string, apply func(WALRecord) error) (valid int64, torn bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	defer f.Close()

	br := bufio.NewReaderSize(f, 1<<16)
	var scratch [8]byte
	for {
		// Record header: any failure from here to the payload CRC check
		// is a torn or corrupt tail, not an error — recovery keeps the
		// intact prefix.
		if _, err := io.ReadFull(br, scratch[:8]); err != nil {
			return valid, err != io.EOF, nil
		}
		payloadLen, sum := getU32(scratch[:]), getU32(scratch[4:])
		if payloadLen == 0 || payloadLen > maxWALPayload {
			return valid, true, nil
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return valid, true, nil
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return valid, true, nil
		}
		rec, err := decodeWALPayload(payload)
		if err != nil {
			return valid, true, nil
		}
		if err := apply(rec); err != nil {
			return valid, false, err
		}
		valid += int64(8 + payloadLen)
	}
}

// OpenWAL opens (creating if absent) the log at path for appending,
// truncating it to size first — the opener passes the valid offset from
// ReplayWAL, which discards a torn tail.
func OpenWAL(path string, size int64, policy SyncPolicy) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{f: f, policy: policy}, nil
}

// Append frames all records into one buffer and writes it with a single
// write syscall, counting every record toward the sync policy but syncing at
// most once — one record and a bulk-ingest batch take the same path. An
// acknowledged Append is at least in the OS page cache; with the default
// policy it is on disk. A crash can tear only the final record of the
// write; earlier ones remain individually framed and replayable. When ctx
// carries a trace span the write lands under a "wal.append" span with a
// "wal.fsync" child if the sync policy fires (span methods are no-ops on an
// untraced context).
func (w *WAL) Append(ctx context.Context, records ...WALRecord) error {
	if len(records) == 0 {
		return nil
	}
	asp := trace.FromContext(ctx).Child("wal.append")
	defer asp.End()
	size := 0
	for _, rec := range records {
		size += 8 + 1 + 8 + 4 + 8*len(rec.Point) // an upper bound: deletes carry no point
	}
	buf := make([]byte, 0, size)
	for _, rec := range records {
		var err error
		if buf, err = appendWALFrame(buf, rec); err != nil {
			return err
		}
	}
	asp.SetInt("records", int64(len(records)))
	asp.SetInt("bytes", int64(len(buf)))
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("persist: wal append: %w", err)
	}
	w.since += len(records)
	if w.policy.Every <= 0 || w.since < w.policy.Every {
		return nil
	}
	fsp := asp.Child("wal.fsync")
	defer fsp.End()
	return w.Sync()
}

// Sync forces the log to stable storage.
func (w *WAL) Sync() error {
	w.since = 0
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("persist: wal sync: %w", err)
	}
	return nil
}

// Close syncs and closes the log.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	syncErr := w.f.Sync()
	closeErr := w.f.Close()
	w.f = nil
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
