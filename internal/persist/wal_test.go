package persist

import (
	"bytes"
	"context"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testRecords() []WALRecord {
	return []WALRecord{
		{Op: WALInsert, ID: 4, Point: []float64{1, 2}},
		{Op: WALDelete, ID: 2},
		{Op: WALInsert, ID: 5, Point: []float64{-3, 0.5}},
		{Op: WALDelete, ID: 4},
	}
}

func writeWAL(t *testing.T, path string, recs []WALRecord, policy SyncPolicy) {
	t.Helper()
	w, err := OpenWAL(path, 0, policy)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	for _, r := range recs {
		if err := w.Append(context.Background(), r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func replayAll(t *testing.T, path string) ([]WALRecord, int64, bool) {
	t.Helper()
	var got []WALRecord
	valid, torn, err := ReplayWAL(path, func(r WALRecord) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	return got, valid, torn
}

func TestWALRoundTrip(t *testing.T) {
	for _, policy := range []SyncPolicy{{Every: 1}, {Every: 0}, {Every: 3}} {
		path := filepath.Join(t.TempDir(), "wal.log")
		writeWAL(t, path, testRecords(), policy)
		got, valid, torn := replayAll(t, path)
		if torn {
			t.Errorf("policy %+v: clean log reported torn", policy)
		}
		if !reflect.DeepEqual(got, testRecords()) {
			t.Errorf("policy %+v: replay = %+v", policy, got)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if valid != info.Size() {
			t.Errorf("policy %+v: valid offset %d, file size %d", policy, valid, info.Size())
		}
	}
}

func TestWALMissingFileReplaysEmpty(t *testing.T) {
	got, valid, torn := replayAll(t, filepath.Join(t.TempDir(), "absent.log"))
	if len(got) != 0 || valid != 0 || torn {
		t.Errorf("missing file replay = %v, %d, %v", got, valid, torn)
	}
}

// TestWALTornTail simulates a crash mid-append: every proper prefix of the
// final record must replay all earlier records, report torn, and give the
// offset where the intact prefix ends.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.log")
	writeWAL(t, full, testRecords(), DefaultSync())
	blob, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := 0
	{
		prefix := filepath.Join(dir, "prefix.log")
		writeWAL(t, prefix, testRecords()[:len(testRecords())-1], DefaultSync())
		pb, err := os.ReadFile(prefix)
		if err != nil {
			t.Fatal(err)
		}
		lastStart = len(pb)
	}
	for cut := lastStart + 1; cut < len(blob); cut++ {
		path := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(path, blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, valid, torn := replayAll(t, path)
		if !torn {
			t.Fatalf("cut at %d: not reported torn", cut)
		}
		if valid != int64(lastStart) {
			t.Fatalf("cut at %d: valid = %d, want %d", cut, valid, lastStart)
		}
		if !reflect.DeepEqual(got, testRecords()[:len(testRecords())-1]) {
			t.Fatalf("cut at %d: replayed %+v", cut, got)
		}
	}
}

// TestWALCorruptTail flips a byte in the final record: the prefix must
// survive, the tail must be discarded.
func TestWALCorruptTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.log")
	writeWAL(t, full, testRecords(), DefaultSync())
	blob, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Clone(blob)
	mut[len(mut)-1] ^= 0xFF
	path := filepath.Join(dir, "corrupt.log")
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, torn := replayAll(t, path)
	if !torn {
		t.Error("corrupt tail not reported torn")
	}
	if !reflect.DeepEqual(got, testRecords()[:len(testRecords())-1]) {
		t.Errorf("replayed %+v", got)
	}
}

// TestWALTruncateOnOpen: opening at the valid offset discards the torn
// tail and appends continue cleanly from there.
func TestWALTruncateOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	writeWAL(t, path, testRecords(), DefaultSync())
	// Simulate a torn append.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, valid, torn := replayAll(t, path)
	if !torn {
		t.Fatal("garbage tail not reported torn")
	}
	w, err := OpenWAL(path, valid, DefaultSync())
	if err != nil {
		t.Fatal(err)
	}
	extra := WALRecord{Op: WALInsert, ID: 6, Point: []float64{7, 7}}
	if err := w.Append(context.Background(), extra); err != nil {
		t.Fatal(err)
	}
	w.Close()

	got, _, torn := replayAll(t, path)
	if torn {
		t.Error("log torn after truncate + append")
	}
	want := append(testRecords(), extra)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay = %+v, want %+v", got, want)
	}
}

func TestWALRejectsBadRecords(t *testing.T) {
	bad := []WALRecord{
		{Op: 0},
		{Op: WALInsert, ID: -1, Point: []float64{1}},
		{Op: WALInsert, ID: 1, Point: nil},
		{Op: WALDelete, ID: -5},
	}
	for _, r := range bad {
		if _, err := appendWALFrame(nil, r); err == nil {
			t.Errorf("encoded invalid record %+v", r)
		}
	}
}

// TestWALAppendFraming pins the on-disk bytes of the one append path: a
// multi-record append writes exactly what one append per record writes, and
// both equal the documented framing (u32 length | u32 CRC-32C | payload)
// built here independently — stores written before the append paths were
// merged replay unchanged, and vice versa.
func TestWALAppendFraming(t *testing.T) {
	recs := testRecords()
	dir := t.TempDir()
	single, batch := filepath.Join(dir, "single.log"), filepath.Join(dir, "batch.log")
	writeWAL(t, single, recs, DefaultSync())
	w, err := OpenWAL(batch, 0, DefaultSync())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(context.Background(), recs...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var want []byte
	for _, r := range recs {
		payload := []byte{r.Op}
		payload = appendU64(payload, uint64(r.ID))
		if r.Op == WALInsert {
			payload = appendU32(payload, uint32(len(r.Point)))
			for _, x := range r.Point {
				payload = appendF64(payload, x)
			}
		}
		want = appendU32(want, uint32(len(payload)))
		want = appendU32(want, crc32.Checksum(payload, crcTable))
		want = append(want, payload...)
	}
	for _, path := range []string{single, batch} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s holds %d bytes differing from the documented framing (%d bytes)", filepath.Base(path), len(got), len(want))
		}
	}
}
