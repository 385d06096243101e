package persist

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func openCollect(t *testing.T, dir string) (*Store, *Snapshot, []WALRecord, Recovery) {
	t.Helper()
	var recs []WALRecord
	st, snap, info, err := Open(dir, DefaultSync(), func(r WALRecord) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st, snap, recs, info
}

func TestStoreCreateOpenCycle(t *testing.T) {
	dir := t.TempDir()
	if Exists(dir) {
		t.Fatal("empty dir reported as store")
	}
	st, err := Create(dir, testSnapshot(), DefaultSync())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if !Exists(dir) {
		t.Fatal("created store not detected")
	}
	if _, err := Create(dir, testSnapshot(), DefaultSync()); err == nil {
		t.Fatal("Create overwrote an existing store")
	}
	recs := testRecords()
	for _, r := range recs {
		if err := st.Append(context.Background(), r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st.Close()

	st2, snap, got, info := openCollect(t, dir)
	defer st2.Close()
	if !reflect.DeepEqual(snap, testSnapshot()) {
		t.Errorf("recovered snapshot mismatch")
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("recovered records %+v", got)
	}
	if info.Gen != 1 || info.WALRecords != len(recs) || info.WALTorn {
		t.Errorf("recovery info %+v", info)
	}
}

func TestStoreCutRotatesGenerations(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, testSnapshot(), DefaultSync())
	if err != nil {
		t.Fatal(err)
	}
	st.Append(context.Background(), testRecords()[0])
	next := testSnapshot()
	next.Points = append(next.Points, []float64{9, 9, 9})
	if err := st.Cut(next); err != nil {
		t.Fatalf("Cut: %v", err)
	}
	if st.Gen() != 2 {
		t.Errorf("generation %d after cut, want 2", st.Gen())
	}
	// Old generation files are retired.
	if _, err := os.Stat(snapPath(dir, 1)); !os.IsNotExist(err) {
		t.Error("generation 1 snapshot still present after cut")
	}
	if _, err := os.Stat(walPath(dir, 1)); !os.IsNotExist(err) {
		t.Error("generation 1 wal still present after cut")
	}
	st.Append(context.Background(), testRecords()[1])
	st.Close()

	st2, snap, got, info := openCollect(t, dir)
	defer st2.Close()
	if info.Gen != 2 {
		t.Errorf("recovered generation %d, want 2", info.Gen)
	}
	if len(snap.Points) != 5 {
		t.Errorf("recovered %d points, want 5", len(snap.Points))
	}
	if !reflect.DeepEqual(got, testRecords()[1:2]) {
		t.Errorf("recovered records %+v, want only the post-cut one", got)
	}
}

// TestStoreOpenSkipsCorruptNewerSnapshot: when the newest snapshot file is
// unreadable, recovery falls back to the previous intact generation and
// new generations are numbered past the corrupt file.
func TestStoreOpenSkipsCorruptNewerSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, testSnapshot(), DefaultSync())
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := os.WriteFile(snapPath(dir, 2), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, snap, _, info := openCollect(t, dir)
	if info.Gen != 1 || len(info.SkippedSnapshots) != 1 {
		t.Errorf("recovery info %+v", info)
	}
	if snap == nil {
		t.Fatal("no snapshot recovered")
	}
	if err := st2.Cut(testSnapshot()); err != nil {
		t.Fatalf("Cut: %v", err)
	}
	if st2.Gen() != 3 {
		t.Errorf("next generation %d, want 3 (numbered past the corrupt file)", st2.Gen())
	}
	st2.Close()
	// The unreadable file is preserved as forensic evidence under a
	// .corrupt name that generation cleanup never touches.
	if len(info.SkippedSnapshots) == 1 {
		if _, err := os.Stat(info.SkippedSnapshots[0]); err != nil {
			t.Errorf("skipped snapshot not preserved: %v", err)
		}
	}
}

// TestStoreAllSnapshotsCorrupt: when nothing loads, Open fails with
// ErrNoStore but leaves every file in place, so the directory still
// registers as a store and cannot be silently bootstrapped over.
func TestStoreAllSnapshotsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(snapPath(dir, 1), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := Open(dir, DefaultSync(), func(WALRecord) error { return nil })
	if !errors.Is(err, ErrNoStore) {
		t.Fatalf("Open = %v, want ErrNoStore", err)
	}
	if !Exists(dir) {
		t.Error("store no longer detected after failed Open")
	}
	if _, err := os.Stat(snapPath(dir, 1)); err != nil {
		t.Errorf("corrupt snapshot was moved on a failed Open: %v", err)
	}
}

func TestStoreOpenEmptyDir(t *testing.T) {
	_, _, _, err := Open(t.TempDir(), DefaultSync(), func(WALRecord) error { return nil })
	if !errors.Is(err, ErrNoStore) {
		t.Errorf("Open(empty) = %v, want ErrNoStore", err)
	}
}

// TestStoreOpenCleansTempFiles: a crash mid-snapshot leaves a .tmp file;
// Open must remove it and recover the previous generation.
func TestStoreOpenCleansTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, testSnapshot(), DefaultSync())
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	stale := filepath.Join(dir, "snap-123456.tmp")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, _, _, _ := openCollect(t, dir)
	st2.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale .tmp file survived Open")
	}
}

// TestWriteFileAtomic: a committed write replaces the file's content, and a
// write that fails part-way leaves the old content and no temporary file.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "MANIFEST")
	writeString := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	for _, content := range []string{"first\n", "second\n"} {
		if err := WriteFileAtomic(path, writeString(content)); err != nil {
			t.Fatalf("WriteFileAtomic(%q): %v", content, err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != content {
			t.Fatalf("after writing %q the file reads %q, %v", content, got, err)
		}
	}
	boom := errors.New("disk gone")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "second\n" {
		t.Errorf("a failed write changed the target: %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "MANIFEST" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v after a failed write, want only MANIFEST", names)
	}
}

// TestStoreTornWALRecovery: a torn tail on the store's log is discarded at
// Open and subsequent appends extend the intact prefix.
func TestStoreTornWALRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, testSnapshot(), DefaultSync())
	if err != nil {
		t.Fatal(err)
	}
	st.Append(context.Background(), testRecords()[0])
	st.Close()
	f, err := os.OpenFile(walPath(dir, 1), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3, 4, 5})
	f.Close()

	st2, _, got, info := openCollect(t, dir)
	if !info.WALTorn {
		t.Error("torn tail not reported")
	}
	if !reflect.DeepEqual(got, testRecords()[:1]) {
		t.Errorf("recovered records %+v", got)
	}
	st2.Append(context.Background(), testRecords()[1])
	st2.Close()

	st3, _, got3, info3 := openCollect(t, dir)
	st3.Close()
	if info3.WALTorn {
		t.Error("log still torn after truncating recovery")
	}
	if !reflect.DeepEqual(got3, testRecords()[:2]) {
		t.Errorf("after reopen, records %+v", got3)
	}
}

func TestSnapshotFileRoundTripOnDisk(t *testing.T) {
	dir := t.TempDir()
	if err := writeSnapshotFile(dir, 7, testSnapshot()); err != nil {
		t.Fatalf("writeSnapshotFile: %v", err)
	}
	f, err := os.Open(snapPath(dir, 7))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadSnapshot(f)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if !reflect.DeepEqual(got, testSnapshot()) {
		t.Error("on-disk snapshot mismatch")
	}
}
