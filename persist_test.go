package repro

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lsh"
	"repro/internal/persist"
	"repro/internal/vecmath"
)

func testPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// queryAllLive collects ReverseKNN answers for every live ID.
func queryAllLive(t *testing.T, s *Searcher, k int) map[int][]int {
	t.Helper()
	out := make(map[int][]int)
	span := s.snap.Load().ix.Len()
	if lv, ok := s.snap.Load().ix.(interface{ IDSpan() int }); ok {
		span = lv.IDSpan()
	}
	for id := 0; id < span; id++ {
		ids, err := s.ReverseKNN(id, k)
		if err != nil {
			if errors.Is(err, ErrDeleted) {
				continue
			}
			t.Fatalf("ReverseKNN(%d): %v", id, err)
		}
		out[id] = ids
	}
	return out
}

// TestSaveLoadRoundTrip pins the full cycle on every back-end: a saved and
// reloaded Searcher answers every query identically, keeps its scale
// without re-estimation, and round-trips metric and configuration.
func TestSaveLoadRoundTrip(t *testing.T) {
	pts := testPoints(120, 3, 7)
	for _, b := range allBackends {
		b := b
		t.Run(string(b), func(t *testing.T) {
			m, err := Minkowski(2.5)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(pts, WithBackend(b), WithMetric(m), WithAutoScale(EstimatorMLE))
			if err != nil {
				t.Fatal(err)
			}
			want := queryAllLive(t, s, 5)

			var buf bytes.Buffer
			if err := s.Save(&buf); err != nil {
				t.Fatalf("Save: %v", err)
			}
			before := estimateCalls.Load()
			loaded, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if calls := estimateCalls.Load() - before; calls != 0 {
				t.Errorf("Load re-estimated the scale %d times", calls)
			}
			if loaded.Scale() != s.Scale() {
				t.Errorf("loaded scale %g, want %g", loaded.Scale(), s.Scale())
			}
			if loaded.Len() != s.Len() || loaded.Dim() != s.Dim() {
				t.Errorf("loaded %d×%d, want %d×%d", loaded.Len(), loaded.Dim(), s.Len(), s.Dim())
			}
			got := queryAllLive(t, loaded, 5)
			if !reflect.DeepEqual(got, want) {
				t.Error("loaded Searcher answers differ from the original")
			}
		})
	}
}

// TestSaveLoadWithTombstones covers dynamic state: inserts and deletes
// survive the round trip on both dynamic back-ends, including the cover
// tree's native structure path.
func TestSaveLoadWithTombstones(t *testing.T) {
	for _, b := range []Backend{BackendCoverTree, BackendScan} {
		b := b
		t.Run(string(b), func(t *testing.T) {
			s, err := New(testPoints(80, 2, 3), WithBackend(b), WithScale(150), WithPlainRDT())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Insert([]float64{0.5, 0.5}); err != nil {
				t.Fatal(err)
			}
			for _, id := range []int{2, 40, 80} {
				if ok, err := s.Delete(id); err != nil || !ok {
					t.Fatalf("Delete(%d) = %v, %v", id, ok, err)
				}
			}
			want := queryAllLive(t, s, 4)

			var buf bytes.Buffer
			if err := s.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			got := queryAllLive(t, loaded, 4)
			if !reflect.DeepEqual(got, want) {
				t.Error("answers differ after tombstone round trip")
			}
			// Deleted IDs must still be rejected as deleted.
			if _, err := loaded.ReverseKNN(40, 4); !errors.Is(err, ErrDeleted) {
				t.Errorf("query at deleted id after load: %v", err)
			}
			// And inserts must continue from the preserved ID space.
			id, err := loaded.Insert([]float64{0.25, 0.75})
			if err != nil {
				t.Fatal(err)
			}
			if id != 81 {
				t.Errorf("post-load insert got id %d, want 81", id)
			}
		})
	}
}

func TestSaveLoadAdaptive(t *testing.T) {
	s, err := New(testPoints(60, 2, 5), WithAdaptiveScale(), WithScaleMargin(0.5))
	if err != nil {
		t.Fatal(err)
	}
	want := queryAllLive(t, s, 3)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Scale() != 0 || !loaded.adaptive || loaded.margin != 0.5 {
		t.Errorf("adaptive config lost: scale %g, adaptive %v, margin %g",
			loaded.Scale(), loaded.adaptive, loaded.margin)
	}
	if got := queryAllLive(t, loaded, 3); !reflect.DeepEqual(got, want) {
		t.Error("adaptive answers differ after round trip")
	}
}

type customMetric struct{ Metric }

func TestSaveRejectsCustomMetric(t *testing.T) {
	s, err := New(testPoints(30, 2, 9), WithMetric(customMetric{Euclidean}), WithScale(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&bytes.Buffer{}); err == nil {
		t.Error("Save accepted an unregistered custom metric")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot at all"))); err == nil {
		t.Error("Load accepted garbage")
	}
}

// TestDurableSearcherLifecycle drives the full durability loop through the
// public API: bootstrap, logged writes, snapshot cut, reopen, and identical
// answers — with the log and generations advancing as specified.
func TestDurableSearcherLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := New(testPoints(100, 2, 11), WithBackend(BackendCoverTree), WithScale(150), WithPlainRDT())
	if err != nil {
		t.Fatal(err)
	}
	if StoreExists(dir) {
		t.Fatal("empty dir reports a store")
	}
	d, err := NewDurable(dir, s)
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	if !StoreExists(dir) {
		t.Fatal("store not created")
	}
	if _, err := NewDurable(dir, s); err == nil {
		t.Fatal("NewDurable overwrote an existing store")
	}

	// Phase 1: logged writes.
	id, err := d.Insert([]float64{0.1, 0.9})
	if err != nil || id != 100 {
		t.Fatalf("Insert = %d, %v", id, err)
	}
	if ok, err := d.Delete(5); err != nil || !ok {
		t.Fatalf("Delete(5) = %v, %v", ok, err)
	}
	if ok, err := d.Delete(5); err != nil || ok {
		t.Fatalf("second Delete(5) = %v, %v (no-op deletes must not log)", ok, err)
	}
	// Phase 2: cut a snapshot, then more logged writes.
	if d.Generation() != 1 {
		t.Errorf("generation %d before cut", d.Generation())
	}
	if err := d.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if d.Generation() != 2 {
		t.Errorf("generation %d after cut, want 2", d.Generation())
	}
	if _, err := d.Insert([]float64{0.9, 0.1}); err != nil {
		t.Fatal(err)
	}
	if ok, err := d.Delete(77); err != nil || !ok {
		t.Fatalf("Delete(77) = %v, %v", ok, err)
	}
	want := queryAllLive(t, d.Searcher, 6)
	wantScale := d.Scale()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert([]float64{0, 0}); err == nil {
		t.Error("Insert succeeded after Close")
	}

	// Reopen: snapshot generation 2 + two logged records.
	before := estimateCalls.Load()
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if calls := estimateCalls.Load() - before; calls != 0 {
		t.Errorf("Open re-estimated the scale %d times", calls)
	}
	rec := re.Recovery()
	if rec.Generation != 2 || rec.WALRecords != 2 || rec.WALTorn {
		t.Errorf("recovery info %+v", rec)
	}
	if re.Scale() != wantScale {
		t.Errorf("recovered scale %g, want %g", re.Scale(), wantScale)
	}
	if got := queryAllLive(t, re.Searcher, 6); !reflect.DeepEqual(got, want) {
		t.Error("recovered answers differ from pre-restart state")
	}
	// The recovered engine keeps accepting durable writes.
	if _, err := re.Insert([]float64{0.3, 0.3}); err != nil {
		t.Fatalf("Insert after recovery: %v", err)
	}
}

// TestOpenDiscardsTornWALTail simulates a crash mid-append on a live
// store: garbage on the log tail is discarded and the intact prefix
// recovers.
func TestOpenDiscardsTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s, err := New(testPoints(50, 2, 13), WithBackend(BackendScan), WithScale(150), WithPlainRDT())
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert([]float64{0.2, 0.8}); err != nil {
		t.Fatal(err)
	}
	want := queryAllLive(t, d.Searcher, 4)
	// Hard stop: no Close. Tear the log by appending a partial record.
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("wal files: %v, %v", logs, err)
	}
	f, err := os.OpenFile(logs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{42, 0, 0, 0, 7, 7})
	f.Close()

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open over torn log: %v", err)
	}
	defer re.Close()
	if rec := re.Recovery(); !rec.WALTorn || rec.WALRecords != 1 {
		t.Errorf("recovery info %+v, want torn with 1 record", rec)
	}
	if got := queryAllLive(t, re.Searcher, 4); !reflect.DeepEqual(got, want) {
		t.Error("recovered answers differ after torn-tail recovery")
	}
}

func TestOpenNoStore(t *testing.T) {
	if _, err := Open(t.TempDir()); !errors.Is(err, ErrNoStore) {
		t.Errorf("Open(empty) = %v, want ErrNoStore", err)
	}
}

// TestOpenDetectsForkedWAL: a log whose insert IDs disagree with replay
// order is corrupt and must be rejected, not silently mis-assigned.
func TestOpenDetectsForkedWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := New(testPoints(20, 2, 17), WithBackend(BackendScan), WithScale(50))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatal("missing wal")
	}
	// Forge an insert record claiming an ID that replay cannot assign.
	forged := persist.WALRecord{Op: persist.WALInsert, ID: 99, Point: []float64{1, 1}}
	w, err := persist.OpenWAL(logs[0], 0, persist.DefaultSync())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(context.Background(), forged); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := Open(dir); err == nil {
		t.Error("Open accepted a forked WAL")
	}
}

// TestLSHSaveLoadNoRehash is the approximate tier's round-trip bar: a saved
// LSH engine restores from its native structure blob with zero hash
// computations (pinned by the lsh.HashCalls counter) and answers every
// query byte-identically — projections, offsets, width, and buckets all
// come from the blob, never from re-hashing the rows.
func TestLSHSaveLoadNoRehash(t *testing.T) {
	pts := testPoints(150, 4, 17)
	s, err := New(pts, WithBackend(BackendLSH), WithScale(8))
	if err != nil {
		t.Fatal(err)
	}
	want := queryAllLive(t, s, 5)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	estBefore := estimateCalls.Load()
	hashBefore := lsh.HashCalls()
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if calls := estimateCalls.Load() - estBefore; calls != 0 {
		t.Errorf("Load re-estimated the scale %d times", calls)
	}
	if calls := lsh.HashCalls() - hashBefore; calls != 0 {
		t.Errorf("Load performed %d hash computations, want 0 (native structure restore)", calls)
	}
	if loaded.Backend() != BackendLSH || !loaded.Approximate() {
		t.Errorf("loaded backend %q, approximate %v", loaded.Backend(), loaded.Approximate())
	}
	if got := queryAllLive(t, loaded, 5); !reflect.DeepEqual(got, want) {
		t.Error("loaded LSH answers differ from the original (candidate sets not preserved)")
	}
}

// TestLSHDurableCrashRecovery drives the LSH back-end through the full
// durable lifecycle: logged inserts and deletes, a snapshot cut, a crash
// with a torn log tail, and recovery — candidate sets must survive
// byte-identically, with zero hash computations (the snapshot base restores
// from its native blob and the replayed WAL inserts land in the delta
// overlay's memtable).
func TestLSHDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	pts := testPoints(120, 3, 19)
	s, err := New(pts, WithBackend(BackendLSH), WithScale(8))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(dir, s)
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	extra := testPoints(20, 3, 20)
	for _, p := range extra[:8] {
		if _, err := d.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := d.Delete(7); !ok || err != nil {
		t.Fatalf("Delete(7) = (%v, %v)", ok, err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for _, p := range extra[8:] {
		if _, err := d.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := d.Delete(125); !ok || err != nil {
		t.Fatalf("Delete(125) = (%v, %v)", ok, err)
	}
	want := queryAllLive(t, d.Searcher, 5)

	// Crash: no Close, torn garbage on the log tail.
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("wal files %v, %v", logs, err)
	}
	f, err := os.OpenFile(logs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{40, 0, 0, 0, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	hashBefore := lsh.HashCalls()
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	rec := re.Recovery()
	if rec.Generation != 2 || !rec.WALTorn || rec.WALRecords != 13 {
		t.Errorf("recovery info %+v, want generation 2, torn, 13 records", rec)
	}
	// Replay lands in the delta overlay's memtable, so recovery performs
	// zero hash computations: the snapshot base restores from its native
	// blob and the replayed inserts are plain row appends.
	if calls := lsh.HashCalls() - hashBefore; calls != 0 {
		t.Errorf("recovery performed %d hash computations, want 0 (replay lands in the memtable)", calls)
	}
	if got := queryAllLive(t, re.Searcher, 5); !reflect.DeepEqual(got, want) {
		t.Error("recovered LSH answers differ from pre-crash state")
	}
	// The recovered engine keeps the dynamic contract.
	if _, err := re.Insert(extra[0]); err != nil {
		t.Fatalf("Insert after recovery: %v", err)
	}
}

// TestLSHLoadSurvivesCorruptNativeBlob pins the fallback: a snapshot whose
// LSH native blob is unreadable still loads by re-hashing the rows with
// default options — approximate answers may differ, but the engine comes
// up with the same live point set and configuration.
func TestLSHLoadSurvivesCorruptNativeBlob(t *testing.T) {
	pts := testPoints(90, 3, 23)
	s, err := New(pts, WithBackend(BackendLSH), WithScale(8))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.snapshotRecord()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Native) == 0 {
		t.Fatal("LSH snapshot carries no native blob")
	}
	rec.Native = []byte{0xFF, 1, 2, 3} // unreadable structure
	var buf bytes.Buffer
	if err := persist.WriteSnapshot(&buf, rec); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load with corrupt native blob: %v", err)
	}
	if loaded.Len() != s.Len() || loaded.Scale() != s.Scale() || loaded.Backend() != BackendLSH {
		t.Errorf("fallback load: n=%d t=%g backend=%q", loaded.Len(), loaded.Scale(), loaded.Backend())
	}
	if _, err := loaded.ReverseKNN(3, 5); err != nil {
		t.Errorf("fallback-loaded engine cannot answer: %v", err)
	}
}

// TestLoadLegacyAngularZeroVector pins the migration surface: snapshots
// written before the angular metric rejected zero vectors can contain one,
// and the rebuild-on-load now refuses them (serving over a broken pruning
// invariant would silently drop results). The refusal must be recognizable
// — it wraps vecmath.ErrZeroVector — and name the migration instead of
// reading as opaque corruption.
func TestLoadLegacyAngularZeroVector(t *testing.T) {
	pts := testPoints(40, 3, 29)
	pts[7] = []float64{0, 0, 0} // legal in the release that wrote the snapshot
	rec := &persist.Snapshot{
		MetricID: vecmath.MetricIDAngular,
		Backend:  string(BackendScan),
		Scale:    8,
		Dim:      3,
		Points:   pts,
	}
	var buf bytes.Buffer
	if err := persist.WriteSnapshot(&buf, rec); err != nil {
		t.Fatal(err)
	}
	_, err := Load(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("snapshot with an angular zero vector loaded")
	}
	if !errors.Is(err, vecmath.ErrZeroVector) {
		t.Fatalf("load error %q does not wrap vecmath.ErrZeroVector", err)
	}
	if !strings.Contains(err.Error(), "re-save") {
		t.Fatalf("load error %q does not explain the migration", err)
	}
}
