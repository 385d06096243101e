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

	"repro/internal/bruteforce"
	"repro/internal/indextest"
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
	span := s.snap.Load().ix.IDSpan()
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
	fresh, err := New(testPoints(10, 2, 12))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDurable(dir, fresh); err == nil || fresh.Generation() != 0 {
		t.Fatalf("NewDurable overwrote an existing store (err %v, generation %d)", err, fresh.Generation())
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
	want := queryAllLive(t, d, 6)
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
	if got := queryAllLive(t, re, 6); !reflect.DeepEqual(got, want) {
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
	want := queryAllLive(t, d, 4)
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
	if got := queryAllLive(t, re, 4); !reflect.DeepEqual(got, want) {
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
	want := queryAllLive(t, d, 5)

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
	if got := queryAllLive(t, re, 5); !reflect.DeepEqual(got, want) {
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

// storeEngine is the surface TestNewDurableLogsEveryHandle reads an engine
// with a store attached through, common to both topologies; storeWriter is
// the write half, all it asks of the handle the caller built.
type storeEngine interface {
	storeWriter
	Point(id int) []float64
	MemberPoints(ids ...int) [][]float64
	ReverseKNN(qid, k int) ([]int, error)
	Len() int
	Close() error
}

type storeWriter interface {
	Insert(p []float64) (int, error)
	Delete(id int) (bool, error)
}

// TestNewDurableLogsEveryHandle closes the hazard the wrapper types left
// open: after NewDurable(dir, s) / NewDurableSharded(dir, ss) a write through
// the handle the caller built — not only through the returned one — is
// write-ahead logged. Writes interleave through both, and the reopened store
// must hold every acknowledged write and answer like the brute-force oracle.
// (When NewDurable returned a wrapper, the unsharded row failed at Open with
// "replayed insert got id 60, logged id 61": the first insert bypassed the
// log.)
func TestNewDurableLogsEveryHandle(t *testing.T) {
	const n = 60
	// Plain RDT at a scale above the data's: exact, so the oracle is the bar.
	opts := []Option{WithBackend(BackendScan), WithScale(200), WithPlainRDT()}
	for _, tc := range []struct {
		name   string
		attach func(dir string) (built storeWriter, returned storeEngine, err error)
		reopen func(dir string) (storeEngine, error)
	}{
		{"unsharded", func(dir string) (storeWriter, storeEngine, error) {
			s, err := New(testPoints(n, 3, 61), opts...)
			if err != nil {
				return nil, nil, err
			}
			d, err := NewDurable(dir, s)
			return s, d, err
		}, func(dir string) (storeEngine, error) { return Open(dir) }},
		{"sharded", func(dir string) (storeWriter, storeEngine, error) {
			ss, err := NewSharded(testPoints(n, 3, 61), 3, opts...)
			if err != nil {
				return nil, nil, err
			}
			d, err := NewDurableSharded(dir, ss)
			return ss, d, err
		}, func(dir string) (storeEngine, error) { return OpenSharded(dir) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			built, returned, err := tc.attach(dir)
			if err != nil {
				t.Fatal(err)
			}
			handles := []storeWriter{built, returned}
			fresh := testPoints(12, 3, 62)
			live := make(map[int][]float64)
			deleted := make(map[int]bool)
			for i, p := range fresh {
				id, err := handles[i%2].Insert(p)
				if err != nil || id != n+i {
					t.Fatalf("insert %d = %d, %v", i, id, err)
				}
				live[id] = p
				// Delete an original and, later, an inserted point, through
				// the handle the insert did not use.
				victim := 5 * i
				if i >= 8 {
					victim = n + i - 8
				}
				if ok, err := handles[(i+1)%2].Delete(victim); err != nil || !ok {
					t.Fatalf("delete %d = %v, %v", victim, ok, err)
				}
				deleted[victim] = true
				delete(live, victim)
			}
			wantLen := returned.Len()
			if err := returned.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := tc.reopen(dir)
			if err != nil {
				t.Fatalf("reopening after writes through both handles: %v", err)
			}
			defer re.Close()
			if re.Len() != wantLen {
				t.Fatalf("reopened store holds %d points, the engine held %d", re.Len(), wantLen)
			}
			for id, p := range live {
				if got := memberPoint(re, id); !reflect.DeepEqual(got, p) {
					t.Errorf("acknowledged insert %d reads %v after reopen, want %v", id, got, p)
				}
			}
			for id := range deleted {
				if got := memberPoint(re, id); got != nil {
					t.Errorf("acknowledged delete of %d reads %v after reopen", id, got)
				}
			}
			verifyAgainstOracle(t, re, n+len(fresh), deleted)
		})
	}
}

// TestNewDurableRefusesSecondAttachment: an engine holds at most one store.
// Two stores on one engine would each log half the history and neither would
// reopen, so a second NewDurable — whatever state the first store is in — and
// a NewDurable on a shard engine, whose store belongs to the sharded store,
// are refused with the engine and the target directory left untouched.
func TestNewDurableRefusesSecondAttachment(t *testing.T) {
	type attached interface {
		Generation() uint64
		Len() int
		Close() error
	}
	opts := []Option{WithBackend(BackendScan), WithScale(200)}
	single := func(t *testing.T) *Searcher {
		s, err := New(testPoints(40, 3, 63), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewDurable(t.TempDir(), s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	sharded := func(t *testing.T) *ShardedSearcher {
		ss, err := NewSharded(testPoints(40, 3, 63), 3, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	for _, tc := range []struct {
		name string
		// prepare returns the engine the second attachment is tried on (held
		// for the untouched check) and the attempt itself.
		prepare func(t *testing.T) (attached, func(dir string) error)
	}{
		{"open store", func(t *testing.T) (attached, func(string) error) {
			s := single(t)
			return s, func(dir string) error { _, err := NewDurable(dir, s); return err }
		}},
		{"poisoned store", func(t *testing.T) (attached, func(string) error) {
			s := single(t)
			breakStore(t, s.durable.Load().store)
			if _, err := s.Insert([]float64{1, 2, 3}); err == nil {
				t.Fatal("insert over a broken log succeeded")
			}
			return s, func(dir string) error { _, err := NewDurable(dir, s); return err }
		}},
		{"closed store", func(t *testing.T) (attached, func(string) error) {
			s := single(t)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			return s, func(dir string) error { _, err := NewDurable(dir, s); return err }
		}},
		{"shard engine", func(t *testing.T) (attached, func(string) error) {
			ss := sharded(t)
			return ss, func(dir string) error { _, err := NewDurable(dir, ss.slots[0].eng.Load()); return err }
		}},
		{"sharded store", func(t *testing.T) (attached, func(string) error) {
			ss := sharded(t)
			if _, err := NewDurableSharded(t.TempDir(), ss); err != nil {
				t.Fatal(err)
			}
			return ss, func(dir string) error { _, err := NewDurableSharded(dir, ss); return err }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, attach := tc.prepare(t)
			defer eng.Close()
			gen, n := eng.Generation(), eng.Len()
			dir := filepath.Join(t.TempDir(), "second")
			if err := attach(dir); err == nil {
				t.Fatal("a second store was attached")
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("the refusal touched the target directory (stat: %v)", err)
			}
			if eng.Generation() != gen || eng.Len() != n {
				t.Errorf("the refusal changed the engine: generation %d len %d, was %d %d", eng.Generation(), eng.Len(), gen, n)
			}
		})
	}
	// The engine whose second attachment was refused keeps logging to its
	// first store, which reopens with everything.
	dir := t.TempDir()
	s, err := New(testPoints(40, 3, 63), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDurable(dir, s); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDurable(t.TempDir(), s); err == nil {
		t.Fatal("a second store was attached")
	}
	p := []float64{0.4, 0.5, 0.6}
	id, err := s.Insert(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopening the first store: %v", err)
	}
	defer re.Close()
	if got := memberPoint(re, id); !reflect.DeepEqual(got, p) {
		t.Errorf("insert %d reads %v from the reopened first store, want %v", id, got, p)
	}
}

// TestNewDurableShardedFailureDetaches: an attachment that fails midway —
// here shard 1's directory cannot be created — must not leave shard 0 logging
// to a store no manifest commits. The engine comes back in memory, writable,
// and attachable to a clean directory.
func TestNewDurableShardedFailureDetaches(t *testing.T) {
	ss, err := NewSharded(testPoints(40, 3, 64), 3, WithBackend(BackendScan), WithScale(200))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(shardDirName(dir, 1), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDurableSharded(dir, ss); err == nil {
		t.Fatal("NewDurableSharded succeeded over a blocked shard directory")
	}
	if ShardedStoreExists(dir) || ss.Generation() != 0 {
		t.Fatalf("the failed attachment left a store behind (manifest %v, generation %d)", ShardedStoreExists(dir), ss.Generation())
	}
	if _, err := ss.Insert([]float64{1, 2, 3}); err != nil {
		t.Fatalf("insert after the failed attachment: %v", err)
	}
	dir = t.TempDir()
	if _, err := NewDurableSharded(dir, ss); err != nil {
		t.Fatalf("attaching to a clean directory afterwards: %v", err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 41 {
		t.Errorf("reopened store holds %d points, want 41", re.Len())
	}
}

// TestRetiredBackendSnapshotOpensOnTheCoverTree pins the compatibility
// promise for the back-ends that left the facade: a snapshot, or a store,
// written by a k-d tree or VP-tree engine is rows plus engine configuration
// (those engines took no write), so it opens on the cover tree, answers what
// the brute-force oracle answers, takes writes, and saves as what it now is.
// New refuses the same names before it looks at a point.
func TestRetiredBackendSnapshotOpensOnTheCoverTree(t *testing.T) {
	pts := testPoints(90, 3, 31)
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"kdtree", "vptree"} {
		rec := &persist.Snapshot{
			MetricID: vecmath.MetricIDEuclidean,
			Backend:  name,
			Scale:    200, // past the rank cap: plain RDT is exhaustive
			Dim:      3,
			Points:   pts,
		}
		var buf bytes.Buffer
		if err := persist.WriteSnapshot(&buf, rec); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load of a %s snapshot: %v", name, err)
		}
		dir := filepath.Join(t.TempDir(), name)
		st, err := persist.Create(dir, rec, persist.DefaultSync())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		opened, err := Open(dir)
		if err != nil {
			t.Fatalf("Open of a %s store: %v", name, err)
		}
		defer opened.Close()

		for how, s := range map[string]*Searcher{"Load": loaded, "Open": opened} {
			if s.Backend() != BackendCoverTree {
				t.Errorf("%s of a %s snapshot: Backend() = %q, want %q", how, name, s.Backend(), BackendCoverTree)
			}
			for qid := 0; qid < len(pts); qid += 7 {
				got, err := s.ReverseKNN(qid, 4)
				if err != nil {
					t.Fatal(err)
				}
				want, err := truth.RkNNByID(qid, 4)
				if err != nil {
					t.Fatal(err)
				}
				if !sameIDs(got, want) {
					t.Errorf("%s of a %s snapshot: ReverseKNN(%d, 4) = %v, oracle %v", how, name, qid, got, want)
				}
			}
			if id, err := s.Insert([]float64{0.5, 0.5, 0.5}); err != nil || id != len(pts) {
				t.Errorf("%s of a %s snapshot: Insert = (%d, %v), want id %d", how, name, id, err, len(pts))
			}
			var out bytes.Buffer
			if err := s.Save(&out); err != nil {
				t.Fatalf("%s of a %s snapshot: Save: %v", how, name, err)
			}
			saved, err := persist.ReadSnapshot(&out)
			if err != nil {
				t.Fatal(err)
			}
			if saved.Backend != string(BackendCoverTree) || len(saved.Points) != len(pts)+1 {
				t.Errorf("%s of a %s snapshot saved back-end %q over %d points, want %q over %d",
					how, name, saved.Backend, len(saved.Points), BackendCoverTree, len(pts)+1)
			}
		}

		_, err = New(nil, WithBackend(Backend(name)))
		if err == nil {
			t.Fatalf("New accepted the retired back-end %q", name)
		}
		for _, word := range []string{name, "retired", "covertree", "scan", "lsh"} {
			if !strings.Contains(err.Error(), word) {
				t.Errorf("New(WithBackend(%q)): error %q does not mention %q", name, err, word)
			}
		}
	}
	if _, err := NewSharded(pts, 2, WithBackend("nosuch")); err == nil || !strings.Contains(err.Error(), "covertree, scan or lsh") {
		t.Errorf("NewSharded(WithBackend(nosuch)): err = %v, want one naming the back-ends that exist", err)
	}
}

// TestOpenShardedCollectsStaleManifestTemps pins that the sharded store's
// root is swept like a store directory: a manifest write a crash cut short
// leaves MANIFEST.<random>.tmp beside the manifest, and the next OpenSharded
// removes it while the manifest and the shard directories stay.
func TestOpenShardedCollectsStaleManifestTemps(t *testing.T) {
	ss, err := NewSharded(indextest.RandPoints(40, 3, 5), 2, WithScale(8))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := NewDurableSharded(dir, ss); err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "MANIFEST.123456.tmp")
	if err := os.WriteFile(stale, []byte("rknn-sharded-store v1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale %s survived OpenSharded (stat: %v)", filepath.Base(stale), err)
	}
	if !ShardedStoreExists(dir) || re.Len() != 40 {
		t.Errorf("after the sweep: manifest present %v, %d points, want true and 40", ShardedStoreExists(dir), re.Len())
	}
}
