package repro

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/indextest"
)

func TestNewShardedValidation(t *testing.T) {
	pts := indextest.RandPoints(20, 2, 1)
	if _, err := NewSharded(pts, 0, WithScale(5)); err == nil {
		t.Error("accepted 0 shards")
	}
	if _, err := NewSharded(pts, -3, WithScale(5)); err == nil {
		t.Error("accepted negative shards")
	}
	if _, err := NewSharded(nil, 2, WithScale(5)); err == nil {
		t.Error("accepted empty dataset")
	}
	if _, err := NewSharded(pts, 2, WithMetric(nil)); err == nil {
		t.Error("accepted nil metric")
	}
	if _, err := NewSharded(pts, 2, WithScale(-4)); err == nil {
		t.Error("accepted negative scale")
	}
	if _, err := NewSharded(pts, 2, WithBackend("bogus")); err == nil {
		t.Error("accepted unknown back-end")
	}
}

// TestShardedMoreShardsThanPoints exercises empty shards: with S far above
// n some shards hold nothing at build, queries must still be exact, and an
// insert landing on an empty shard must create it lazily.
func TestShardedMoreShardsThanPoints(t *testing.T) {
	pts := indextest.RandPoints(5, 3, 3)
	ss, err := NewSharded(pts, 16, WithScale(100), WithPlainRDT())
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	if ss.Len() != 5 {
		t.Fatalf("Len = %d, want 5", ss.Len())
	}
	single, err := New(pts, WithScale(100), WithPlainRDT())
	if err != nil {
		t.Fatal(err)
	}
	for qid := 0; qid < 5; qid++ {
		got, err := ss.ReverseKNN(qid, 2)
		if err != nil {
			t.Fatalf("ReverseKNN(%d): %v", qid, err)
		}
		want, err := single.ReverseKNN(qid, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got, want) {
			t.Errorf("ReverseKNN(%d) = %v, unsharded %v", qid, got, want)
		}
	}
	// Insert until some previously empty shard is populated.
	for i, p := range indextest.RandPoints(40, 3, 4) {
		id, err := ss.Insert(p)
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		if id != 5+i {
			t.Fatalf("Insert %d assigned id %d, want %d", i, id, 5+i)
		}
	}
	if ss.Len() != 45 {
		t.Errorf("Len after inserts = %d, want 45", ss.Len())
	}
	populated := 0
	for _, si := range ss.ShardStats() {
		if si.Points > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Errorf("only %d shards populated after 45 points over 16 shards", populated)
	}
}

func TestShardedQueryValidation(t *testing.T) {
	pts := indextest.RandPoints(40, 3, 6)
	ss, err := NewSharded(pts, 3, WithScale(50))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.ReverseKNN(-1, 3); err == nil {
		t.Error("accepted negative query id")
	}
	if _, err := ss.ReverseKNN(40, 3); err == nil {
		t.Error("accepted out-of-range query id")
	}
	if _, err := ss.ReverseKNN(0, 0); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := ss.ReverseKNNPoint([]float64{0.1}, 3); err == nil {
		t.Error("accepted dimension mismatch")
	}
	if _, err := ss.ReverseKNNPoint([]float64{0.1, math.NaN(), 0.2}, 3); err == nil {
		t.Error("accepted NaN point")
	}
	if _, err := ss.KNN([]float64{0.1, 0.2}, 3); err == nil {
		t.Error("KNN accepted dimension mismatch")
	}
	if _, err := ss.BatchReverseKNN([]int{1, 2}, 3, -1); err == nil {
		t.Error("accepted negative workers")
	}
	if ok, err := ss.Delete(999); ok || err != nil {
		t.Errorf("Delete(999) = (%v, %v), want (false, nil)", ok, err)
	}
	// A deleted member surfaces ErrDeleted on subsequent member queries.
	if ok, err := ss.Delete(7); !ok || err != nil {
		t.Fatalf("Delete(7) = (%v, %v)", ok, err)
	}
	if _, err := ss.ReverseKNN(7, 3); !errors.Is(err, ErrDeleted) {
		t.Errorf("ReverseKNN on deleted member: %v, want ErrDeleted", err)
	}
	res, err := ss.BatchReverseKNN([]int{1, 7, 2}, 3, 2)
	if err == nil || !errors.Is(err, ErrDeleted) {
		t.Errorf("batch over a deleted member = (%v, %v), want ErrDeleted", res, err)
	}
}

// TestShardedStatsAggregation pins what a sharded query's Stats are: not a
// sum over shards but the counters of the one algorithm run over the merged
// shard streams — field for field the unsharded engine's.
func TestShardedStatsAggregation(t *testing.T) {
	pts := indextest.RandPoints(120, 3, 8)
	ss, err := NewSharded(pts, 3, WithScale(100), WithPlainRDT())
	if err != nil {
		t.Fatal(err)
	}
	single, err := New(pts, WithScale(100), WithPlainRDT())
	if err != nil {
		t.Fatal(err)
	}
	ids, st, err := ss.ReverseKNNStats(11, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs, want, err := single.ReverseKNNStats(11, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.ScanDepth == 0 || st.DistanceComps == 0 {
		t.Errorf("stats look empty: %+v (ids %v)", st, ids)
	}
	if !sameIDs(ids, wantIDs) || st != want {
		t.Errorf("sharded (%v, %+v), unsharded (%v, %+v)", ids, st, wantIDs, want)
	}
}

// TestShardedScanDepthMatchesUnsharded is the CI gate against a silent return
// to S× work: on a fixed seed of the benchmark's data family, at its starved
// scale, a ShardedSearcher over three shards scans exactly as deep as the
// unsharded engine, query by query. Scan depth is a count that repeats
// exactly on every machine; a sharded engine that ran the algorithm once per
// shard again would report about three times this.
func TestShardedScanDepthMatchesUnsharded(t *testing.T) {
	pts := dataset.FCT(3000, 1).Points
	single, err := New(pts, WithScale(4))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewSharded(pts, 3, WithScale(4))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for qid := 0; qid < len(pts); qid += 47 {
		_, want, err := single.ReverseKNNStats(qid, 10)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := ss.ReverseKNNStats(qid, 10)
		if err != nil {
			t.Fatal(err)
		}
		if got.ScanDepth != want.ScanDepth {
			t.Errorf("query %d: sharded scan depth %d, unsharded %d", qid, got.ScanDepth, want.ScanDepth)
		}
		total += got.ScanDepth
	}
	t.Logf("scan depth over %d queries: %d, S=3 and unsharded alike", (len(pts)+46)/47, total)
}

func TestShardedStoreRefusalAndMissing(t *testing.T) {
	dir := t.TempDir()
	if ShardedStoreExists(dir) {
		t.Error("empty dir reported as sharded store")
	}
	if _, err := OpenSharded(dir); !errors.Is(err, ErrNoStore) {
		t.Errorf("OpenSharded(empty) = %v, want ErrNoStore", err)
	}

	pts := indextest.RandPoints(60, 3, 9)
	ss, err := NewSharded(pts, 2, WithScale(50))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurableSharded(dir, ss, WithWALSync(0))
	if err != nil {
		t.Fatalf("NewDurableSharded: %v", err)
	}
	if !ShardedStoreExists(dir) {
		t.Error("sharded store not detected after creation")
	}
	if g := d.Generation(); g != 1 {
		t.Errorf("fresh store generation %d, want 1", g)
	}
	// The overwrite checks take an engine with no store of its own, so that
	// what refuses is the directory's content (an engine that already holds a
	// store is refused whatever the directory: persist_test.go).
	fresh, err := NewSharded(pts, 2, WithScale(50))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDurableSharded(dir, fresh); err == nil {
		t.Error("NewDurableSharded overwrote an existing sharded store")
	}
	// A single-engine store may not be shadowed either.
	single := t.TempDir()
	s, err := New(pts, WithScale(50))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDurable(single, s)
	if err != nil {
		t.Fatal(err)
	}
	ds.Close()
	if _, err := NewDurableSharded(single, fresh); err == nil {
		t.Error("NewDurableSharded overwrote a single-engine store")
	}
	if fresh.Generation() != 0 {
		t.Error("a refused NewDurableSharded left a store attached")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := d.Insert([]float64{0.1, 0.2, 0.3}); err == nil {
		t.Error("closed sharded store accepted Insert")
	}
	if err := d.Snapshot(); err == nil {
		t.Error("closed sharded store accepted Snapshot")
	}
}

// TestShardedStoreLostShardFailsLoudly pins the recovery cross-check: if a
// shard store vanishes, OpenSharded must refuse rather than silently
// renumber the surviving global IDs.
func TestShardedStoreLostShardFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	pts := indextest.RandPoints(90, 3, 10)
	ss, err := NewSharded(pts, 3, WithScale(50))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurableSharded(dir, ss)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "shard-1")); err != nil {
		t.Fatal(err)
	}
	_, err = OpenSharded(dir)
	if err == nil {
		t.Fatal("OpenSharded succeeded with a missing shard store")
	}
	if !strings.Contains(err.Error(), "inconsistent") {
		t.Errorf("error does not name the inconsistency: %v", err)
	}
}

// TestShardedDurableGenerations covers the per-shard generation surface
// behind /statsz and the admin snapshot endpoint.
func TestShardedDurableGenerations(t *testing.T) {
	dir := t.TempDir()
	pts := indextest.RandPoints(80, 3, 12)
	ss, err := NewSharded(pts, 3, WithScale(50))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurableSharded(dir, ss)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if g := d.Generation(); g != 2 {
		t.Errorf("Generation after one cut = %d, want 2", g)
	}
	for i, g := range d.Generations() {
		if d.slots[i].eng.Load() != nil && g != 2 {
			t.Errorf("shard %d generation %d, want 2", i, g)
		}
	}
}
