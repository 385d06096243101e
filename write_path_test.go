package repro

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/index"
	"repro/internal/indextest"
	"repro/internal/telemetry"
	"repro/internal/vecmath"
)

// TestInsertDoesNotCloneBase is the acceptance pin of the incremental write
// path: single-point writes below the compaction threshold must never clone
// the base back-end (the old clone-per-write behavior was O(n) per Insert).
// index.BaseClones counts every base clone performed by an overlay fold.
func TestInsertDoesNotCloneBase(t *testing.T) {
	pts := indextest.RandPoints(300, 3, 41)
	s, err := New(pts, WithScale(100))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	before := index.BaseClones()
	extra := indextest.RandPoints(50, 3, 42)
	for _, p := range extra {
		if _, err := s.Insert(p); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	for id := 0; id < 10; id++ {
		if ok, err := s.Delete(id); !ok || err != nil {
			t.Fatalf("Delete(%d) = (%v, %v)", id, ok, err)
		}
	}
	if got := index.BaseClones() - before; got != 0 {
		t.Errorf("60 writes below the compaction threshold cloned the base %d times, want 0", got)
	}
	if got := s.MemtableLen(); got != len(extra) {
		t.Errorf("MemtableLen = %d, want %d", got, len(extra))
	}
	if got := s.Compactions(); got != 0 {
		t.Errorf("Compactions = %d, want 0 below the threshold", got)
	}
	// The delta is fully queryable: the engine over base+memtable+tombstones
	// must agree with a brute-force oracle over the surviving points.
	verifyAgainstOracle(t, s, 300+len(extra), map[int]bool{
		0: true, 1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true, 8: true, 9: true,
	})
}

// verifyAgainstOracle pins a sample of the engine's RkNN answers to the
// brute-force oracle over the live points in [0, span).
func verifyAgainstOracle(t *testing.T, eng interface {
	Point(id int) []float64
	ReverseKNN(qid, k int) ([]int, error)
}, span int, deleted map[int]bool) {
	t.Helper()
	var oraclePts [][]float64
	var oracleToEngine []int
	for id := 0; id < span; id++ {
		if deleted[id] {
			continue
		}
		oraclePts = append(oraclePts, eng.Point(id))
		oracleToEngine = append(oracleToEngine, id)
	}
	truth, err := bruteforce.New(oraclePts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	for oid, eid := range oracleToEngine {
		if oid%17 != 0 && oid != len(oracleToEngine)-1 {
			continue
		}
		got, err := eng.ReverseKNN(eid, 5)
		if err != nil {
			t.Fatalf("ReverseKNN(%d, 5): %v", eid, err)
		}
		wantOracle, err := truth.RkNNByID(oid, 5)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, len(wantOracle))
		for i, o := range wantOracle {
			want[i] = oracleToEngine[o]
		}
		if !sameIDs(got, want) {
			t.Errorf("ReverseKNN(%d, 5) = %v, oracle %v", eid, got, want)
		}
	}
}

// waitCompactions polls until the engine reports at least n compactions or
// the deadline passes.
func waitCompactions(t *testing.T, compactions func() int64, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for compactions() < n {
		if time.Now().After(deadline) {
			t.Fatalf("compactions = %d after 10s, want >= %d", compactions(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCompactionFoldsMemtable drives the overlay past a small threshold and
// checks the background compactor folds the delta into a fresh base: the
// compaction counter advances, the memtable drains, exactly the expected
// number of base clones are paid, and answers stay oracle-exact throughout.
func TestCompactionFoldsMemtable(t *testing.T) {
	pts := indextest.RandPoints(120, 3, 43)
	s, err := New(pts, WithScale(100), WithCompactionThreshold(8))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	extra := indextest.RandPoints(8, 3, 44)
	for _, p := range extra {
		if _, err := s.Insert(p); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	waitCompactions(t, s.Compactions, 1)
	// The compactor may briefly race one more write batch; once quiesced the
	// memtable must be empty (all writes above landed before the fold).
	deadline := time.Now().Add(10 * time.Second)
	for s.MemtableLen() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("MemtableLen = %d after compaction, want 0", s.MemtableLen())
		}
		time.Sleep(time.Millisecond)
	}
	if s.Len() != 128 {
		t.Errorf("Len = %d, want 128", s.Len())
	}
	verifyAgainstOracle(t, s, 128, nil)

	// Deletes count toward the pending delta too: tombstones alone must
	// trigger the next fold.
	for id := 0; id < 8; id++ {
		if ok, err := s.Delete(id); !ok || err != nil {
			t.Fatalf("Delete(%d) = (%v, %v)", id, ok, err)
		}
	}
	waitCompactions(t, s.Compactions, 2)
	verifyAgainstOracle(t, s, 128, map[int]bool{
		0: true, 1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true,
	})
}

// TestCompactNowWaitsOnTheFoldInFlight pins ROADMAP 8f. A compaction used to
// choose the overlay it froze before it owned the right to fold: a fold that
// published its rebase in between left it freezing an overlay that was no
// ancestor of the published one (Rebase panicked on a negative length, about
// once in 5 000 runs), and compactNow, finding the flag taken, spun 64 times
// and gave up ("never folded", about once in 1 000). The test is the fold in
// flight: it holds the compactor's lock while writes pile up a delta and
// compactNow arrives, then publishes its rebase and lets go — compactNow
// must still be there, and must freeze what was published, not what it saw.
func TestCompactNowWaitsOnTheFoldInFlight(t *testing.T) {
	pts := indextest.RandPoints(120, 3, 47)
	s, err := New(pts, WithScale(100), WithCompactionThreshold(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.compacting.Lock()
	for _, p := range indextest.RandPoints(10, 3, 48) {
		if _, err := s.Insert(p); err != nil { // past the threshold, but the lock is taken: the write walks away
			t.Fatalf("Insert: %v", err)
		}
	}
	if ok, err := s.Delete(5); !ok || err != nil {
		t.Fatalf("Delete(5) = (%v, %v)", ok, err)
	}
	if s.Compactions() != 0 || s.MemtableLen() != 10 {
		t.Fatalf("a write folded while a fold was in flight: %d compactions, %d memtable rows", s.Compactions(), s.MemtableLen())
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.compactNow() // sees a dirty overlay, then parks on the lock
	}()
	for i := 0; i < 1000; i++ {
		runtime.Gosched() // far past the 64 spins compactNow used to give up after
	}
	select {
	case <-done:
		t.Fatal("compactNow returned while a fold was in flight: it gave up instead of waiting")
	default:
	}
	s.compact(1) // the fold in flight publishes its rebase and releases the lock
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("compactNow still waiting after the fold in flight finished")
	}
	if s.Compactions() != 1 || s.snap.Load().ix.Dirty() {
		t.Fatalf("after the wait: %d compactions, dirty=%v; want the one fold and a clean overlay", s.Compactions(), s.snap.Load().ix.Dirty())
	}
	verifyAgainstOracle(t, s, 130, map[int]bool{5: true})
}

// TestWriteTelemetry pins the write-path observability bugfix: inserts and
// deletes land in rknn_queries_total under op="insert"/op="delete" (they
// were previously invisible), batch members count individually, the
// memtable gauge tracks MemtableLen, and the compaction counter family is
// registered.
func TestWriteTelemetry(t *testing.T) {
	pts := indextest.RandPoints(150, 3, 45)
	reg := telemetry.NewRegistry()
	s, err := New(pts, WithScale(100))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.EnableTelemetry(reg)
	for _, p := range indextest.RandPoints(5, 3, 46) {
		if _, err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.InsertBatch(indextest.RandPoints(4, 3, 47)); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		if ok, err := s.Delete(id); !ok || err != nil {
			t.Fatalf("Delete(%d) = (%v, %v)", id, ok, err)
		}
	}
	// A no-op delete (already gone) must not count: only applied writes do.
	if ok, err := s.Delete(0); ok || err != nil {
		t.Fatalf("double Delete(0) = (%v, %v), want applied=false", ok, err)
	}
	// A rejected insert must not count either.
	if _, err := s.Insert([]float64{1}); err == nil {
		t.Fatal("dimension-mismatch insert succeeded")
	}

	backend := telemetry.Label{Name: "backend", Value: "covertree"}
	if got := counterValue(t, reg, "rknn_queries_total", backend, telemetry.Label{Name: "op", Value: "insert"}); got != 9 {
		t.Errorf("rknn_queries_total{op=insert} = %v, want 9 (5 single + 4 batch members)", got)
	}
	if got := counterValue(t, reg, "rknn_queries_total", backend, telemetry.Label{Name: "op", Value: "delete"}); got != 3 {
		t.Errorf("rknn_queries_total{op=delete} = %v, want 3 applied deletes", got)
	}
	if got := counterValue(t, reg, "rknn_memtable_points", backend); got != float64(s.MemtableLen()) {
		t.Errorf("rknn_memtable_points = %v, want MemtableLen %d", got, s.MemtableLen())
	}
	if got := counterValue(t, reg, "rknn_compactions_total", backend); got != float64(s.Compactions()) {
		t.Errorf("rknn_compactions_total = %v, want Compactions %d", got, s.Compactions())
	}
}

// TestInsertBatchMatchesSequential pins batch-insert semantics to the
// sequential path: same IDs, same answers, and whole-batch atomicity when a
// member is invalid.
func TestInsertBatchMatchesSequential(t *testing.T) {
	pts := indextest.RandPoints(100, 3, 51)
	batch := indextest.RandPoints(20, 3, 52)

	one, err := New(pts, WithScale(100))
	if err != nil {
		t.Fatal(err)
	}
	ids, err := one.InsertBatch(batch)
	if err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	two, err := New(pts, WithScale(100))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range batch {
		id, err := two.Insert(p)
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if ids[i] != id {
			t.Errorf("batch id[%d] = %d, sequential id %d", i, ids[i], id)
		}
	}
	for qid := 0; qid < one.Len(); qid += 13 {
		a, err := one.ReverseKNN(qid, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := two.ReverseKNN(qid, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(a, b) {
			t.Errorf("ReverseKNN(%d) batch %v, sequential %v", qid, a, b)
		}
	}

	// Atomicity: a batch with one invalid member leaves nothing behind.
	before := one.Len()
	bad := [][]float64{{0.1, 0.2, 0.3}, {0.4, 0.5}, {0.6, 0.7, 0.8}}
	if _, err := one.InsertBatch(bad); err == nil {
		t.Fatal("batch with a dimension-mismatched member succeeded")
	}
	if one.Len() != before || one.MemtableLen() != 20 {
		t.Errorf("rejected batch mutated the engine: Len %d -> %d, memtable %d",
			before, one.Len(), one.MemtableLen())
	}
	// Empty batch is a no-op.
	if ids, err := one.InsertBatch(nil); err != nil || len(ids) != 0 {
		t.Errorf("empty batch = (%v, %v), want no-op", ids, err)
	}
}

// TestShardedInsertBatchMatchesUnsharded pins the scatter side of bulk
// ingest: a sharded engine fed one batch answers queries exactly like an
// unsharded engine fed the same points, and the assigned global IDs are the
// same dense sequence.
func TestShardedInsertBatchMatchesUnsharded(t *testing.T) {
	pts := indextest.RandPoints(90, 3, 53)
	batch := indextest.RandPoints(30, 3, 54)
	flat, err := New(pts, WithScale(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flat.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		shards := shards
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			ss, err := NewSharded(pts, shards, WithScale(100))
			if err != nil {
				t.Fatal(err)
			}
			ids, err := ss.InsertBatch(batch)
			if err != nil {
				t.Fatalf("InsertBatch: %v", err)
			}
			for i, id := range ids {
				if id != len(pts)+i {
					t.Fatalf("batch id[%d] = %d, want %d (dense global sequence)", i, id, len(pts)+i)
				}
			}
			if ss.Len() != flat.Len() {
				t.Fatalf("Len = %d, want %d", ss.Len(), flat.Len())
			}
			for qid := 0; qid < ss.Len(); qid += 11 {
				a, err := ss.ReverseKNN(qid, 5)
				if err != nil {
					t.Fatal(err)
				}
				b, err := flat.ReverseKNN(qid, 5)
				if err != nil {
					t.Fatal(err)
				}
				if !sameIDs(a, b) {
					t.Errorf("ReverseKNN(%d) sharded %v, unsharded %v", qid, a, b)
				}
			}
			// Atomic rejection, as on the facade.
			before := ss.Len()
			if _, err := ss.InsertBatch([][]float64{{0.1, 0.2, 0.3}, {1}}); err == nil {
				t.Fatal("invalid batch succeeded")
			}
			if ss.Len() != before {
				t.Errorf("rejected batch changed Len %d -> %d", before, ss.Len())
			}
		})
	}
}

// TestShardedPointRaceReturnsNotFound is the regression pin for the
// map-published-before-apply window in ShardedSearcher.Insert: a reader
// racing a writer may observe a global ID in the shard map whose point has
// not been applied to the shard engine yet. That window must read as
// not-found (nil), never panic.
func TestShardedPointRaceReturnsNotFound(t *testing.T) {
	pts := indextest.RandPoints(60, 3, 55)
	ss, err := NewSharded(pts, 3, WithScale(100))
	if err != nil {
		t.Fatal(err)
	}
	const writes = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writes; i++ {
			if _, err := ss.Insert([]float64{0.01 * float64(i%100), 0.5, 0.5}); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// Chase the assignment frontier: the newest IDs in the
				// published shard map are exactly the ones whose engine
				// apply may still be in flight. Every probe must return a
				// point or nil, never panic.
				span := ss.smap.Load().Len()
				for _, id := range []int{span - 2, span - 1} {
					if id < 0 {
						continue
					}
					if p := ss.Point(id); p != nil && len(p) != 3 {
						t.Errorf("Point(%d) returned %v", id, p)
						return
					}
				}
			}
		}()
	}
	<-done
	wg.Wait()
	// After the dust settles every assigned ID answers.
	for id := 60; id < 60+writes; id += 37 {
		if p := ss.Point(id); len(p) != 3 {
			t.Errorf("Point(%d) = %v after writer finished", id, p)
		}
	}
}

// TestDurableLogFailureReportsAssignedIDs pins how a caller tells "applied
// in memory, not logged" from "not applied" when the log fails: the failing
// insert returns the IDs it assigned beside the error, a refused one none.
// (fault_test.go covers the rest of the contract.)
func TestDurableLogFailureReportsAssignedIDs(t *testing.T) {
	extra := indextest.RandPoints(4, 3, 52)
	for _, batch := range []bool{false, true} {
		s, err := New(indextest.RandPoints(40, 3, 51), WithScale(100))
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDurable(t.TempDir(), s)
		if err != nil {
			t.Fatal(err)
		}
		breakStore(t, d.durable.Load().store)
		if batch {
			ids, err := d.InsertBatch(extra[:3])
			if err == nil || !reflect.DeepEqual(ids, []int{40, 41, 42}) {
				t.Errorf("unlogged batch = (%v, %v), want ids 40..42 beside the error", ids, err)
			}
		} else if id, err := d.Insert(extra[0]); err == nil || id != 40 {
			t.Errorf("unlogged insert = (%d, %v), want id 40 beside the error", id, err)
		}
		if id, err := d.Insert(extra[3]); err == nil || id != 0 {
			t.Errorf("refused insert = (%d, %v), want no id", id, err)
		}
		d.Close()
	}
}

// TestShardedInsertRollsBackOrPoisons pins the rule for an insert group
// refused un-applied after the shard map was published (here: the store of
// a shard's first points cannot be opened). If no group of the call is
// visible yet, the map is restored and the engine stays writable — for a
// batch as for a single insert. If another group already landed, the engine
// keeps what landed, returns the IDs with the error, and refuses every
// later write.
func TestShardedInsertRollsBackOrPoisons(t *testing.T) {
	const S = 32
	dir := t.TempDir()
	ss, err := NewSharded(indextest.RandPoints(3, 3, 61), S, WithScale(100))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurableSharded(dir, ss)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	extra := indextest.RandPoints(200, 3, 62)
	next := func(n int) [][]float64 { pts := extra[:n]; extra = extra[n:]; return pts }
	// block makes opening shard s's store fail: its directory name is taken
	// by a file.
	block := func(s int) string {
		path := shardDirName(dir, s)
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// shape reports the lowest and highest shard a batch of n would touch.
	shape := func(n int) (lo, hi int) {
		lo, hi = S, -1
		for i := 0; i < n; i++ {
			s := index.ShardOf(d.IDSpan()+i, S)
			lo, hi = min(lo, s), max(hi, s)
		}
		return lo, hi
	}
	empty := func(s int) bool { return d.slots[s].eng.Load() == nil }

	// Rollback: the first group of the batch is the one refused.
	for lo, _ := shape(3); !empty(lo); lo, _ = shape(3) {
		if _, err := d.Insert(next(1)[0]); err != nil {
			t.Fatal(err)
		}
	}
	lo, _ := shape(3)
	span, batch := d.IDSpan(), next(3)
	path := block(lo)
	ids, err := d.InsertBatch(batch)
	if err == nil || ids != nil {
		t.Fatalf("batch whose first group is refused = (%v, %v), want no ids and an error", ids, err)
	}
	if d.IDSpan() != span || d.Len() != span {
		t.Fatalf("refused batch left span %d len %d, want %d %d (map rolled back)", d.IDSpan(), d.Len(), span, span)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	ids, err = d.InsertBatch(batch)
	if err != nil || !reflect.DeepEqual(ids, []int{span, span + 1, span + 2}) {
		t.Fatalf("the same batch after the fault cleared = (%v, %v), want ids from %d", ids, err, span)
	}

	// Poison: a group lands before the refused one.
	for {
		lo, hi := shape(3)
		if lo != hi && empty(hi) {
			break
		}
		if _, err := d.Insert(next(1)[0]); err != nil {
			t.Fatal(err)
		}
	}
	_, hi := shape(3)
	span = d.IDSpan()
	block(hi)
	ids, err = d.InsertBatch(next(3))
	if err == nil || len(ids) != 3 {
		t.Fatalf("batch torn after its first group = (%v, %v), want all ids and an error", ids, err)
	}
	for _, g := range ids {
		if onRefused := index.ShardOf(g, S) == hi; (memberPoint(d, g) == nil) != onRefused {
			t.Errorf("id %d readable = %v, on the refused shard = %v", g, memberPoint(d, g) != nil, onRefused)
		}
	}
	if _, err := d.Insert(next(1)[0]); err == nil || !strings.Contains(err.Error(), "writes disabled") {
		t.Errorf("insert after a torn batch: err = %v, want writes disabled", err)
	}
	if _, err := d.Delete(0); err == nil || !strings.Contains(err.Error(), "writes disabled") {
		t.Errorf("delete after a torn batch: err = %v, want writes disabled", err)
	}
	if _, err := d.ReverseKNN(0, 2); err != nil {
		t.Errorf("query after a torn batch: %v", err)
	}
}

// TestBackendDynamicMatchesTheIndex pins that every Backend constant names
// a dynamic index: an engine on it takes Insert, InsertBatch and Delete,
// unsharded and sharded, and on the exact back-ends still answers the oracle
// over what the writes left. (internal/server's TestClusterByteIdentity
// holds the networked topologies to the same.)
func TestBackendDynamicMatchesTheIndex(t *testing.T) {
	pts := indextest.RandPoints(60, 3, 5)
	extra := indextest.RandPoints(4, 3, 6)
	for _, b := range []Backend{BackendCoverTree, BackendScan, BackendLSH} {
		// Plain RDT at a scale past the rank cap is exhaustive, hence exact.
		opts := []Option{WithBackend(b), WithScale(200), WithPlainRDT()}
		single, err := New(pts, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := NewSharded(pts, 3, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for name, eng := range map[string]interface {
			mutableEngine
			InsertBatch(points [][]float64) ([]int, error)
		}{"Searcher": single, "ShardedSearcher S=3": sharded} {
			if id, err := eng.Insert(extra[0]); err != nil || id != 60 {
				t.Fatalf("%s on %s: Insert = (%d, %v), want id 60", name, b, id, err)
			}
			if ids, err := eng.InsertBatch(extra[1:]); err != nil || !reflect.DeepEqual(ids, []int{61, 62, 63}) {
				t.Fatalf("%s on %s: InsertBatch = (%v, %v), want ids 61-63", name, b, ids, err)
			}
			for _, victim := range []int{7, 62} {
				if ok, err := eng.Delete(victim); !ok || err != nil {
					t.Fatalf("%s on %s: Delete(%d) = (%v, %v)", name, b, victim, ok, err)
				}
			}
			if eng.Len() != 62 {
				t.Errorf("%s on %s: Len = %d after the writes, want 62", name, b, eng.Len())
			}
			if b != BackendLSH {
				verifyAgainstOracle(t, eng, 64, map[int]bool{7: true, 62: true})
			}
		}
	}
}

// TestEngineNeverWritesTheCallersSlice pins that an engine holds the rows it
// is built over without writing into the caller's array, capacity past the
// slice's length included: the benchmark, for one, builds over all[:n] and
// keeps the rows it later queries and inserts further along all. A fold
// appends the inserted rows to the base back-end's ID→row table, which must
// not be the caller's array.
func TestEngineNeverWritesTheCallersSlice(t *testing.T) {
	const n, extra = 30, 5
	for _, b := range []Backend{BackendCoverTree, BackendScan, BackendLSH} {
		all := indextest.RandPoints(n+10, 3, 61)
		tail := slices.Clone(all[n:])
		s, err := New(all[:n], WithBackend(b), WithScale(8))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range indextest.RandPoints(extra, 3, 62) {
			if _, err := s.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		s.compactNow()
		if s.Compactions() == 0 || s.MemtableLen() != 0 {
			t.Fatalf("%s: compactNow left %d memtable rows after %d compactions", b, s.MemtableLen(), s.Compactions())
		}
		for i, p := range all[n:] {
			if &p[0] != &tail[i][0] {
				t.Errorf("%s: the caller's all[%d], past the slice the engine was built over, now holds %v", b, n+i, p)
			}
		}
	}
}
