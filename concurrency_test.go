// Concurrency tests for the snapshot-based Searcher. These are meaningful
// under the ordinary runner but are written for `go test -race`: queries on
// many goroutines race inserts and deletes on another, which the
// copy-on-write snapshot swap must make both data-race-free and
// semantically consistent (every query sees one frozen generation).
package repro

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/dataset"
	"repro/internal/indextest"
)

// TestConcurrentQueriesDuringUpdates runs 8 query goroutines (member,
// point, stats, and forward-kNN queries) against a writer goroutine doing
// 40 inserts and 20 deletes on each dynamic back-end.
func TestConcurrentQueriesDuringUpdates(t *testing.T) {
	for _, b := range []Backend{BackendCoverTree, BackendScan} {
		b := b
		t.Run(string(b), func(t *testing.T) {
			pts := indextest.RandPoints(300, 3, 31)
			s, err := New(pts, WithBackend(b), WithScale(8))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			var writerDone atomic.Bool
			var wg sync.WaitGroup
			const readers = 8
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					q := []float64{0.3, 0.6, float64(g) / readers}
					for i := 0; ; i++ {
						if writerDone.Load() && i >= 50 {
							return
						}
						// ErrDeleted is the expected outcome of losing a
						// race with the writer's Delete; anything else is
						// a failure.
						ids, err := s.ReverseKNN((g*37+i)%300, 5)
						if err != nil && !errors.Is(err, ErrDeleted) {
							t.Errorf("reader %d: ReverseKNN: %v", g, err)
							return
						}
						for _, id := range ids {
							if id < 0 {
								t.Errorf("reader %d: negative id %d", g, id)
								return
							}
						}
						if _, err := s.ReverseKNNPoint(q, 3); err != nil {
							t.Errorf("reader %d: ReverseKNNPoint: %v", g, err)
							return
						}
						if _, _, err := s.ReverseKNNStats(i%300, 4); err != nil && !errors.Is(err, ErrDeleted) {
							t.Errorf("reader %d: ReverseKNNStats: %v", g, err)
							return
						}
						if _, err := s.KNN(q, 5); err != nil {
							t.Errorf("reader %d: KNN: %v", g, err)
							return
						}
					}
				}(g)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer writerDone.Store(true)
				extra := indextest.RandPoints(40, 3, 32)
				for i, p := range extra {
					if _, err := s.Insert(p); err != nil {
						t.Errorf("writer: Insert: %v", err)
						return
					}
					if i%2 == 0 {
						if _, err := s.Delete(i * 7 % 300); err != nil {
							t.Errorf("writer: Delete: %v", err)
							return
						}
					}
				}
			}()
			wg.Wait()
			if s.Len() != 300+40-20 {
				t.Errorf("Len after updates = %d, want %d", s.Len(), 300+40-20)
			}
		})
	}
}

// TestConcurrentEnginesAnswerTheOracle is the cursor lifecycle seen from the
// facade: readers alternate between two engines of different size, dimension
// and metric — so a cursor the back-end recycles on Close is reopened on the
// other engine's index as often as on its own — while a writer inserts into
// and deletes from both and compaction swaps their base indexes. The engines
// run plain RDT at a scale that exhausts the dataset, so every answer is
// exact over the snapshot it ran on: it must equal the brute-force oracle at
// one of the generations the engine went through while the query ran.
func TestConcurrentEnginesAnswerTheOracle(t *testing.T) {
	const k, writes = 4, 18
	queryIDs := []int{0, 11, 37, 58, 83, 101} // never deleted
	for _, b := range []Backend{BackendCoverTree, BackendScan} {
		b := b
		t.Run(string(b), func(t *testing.T) {
			type engine struct {
				s             *Searcher
				want          [writes + 1][][]int // want[g][i]: the oracle's RkNN(queryIDs[i]) after g writes
				started, done atomic.Int64        // writes begun, writes finished
				apply         [writes]func() error
			}
			var engines [2]*engine
			for e, shape := range []struct {
				n, dim int
				metric Metric
			}{{240, 8, Euclidean}, {120, 53, Manhattan}} {
				pts := indextest.RandPoints(shape.n, shape.dim, int64(61+e))
				extra := indextest.RandPoints(writes, shape.dim, int64(63+e))
				s, err := New(pts, WithBackend(b), WithMetric(shape.metric), WithScale(200), WithPlainRDT(), WithCompactionThreshold(5))
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				eng := &engine{s: s}
				live := map[int][]float64{}
				for id, p := range pts {
					live[id] = p
				}
				span := len(pts)
				for g := 0; ; g++ {
					// The oracle numbers the live points densely; map back.
					var oraclePts [][]float64
					var engineID []int
					oracleID := map[int]int{}
					for id := 0; id < span; id++ {
						if p, ok := live[id]; ok {
							oracleID[id] = len(oraclePts)
							oraclePts, engineID = append(oraclePts, p), append(engineID, id)
						}
					}
					truth, err := bruteforce.New(oraclePts, shape.metric)
					if err != nil {
						t.Fatal(err)
					}
					for _, qid := range queryIDs {
						ids, err := truth.RkNNByID(oracleID[qid], k)
						if err != nil {
							t.Fatal(err)
						}
						for i := range ids {
							ids[i] = engineID[ids[i]]
						}
						eng.want[g] = append(eng.want[g], ids)
					}
					if g == writes {
						break
					}
					if g%3 == 2 { // delete a point no reader asks about
						victim := 5 + g
						delete(live, victim)
						eng.apply[g] = func() error { _, err := s.Delete(victim); return err }
					} else {
						p := extra[g]
						live[span] = p
						span++
						eng.apply[g] = func() error { _, err := s.Insert(p); return err }
					}
				}
				engines[e] = eng
			}

			var queries atomic.Int64
			var writerDone atomic.Bool
			var wg sync.WaitGroup
			for r := 0; r < 6; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; !writerDone.Load() || i < 24; i++ {
						eng := engines[(r+i)%2]
						qi := (r*7 + i) % len(queryIDs)
						lo := eng.done.Load()
						got, err := eng.s.ReverseKNN(queryIDs[qi], k)
						hi := eng.started.Load()
						queries.Add(1)
						if err != nil {
							t.Errorf("reader %d: ReverseKNN(%d): %v", r, queryIDs[qi], err)
							return
						}
						matched := false
						for g := lo; g <= hi && !matched; g++ {
							matched = sameIDs(got, eng.want[g][qi])
						}
						if !matched {
							t.Errorf("reader %d: engine %d ReverseKNN(%d, %d) = %v matches the oracle at no generation in [%d, %d] (oracle there: %v … %v)",
								r, (r+i)%2, queryIDs[qi], k, got, lo, hi, eng.want[lo][qi], eng.want[hi][qi])
							return
						}
					}
				}(r)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer writerDone.Store(true)
				for g := 0; g < writes; g++ {
					for _, eng := range engines {
						// Let the readers in between two writes, on the
						// event rather than on a clock.
						for seen := queries.Load(); queries.Load() < seen+4 && !t.Failed(); {
							runtime.Gosched()
						}
						eng.started.Add(1)
						if err := eng.apply[g](); err != nil {
							t.Errorf("writer: write %d: %v", g, err)
							return
						}
						eng.done.Add(1)
					}
				}
			}()
			wg.Wait()
		})
	}
}

// TestConcurrentBatchDuringUpdates races BatchReverseKNN calls against the
// writer; each batch must be internally consistent because it runs on one
// snapshot.
func TestConcurrentBatchDuringUpdates(t *testing.T) {
	pts := indextest.RandPoints(250, 3, 41)
	s, err := New(pts, WithScale(8))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	qids := make([]int, 60)
	for i := range qids {
		qids[i] = i * 4
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := s.BatchReverseKNN(qids, 5, 3)
				if err != nil {
					t.Errorf("BatchReverseKNN: %v", err)
					return
				}
				if len(res) != len(qids) {
					t.Errorf("batch returned %d results, want %d", len(res), len(qids))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range indextest.RandPoints(30, 3, 42) {
			if _, err := s.Insert(p); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestBatchCancellation covers both cancellation shapes: a context
// cancelled before dispatch must abort without running anything, and one
// cancelled mid-flight must stop the pool promptly with ctx's error.
func TestBatchCancellation(t *testing.T) {
	pts := indextest.RandPoints(2000, 8, 51)
	s, err := New(pts, WithScale(12))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	qids := make([]int, 2000)
	for i := range qids {
		qids[i] = i
	}

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.BatchReverseKNNContext(ctx, qids, 10, 2); !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("mid-flight", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := s.BatchReverseKNNContext(ctx, qids, 10, 2)
		elapsed := time.Since(start)
		// The batch either finished before the cancel landed (fast
		// machine) or must report the cancellation; it must never hang
		// until all 2000 queries are done after a 2ms cancel.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled or nil", err)
		}
		if err == nil && elapsed > 10*time.Second {
			t.Errorf("batch ignored cancellation and ran %v", elapsed)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		_, err := s.BatchReverseKNNContext(ctx, qids, 10, 1)
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want context.DeadlineExceeded or nil", err)
		}
	})
}

// TestSnapshotIsolation pins the semantic heart of copy-on-write: results
// computed before an update are unaffected by it, and a deleted point
// disappears from subsequent results only.
func TestSnapshotIsolation(t *testing.T) {
	pts := indextest.RandPoints(120, 2, 61)
	s, err := New(pts, WithScale(100), WithPlainRDT())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	before, err := s.ReverseKNN(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("query 10 has no reverse neighbors; pick another seed")
	}
	victim := before[0]
	if ok, err := s.Delete(victim); !ok || err != nil {
		t.Fatalf("Delete(%d) = (%v, %v)", victim, ok, err)
	}
	after, err := s.ReverseKNN(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range after {
		if id == victim {
			t.Errorf("deleted point %d still in results %v", victim, after)
		}
	}
}

// TestShardedConcurrentQueriesDuringUpdates races 8 query goroutines
// (member, point, stats, and forward-kNN queries) against a writer doing
// inserts and deletes across the shards of each dynamic back-end. Per-shard
// snapshots plus the map-before-snapshot publication order must keep every
// read consistent; losing a race with Delete may surface only as ErrDeleted.
func TestShardedConcurrentQueriesDuringUpdates(t *testing.T) {
	for _, b := range []Backend{BackendCoverTree, BackendScan} {
		b := b
		t.Run(string(b), func(t *testing.T) {
			pts := indextest.RandPoints(300, 3, 71)
			ss, err := NewSharded(pts, 3, WithBackend(b), WithScale(8))
			if err != nil {
				t.Fatalf("NewSharded: %v", err)
			}
			var writerDone atomic.Bool
			var wg sync.WaitGroup
			const readers = 8
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					q := []float64{0.3, 0.6, float64(g) / readers}
					for i := 0; ; i++ {
						if writerDone.Load() && i >= 40 {
							return
						}
						ids, err := ss.ReverseKNN((g*37+i)%300, 5)
						if err != nil && !errors.Is(err, ErrDeleted) {
							t.Errorf("reader %d: ReverseKNN: %v", g, err)
							return
						}
						for _, id := range ids {
							if id < 0 {
								t.Errorf("reader %d: negative id %d", g, id)
								return
							}
						}
						if _, err := ss.ReverseKNNPoint(q, 3); err != nil {
							t.Errorf("reader %d: ReverseKNNPoint: %v", g, err)
							return
						}
						if _, _, err := ss.ReverseKNNStats(i%300, 4); err != nil && !errors.Is(err, ErrDeleted) {
							t.Errorf("reader %d: ReverseKNNStats: %v", g, err)
							return
						}
						if _, err := ss.KNN(q, 5); err != nil {
							t.Errorf("reader %d: KNN: %v", g, err)
							return
						}
					}
				}(g)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer writerDone.Store(true)
				extra := indextest.RandPoints(40, 3, 72)
				for i, p := range extra {
					if _, err := ss.Insert(p); err != nil {
						t.Errorf("writer: Insert: %v", err)
						return
					}
					if i%2 == 0 {
						if _, err := ss.Delete(i * 7 % 300); err != nil {
							t.Errorf("writer: Delete: %v", err)
							return
						}
					}
				}
			}()
			wg.Wait()
			if ss.Len() != 300+40-20 {
				t.Errorf("Len after updates = %d, want %d", ss.Len(), 300+40-20)
			}
			// Every shard's final snapshot must still verify against the
			// oracle: the exactness bar survives the race.
			total := 0
			for _, si := range ss.ShardStats() {
				if si.Points < 0 {
					t.Errorf("shard %d reports %d points", si.Shard, si.Points)
				}
				total += si.Points
			}
			if total != ss.Len() {
				t.Errorf("shard stats sum to %d points, Len says %d", total, ss.Len())
			}
		})
	}
}

// TestShardedConcurrentBatchDuringUpdates races sharded batch queries
// against a writer; each batch runs on one pinned set of shard snapshots
// and must return a full, internally consistent result set.
func TestShardedConcurrentBatchDuringUpdates(t *testing.T) {
	pts := indextest.RandPoints(250, 3, 73)
	ss, err := NewSharded(pts, 3, WithScale(8))
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	qids := make([]int, 60)
	for i := range qids {
		qids[i] = i*4 + 1
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res, err := ss.BatchReverseKNN(qids, 5, 3)
				if err != nil && !errors.Is(err, ErrDeleted) {
					t.Errorf("BatchReverseKNN: %v", err)
					return
				}
				if err == nil && len(res) != len(qids) {
					t.Errorf("batch returned %d results, want %d", len(res), len(qids))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range indextest.RandPoints(30, 3, 74) {
			if _, err := ss.Insert(p); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestShardedBatchCancellation cancels a sharded batch before and during
// flight; afterwards every shard snapshot must remain fully usable — the
// cancelled scatter may not leave any shard state behind.
func TestShardedBatchCancellation(t *testing.T) {
	pts := indextest.RandPoints(1200, 8, 75)
	ss, err := NewSharded(pts, 4, WithScale(12))
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	qids := make([]int, 1200)
	for i := range qids {
		qids[i] = i
	}

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := ss.BatchReverseKNNContext(ctx, qids, 10, 2); !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("mid-flight", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		_, err := ss.BatchReverseKNNContext(ctx, qids, 10, 2)
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled or nil", err)
		}
	})

	// The engine is undamaged: updates and exact queries still work on
	// every shard.
	if _, err := ss.Insert(indextest.RandPoints(1, 8, 76)[0]); err != nil {
		t.Fatalf("Insert after cancellation: %v", err)
	}
	if _, err := ss.ReverseKNN(17, 5); err != nil {
		t.Fatalf("ReverseKNN after cancellation: %v", err)
	}
	if _, err := ss.KNN(pts[3], 5); err != nil {
		t.Fatalf("KNN after cancellation: %v", err)
	}
}

// TestShardedSnapshotIsolation pins copy-on-write semantics across shards:
// a result computed before a delete is unaffected by it, and the deleted
// point disappears from subsequent results only.
func TestShardedSnapshotIsolation(t *testing.T) {
	pts := indextest.RandPoints(120, 2, 77)
	ss, err := NewSharded(pts, 3, WithScale(100), WithPlainRDT())
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	var victim, anchor int
	found := false
	for anchor = 0; anchor < 40 && !found; anchor++ {
		before, err := ss.ReverseKNN(anchor, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(before) > 0 {
			victim = before[0]
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no anchor with reverse neighbors; pick another seed")
	}
	if ok, err := ss.Delete(victim); !ok || err != nil {
		t.Fatalf("Delete(%d) = (%v, %v)", victim, ok, err)
	}
	after, err := ss.ReverseKNN(anchor, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range after {
		if id == victim {
			t.Errorf("deleted point %d still in results %v", victim, after)
		}
	}
}

// TestShardedConcurrentDurableWrites races logged writes with queries on a
// sharded durable store, then recovers and cross-checks the final state —
// the WAL ordering under concurrency must replay to exactly the in-memory
// outcome.
func TestShardedConcurrentDurableWrites(t *testing.T) {
	dir := t.TempDir()
	pts := indextest.RandPoints(150, 3, 79)
	ss, err := NewSharded(pts, 3, WithScale(100), WithPlainRDT())
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurableSharded(dir, ss, WithWALSync(0))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := d.ReverseKNN((g*31+i)%150, 5); err != nil && !errors.Is(err, ErrDeleted) {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, p := range indextest.RandPoints(25, 3, 80) {
			if _, err := d.Insert(p); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
			if i%5 == 4 {
				if err := d.Snapshot(); err != nil {
					t.Errorf("Snapshot: %v", err)
					return
				}
			}
			if i%3 == 0 {
				if _, err := d.Delete(i * 11 % 150); err != nil {
					t.Errorf("Delete: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()

	want := map[int][]int{}
	for qid := 0; qid < 175; qid += 6 {
		if ids, err := d.ReverseKNN(qid, 5); err == nil {
			want[qid] = ids
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	defer re.Close()
	for qid, ids := range want {
		got, err := re.ReverseKNN(qid, 5)
		if err != nil {
			t.Fatalf("recovered ReverseKNN(%d): %v", qid, err)
		}
		if !sameIDs(got, ids) {
			t.Errorf("recovered ReverseKNN(%d) = %v, pre-close %v", qid, got, ids)
		}
	}
}

// BenchmarkBatchReverseKNN measures batch throughput as the worker pool
// widens — the scaling evidence for the worker-pool rework (numbers are
// recorded in CHANGES.md).
func BenchmarkBatchReverseKNN(b *testing.B) {
	data := dataset.FCT(2000, 1)
	s, err := New(data.Points, WithScale(6))
	if err != nil {
		b.Fatal(err)
	}
	qids := make([]int, 256)
	for i := range qids {
		qids[i] = (i * 7) % data.Len()
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.BatchReverseKNN(qids, 10, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(qids))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// TestShardedRecycledReadSets races member queries against inserts and
// deletes on a ShardedSearcher whose queries share one pinned read set
// between publications and recycle their federated index and streams. Every
// answer must be the exact answer over the read set its query pinned — one
// consistent set of shard snapshots under one map, whatever the writer did
// meanwhile — and nothing recycled may keep a row, snapshot, shard or
// context once its query has returned.
func TestShardedRecycledReadSets(t *testing.T) {
	const n, k = 240, 5
	pts := indextest.RandPoints(n, 3, 91)
	ss, err := NewSharded(pts, 3, WithScale(100), WithPlainRDT()) // exact at this t
	if err != nil {
		t.Fatal(err)
	}
	// exact is the brute-force answer over the points rs holds, and whether
	// it holds qid.
	exact := func(rs *scatterSet, qid int) ([]int, bool) {
		rows := make([][]float64, rs.m.Len())
		for _, c := range rs.clients {
			ix := c.shardClient.(*snapshot).ix
			for l := range ix.IDSpan() {
				if g, ok := rs.m.Global(c.shard, l); ok {
					rows[g] = livePoint(ix, l)
				}
			}
		}
		if rows[qid] == nil {
			return nil, false
		}
		live := func(id int) bool { return rows[id] != nil }
		return bruteforce.ReverseKNN(rows, live, Euclidean.Distance, rows[qid], qid, k), true
	}
	cleared := func(who string) {
		f := ss.feds.Get().(*fedIndex)
		defer ss.feds.Put(f)
		if f.sc != nil || f.ctx != nil || f.q != nil || f.err != nil || f.qid != 0 || f.home != 0 || f.homeLocal != 0 || len(f.heads) != 0 {
			t.Errorf("%s: a pooled federation still holds its query: %+v", who, *f)
		}
		for _, h := range f.heads[:cap(f.heads)] {
			if h != (fedHead{}) {
				t.Errorf("%s: a pooled federation's head still holds %+v", who, h)
			}
		}
		s := localStreams.Get().(*localStream)
		defer localStreams.Put(s)
		if *s != (localStream{}) {
			t.Errorf("%s: a pooled stream still holds its cursor or snapshot", who)
		}
	}
	var readers, writer sync.WaitGroup
	// The writer writes once per query some reader starts, so writes keep
	// landing while the queries run.
	stop, tick := make(chan struct{}), make(chan struct{}, 1)
	for g := range 4 {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := range 40 {
				select {
				case tick <- struct{}{}:
				default:
				}
				rs := ss.pin(nil).(*scatterSet)
				qid := (g*53 + i*7) % rs.m.Len()
				ids, _, _, err := rs.reverseKNN(context.Background(), qid, nil, k)
				want, live := exact(rs, qid)
				switch {
				case !live && errors.Is(err, ErrDeleted):
				case !live:
					t.Errorf("reader %d: query %d answered %v, %v; its read set holds no such point", g, qid, ids, err)
					return
				case err != nil:
					t.Errorf("reader %d: query %d: %v", g, qid, err)
					return
				case !sameIDs(ids, want):
					t.Errorf("reader %d: query %d answers %v over its read set, brute force %v", g, qid, ids, want)
					return
				}
				if _, err := ss.ReverseKNN(qid, k); err != nil && !errors.Is(err, ErrDeleted) {
					t.Errorf("reader %d: ReverseKNN(%d): %v", g, qid, err)
					return
				}
				cleared(fmt.Sprintf("reader %d", g))
			}
		}(g)
	}
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i, p := range indextest.RandPoints(200, 3, 92) {
			select {
			case <-stop:
				return
			case <-tick:
			}
			if _, err := ss.Insert(p); err != nil {
				t.Errorf("writer: Insert: %v", err)
				return
			}
			if i%3 == 0 {
				if _, err := ss.Delete(i * 11 % n); err != nil {
					t.Errorf("writer: Delete: %v", err)
					return
				}
			}
		}
	}()
	readers.Wait()
	close(stop)
	writer.Wait()
	cleared("after the race")
	// Once the writes stop, every pin shares the read set of the final state.
	rs := ss.pin(nil).(*scatterSet)
	if again := ss.pin(nil).(*scatterSet); again != rs || !rs.current(&ss.shardedCore) || rs.n != ss.Len() {
		t.Errorf("pins after the writes: %p and %p (current %v), %d live points; want one read set of all %d", rs, again, rs.current(&ss.shardedCore), rs.n, ss.Len())
	}
}
