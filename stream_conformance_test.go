package repro

import (
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/indextest"
	"repro/internal/vecmath"
)

// TestInterleavedStreamConformance is the incremental-write-path
// conformance bar, shaped after the dynamic-index exemplars: one long
// interleaved stream of inserts, batch inserts, deletes and queries,
// continuously verified against a brute-force oracle over the live points —
// across memtable fills, background compactions (threshold 8 keeps the
// compactor busy), a mid-stream durable snapshot, and a hard kill (no
// Close) with recovery from snapshot + WAL. Two sharded twins (S=1 and
// S=3) consume the identical mutation stream and must answer every query
// byte-identically to the unsharded engine.
func TestInterleavedStreamConformance(t *testing.T) {
	for _, b := range []Backend{BackendCoverTree, BackendScan} {
		b := b
		t.Run(string(b), func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			dir := t.TempDir()
			base := indextest.RandPoints(80, 3, 62)
			opts := []Option{WithBackend(b), WithScale(200), WithPlainRDT(), WithCompactionThreshold(8)}

			s, err := New(base, opts...)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			d, err := NewDurable(dir, s)
			if err != nil {
				t.Fatalf("NewDurable: %v", err)
			}
			shardTwins := map[int]*ShardedSearcher{}
			for _, shards := range []int{1, 3} {
				ss, err := NewSharded(base, shards, opts...)
				if err != nil {
					t.Fatalf("NewSharded(%d): %v", shards, err)
				}
				shardTwins[shards] = ss
			}

			// The stream's ground truth: every point ever assigned, by ID,
			// plus the tombstone set.
			all := append([][]float64{}, base...)
			deleted := map[int]bool{}
			live := func() (pts [][]float64, toEngine []int) {
				for id := range all {
					if !deleted[id] {
						pts = append(pts, all[id])
						toEngine = append(toEngine, id)
					}
				}
				return
			}
			randPoint := func() []float64 {
				return []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			}
			randLive := func() int {
				for {
					id := rng.Intn(len(all))
					if !deleted[id] {
						return id
					}
				}
			}

			verify := func(step int) {
				pts, toEngine := live()
				truth, err := bruteforce.New(pts, vecmath.Euclidean{})
				if err != nil {
					t.Fatal(err)
				}
				oid := rng.Intn(len(pts))
				eid := toEngine[oid]
				k := 1 + rng.Intn(5)
				wantOracle, err := truth.RkNNByID(oid, k)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]int, len(wantOracle))
				for i, o := range wantOracle {
					want[i] = toEngine[o]
				}
				got, err := d.ReverseKNN(eid, k)
				if err != nil {
					t.Fatalf("step %d: ReverseKNN(%d, %d): %v", step, eid, k, err)
				}
				if !sameIDs(got, want) {
					t.Fatalf("step %d: ReverseKNN(%d, %d) = %v, oracle %v (memtable %d, compactions %d)",
						step, eid, k, got, want, d.MemtableLen(), d.Compactions())
				}
				for shards, ss := range shardTwins {
					sharded, err := ss.ReverseKNN(eid, k)
					if err != nil {
						t.Fatalf("step %d: S=%d ReverseKNN(%d, %d): %v", step, shards, eid, k, err)
					}
					if !sameIDs(sharded, got) {
						t.Fatalf("step %d: S=%d ReverseKNN(%d, %d) = %v, unsharded %v",
							step, shards, eid, k, sharded, got)
					}
				}
			}

			const steps = 240
			for step := 0; step < steps; step++ {
				switch {
				case step%10 == 9:
					// Bulk ingest: one batch through the amortized path.
					batch := [][]float64{randPoint(), randPoint(), randPoint()}
					ids, err := d.InsertBatch(batch)
					if err != nil {
						t.Fatalf("step %d: InsertBatch: %v", step, err)
					}
					for i, id := range ids {
						if id != len(all)+i {
							t.Fatalf("step %d: batch id %d, want %d", step, id, len(all)+i)
						}
					}
					for shards, ss := range shardTwins {
						if _, err := ss.InsertBatch(batch); err != nil {
							t.Fatalf("step %d: S=%d InsertBatch: %v", step, shards, err)
						}
					}
					all = append(all, batch...)
				case rng.Float64() < 0.25 && len(all)-len(deleted) > 20:
					id := randLive()
					if ok, err := d.Delete(id); !ok || err != nil {
						t.Fatalf("step %d: Delete(%d) = (%v, %v)", step, id, ok, err)
					}
					for shards, ss := range shardTwins {
						if ok, err := ss.Delete(id); !ok || err != nil {
							t.Fatalf("step %d: S=%d Delete(%d) = (%v, %v)", step, shards, id, ok, err)
						}
					}
					deleted[id] = true
				default:
					p := randPoint()
					id, err := d.Insert(p)
					if err != nil {
						t.Fatalf("step %d: Insert: %v", step, err)
					}
					if id != len(all) {
						t.Fatalf("step %d: insert id %d, want %d", step, id, len(all))
					}
					for shards, ss := range shardTwins {
						if _, err := ss.Insert(p); err != nil {
							t.Fatalf("step %d: S=%d Insert: %v", step, shards, err)
						}
					}
					all = append(all, p)
				}

				if step%3 == 0 {
					verify(step)
				}
				switch step {
				case 80:
					// Mid-stream snapshot: later writes live only in the WAL.
					if err := d.Snapshot(); err != nil {
						t.Fatalf("step %d: Snapshot: %v", step, err)
					}
				case 160:
					// Hard kill: no Close, then recover from snapshot + WAL.
					// The replayed inserts land in the overlay memtable; all
					// later queries run against the recovered engine.
					re, err := Open(dir)
					if err != nil {
						t.Fatalf("step %d: Open: %v", step, err)
					}
					t.Cleanup(func() { re.Close() })
					d = re
				}
			}

			if d.Len() != len(all)-len(deleted) {
				t.Errorf("final Len = %d, want %d", d.Len(), len(all)-len(deleted))
			}
			for _, ss := range shardTwins {
				if ss.Len() != d.Len() {
					t.Errorf("sharded Len = %d, want %d", ss.Len(), d.Len())
				}
			}
			if d.Compactions() == 0 && s.Compactions() == 0 {
				t.Error("stream never compacted: the threshold-8 overlay should have folded")
			}
			verifyAgainstOracle(t, d, len(all), deleted)
		})
	}
}
