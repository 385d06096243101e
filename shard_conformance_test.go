// Metamorphic conformance for the sharded engine: over randomized
// datasets, metrics, and ranks, the answer to any RkNN/kNN query must be
// byte-identical across shard counts S ∈ {1, 2, 3, 7} and equal to the
// brute-force oracle where the scale parameter makes the algorithm exact.
// The suite holds this bar through interleaved Insert/Delete mutations and
// through a durable save/load round-trip of every shard (including a
// simulated crash leaving a torn WAL tail on one shard). Where the scale
// parameter is starved and no answer is exact, the bar is the stronger one
// the merged-stream design makes possible: answer AND work counters equal
// the unsharded engine's (TestShardedStarvedScaleIdentity).
package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/indextest"
)

var shardCounts = []int{1, 2, 3, 7}

// knnOracle is the exact forward-kNN reference under the (distance, ID)
// total order the sharded merge guarantees.
func knnOracle(pts [][]float64, metric Metric, q []float64, k int) []Neighbor {
	all := make([]Neighbor, 0, len(pts))
	for id, p := range pts {
		all = append(all, Neighbor{ID: id, Dist: metric.Distance(q, p)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

func sameNeighborLists(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedMetamorphicConformance pins query results across shard counts
// and against the oracle on freshly built engines, for several datasets,
// metrics, and back-ends. The pinned scale t=200 with plain RDT makes each
// per-shard search exhaustive, so results must be exact everywhere.
func TestShardedMetamorphicConformance(t *testing.T) {
	workloads := []struct {
		name     string
		pts      [][]float64
		metric   Metric
		backends []Backend
	}{
		{"uniform-4d/euclidean", indextest.RandPoints(240, 4, 11), Euclidean, []Backend{BackendCoverTree, BackendScan}},
		{"clustered-6d/manhattan", indextest.ClusteredPoints(200, 6, 5, 12), Manhattan, []Backend{BackendCoverTree, BackendScan}},
		{"uniform-3d/chebyshev", indextest.RandPoints(160, 3, 13), Chebyshev, []Backend{BackendScan}},
	}
	ks := []int{1, 5, 10}
	for _, w := range workloads {
		truth, err := bruteforce.New(w.pts, w.metric)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range w.backends {
			w, b := w, b
			t.Run(w.name+"/"+string(b), func(t *testing.T) {
				// base[S==first] results keyed by query, for cross-S equality.
				type key struct {
					k, qid int // qid -1 encodes the point query
				}
				base := map[key][]int{}
				baseKNN := map[int][]Neighbor{}
				for si, S := range shardCounts {
					ss, err := NewSharded(w.pts, S, WithBackend(b), WithMetric(w.metric), WithScale(200), WithPlainRDT())
					if err != nil {
						t.Fatalf("NewSharded(S=%d): %v", S, err)
					}
					if ss.Len() != len(w.pts) {
						t.Fatalf("S=%d: Len = %d, want %d", S, ss.Len(), len(w.pts))
					}
					for _, k := range ks {
						for qid := 0; qid < len(w.pts); qid += 13 {
							got, err := ss.ReverseKNN(qid, k)
							if err != nil {
								t.Fatalf("S=%d: ReverseKNN(%d,%d): %v", S, qid, k, err)
							}
							want, err := truth.RkNNByID(qid, k)
							if err != nil {
								t.Fatal(err)
							}
							if !sameIDs(got, want) {
								t.Errorf("S=%d: ReverseKNN(%d,%d) = %v, oracle %v", S, qid, k, got, want)
							}
							if si == 0 {
								base[key{k, qid}] = got
							} else if !sameIDs(got, base[key{k, qid}]) {
								t.Errorf("shard-count metamorphism broken: S=%d ReverseKNN(%d,%d) = %v, S=%d gave %v",
									S, qid, k, got, shardCounts[0], base[key{k, qid}])
							}
						}
						q := indextest.RandPoints(1, len(w.pts[0]), int64(300+k))[0]
						got, err := ss.ReverseKNNPoint(q, k)
						if err != nil {
							t.Fatalf("S=%d: ReverseKNNPoint(k=%d): %v", S, k, err)
						}
						want, err := truth.RkNN(q, k)
						if err != nil {
							t.Fatal(err)
						}
						if !sameIDs(got, want) {
							t.Errorf("S=%d: ReverseKNNPoint(k=%d) = %v, oracle %v", S, k, got, want)
						}
						if si == 0 {
							base[key{k, -1}] = got
						} else if !sameIDs(got, base[key{k, -1}]) {
							t.Errorf("S=%d: ReverseKNNPoint(k=%d) diverged across shard counts", S, k)
						}

						nn, err := ss.KNN(q, k)
						if err != nil {
							t.Fatalf("S=%d: KNN(k=%d): %v", S, k, err)
						}
						if wantNN := knnOracle(w.pts, w.metric, q, k); !sameNeighborLists(nn, wantNN) {
							t.Errorf("S=%d: KNN(k=%d) = %v, oracle %v", S, k, nn, wantNN)
						}
						if si == 0 {
							baseKNN[k] = nn
						} else if !sameNeighborLists(nn, baseKNN[k]) {
							t.Errorf("S=%d: KNN(k=%d) diverged across shard counts", S, k)
						}
					}
				}
			})
		}
	}
}

// identityVariants are the algorithm variants the topology-identity test
// covers. The fixed scale t=1 is starved — the scan stops at rank ⌊2k⌋, far
// short of an exact answer; the adaptive scale picks its own t per query.
var identityVariants = []struct {
	name    string
	starved bool
	opts    []Option
}{
	{"rdt+/t=1", true, []Option{WithScale(1)}},
	{"rdt/t=1", true, []Option{WithScale(1), WithPlainRDT()}},
	{"rdt+/adaptive", false, []Option{WithAdaptiveScale()}},
	{"rdt/adaptive", false, []Option{WithAdaptiveScale(), WithPlainRDT()}},
}

// TestShardedStarvedScaleIdentity is the statement the old
// superset-and-reverify scatter could not make: at a deliberately starved
// scale parameter — recall below 1, the regime where the answer depends on
// every step of the scan — a ShardedSearcher over S ∈ {2, 3, 5} shards
// returns the unsharded Searcher's answer and its work counters (scan depth,
// filter size, verifications, witness distance computations, ω — every
// field), for every exact back-end, RDT and RDT+, fixed and adaptive scale,
// member and point queries. It can, because it runs the same algorithm over
// the same neighbor stream.
func TestShardedStarvedScaleIdentity(t *testing.T) {
	pts := indextest.ClusteredPoints(400, 5, 6, 31)
	truth, err := bruteforce.New(pts, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	const k = 6
	external := indextest.RandPoints(4, 5, 32)
	for _, b := range allBackends {
		for _, v := range identityVariants {
			t.Run(string(b)+"/"+v.name, func(t *testing.T) {
				opts := append([]Option{WithBackend(b)}, v.opts...)
				single, err := New(pts, opts...)
				if err != nil {
					t.Fatal(err)
				}
				type answer struct {
					ids []int
					st  Stats
				}
				var want []answer
				missed := 0
				for qid := 0; qid < len(pts); qid += 9 {
					ids, st, err := single.ReverseKNNStats(qid, k)
					if err != nil {
						t.Fatal(err)
					}
					exact, err := truth.RkNNByID(qid, k)
					if err != nil {
						t.Fatal(err)
					}
					if !sameIDs(ids, exact) {
						missed++
					}
					want = append(want, answer{ids, st})
				}
				for _, q := range external {
					ids, st, err := single.ReverseKNNPointStats(q, k)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, answer{ids, st})
				}
				if v.starved && missed == 0 {
					t.Fatal("every unsharded answer is exact: the scale parameter is not starved, and the test proves nothing the oracle suites do not")
				}
				for _, S := range []int{2, 3, 5} {
					ss, err := NewSharded(pts, S, opts...)
					if err != nil {
						t.Fatal(err)
					}
					i := 0
					check := func(what string, ids []int, st Stats, err error) {
						t.Helper()
						if err != nil {
							t.Fatalf("S=%d %s: %v", S, what, err)
						}
						if !sameIDs(ids, want[i].ids) || st != want[i].st {
							t.Errorf("S=%d %s = (%v, %+v), unsharded (%v, %+v)", S, what, ids, st, want[i].ids, want[i].st)
						}
						i++
					}
					for qid := 0; qid < len(pts); qid += 9 {
						ids, st, err := ss.ReverseKNNStats(qid, k)
						check(fmt.Sprintf("member %d", qid), ids, st, err)
					}
					for j, q := range external {
						ids, st, err := ss.ReverseKNNPointStats(q, k)
						check(fmt.Sprintf("point %d", j), ids, st, err)
					}
				}
			})
		}
	}
}

// mutationScript applies the same interleaved insert/delete sequence to
// any engine with the Searcher-style mutation surface and returns the
// surviving (global id -> point) state for oracle construction.
type mutableEngine interface {
	Insert(p []float64) (int, error)
	Delete(id int) (bool, error)
	Point(id int) []float64
	ReverseKNN(qid, k int) ([]int, error)
	Len() int
}

func applyMutationScript(t *testing.T, eng mutableEngine, n0 int, extra [][]float64) (deleted map[int]bool) {
	t.Helper()
	deleted = map[int]bool{}
	del := []int{3, 17, 40, n0 - 1, 77, n0 + 4, n0 + 11}
	for i, p := range extra {
		id, err := eng.Insert(p)
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		if id != n0+i {
			t.Fatalf("Insert %d assigned global id %d, want %d", i, id, n0+i)
		}
		// Interleave deletions between inserts (only of IDs that exist yet).
		if i < len(del) && i%2 == 1 && del[i] <= n0+i {
			victim := del[i]
			if ok, err := eng.Delete(victim); !ok || err != nil {
				t.Fatalf("Delete(%d) = (%v, %v)", victim, ok, err)
			}
			deleted[victim] = true
		}
	}
	for _, victim := range del {
		if deleted[victim] {
			continue
		}
		if ok, err := eng.Delete(victim); !ok || err != nil {
			t.Fatalf("Delete(%d) = (%v, %v)", victim, ok, err)
		}
		deleted[victim] = true
	}
	// Deleting again must report absence, not error.
	if ok, err := eng.Delete(del[0]); ok || err != nil {
		t.Fatalf("re-Delete(%d) = (%v, %v), want (false, nil)", del[0], ok, err)
	}
	return deleted
}

// oracleCheck compares member queries of an engine against a brute-force
// oracle over the surviving points, mapping oracle IDs back to the
// engine's stable global numbering.
func oracleCheck(t *testing.T, eng mutableEngine, metric Metric, span int, deleted map[int]bool, k int, label string) {
	t.Helper()
	var oraclePts [][]float64
	var toEngine []int
	for id := 0; id < span; id++ {
		if deleted[id] {
			continue
		}
		oraclePts = append(oraclePts, eng.Point(id))
		toEngine = append(toEngine, id)
	}
	truth, err := bruteforce.New(oraclePts, metric)
	if err != nil {
		t.Fatal(err)
	}
	for id := range deleted {
		if _, err := eng.ReverseKNN(id, k); err == nil {
			t.Errorf("%s: deleted member %d still answers", label, id)
		}
	}
	for oid, eid := range toEngine {
		if oid%9 != 0 && eid < span-10 {
			continue
		}
		got, err := eng.ReverseKNN(eid, k)
		if err != nil {
			t.Fatalf("%s: ReverseKNN(%d,%d): %v", label, eid, k, err)
		}
		wantOracle, err := truth.RkNNByID(oid, k)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, len(wantOracle))
		for i, o := range wantOracle {
			want[i] = toEngine[o]
		}
		if !sameIDs(got, want) {
			t.Errorf("%s: ReverseKNN(%d,%d) = %v, oracle %v", label, eid, k, got, want)
		}
	}
}

// TestShardedConformanceAfterMutations replays one interleaved
// insert/delete script on every shard count (and on a plain Searcher) and
// requires byte-identical results plus oracle equality afterwards — global
// IDs are stable and identical regardless of partitioning.
func TestShardedConformanceAfterMutations(t *testing.T) {
	for _, b := range []Backend{BackendCoverTree, BackendScan} {
		b := b
		t.Run(string(b), func(t *testing.T) {
			pts := indextest.RandPoints(150, 3, 21)
			extra := indextest.RandPoints(30, 3, 22)
			span := len(pts) + len(extra)

			var base map[int][]int
			for si, S := range shardCounts {
				ss, err := NewSharded(pts, S, WithBackend(b), WithScale(200), WithPlainRDT())
				if err != nil {
					t.Fatalf("NewSharded(S=%d): %v", S, err)
				}
				deleted := applyMutationScript(t, ss, len(pts), extra)
				if want := span - len(deleted); ss.Len() != want {
					t.Errorf("S=%d: Len after mutations = %d, want %d", S, ss.Len(), want)
				}
				oracleCheck(t, ss, Euclidean, span, deleted, 5, fmt.Sprintf("S=%d", S))

				results := map[int][]int{}
				for qid := 0; qid < span; qid += 7 {
					ids, err := ss.ReverseKNN(qid, 5)
					if err != nil {
						continue // deleted members settled by oracleCheck
					}
					results[qid] = ids
				}
				if si == 0 {
					base = results
				} else if !reflect.DeepEqual(results, base) {
					t.Errorf("S=%d: post-mutation results diverged from S=%d", S, shardCounts[0])
				}
			}

			// The plain Searcher under the same script agrees too: sharding
			// is invisible at every shard count including against S=absent.
			s, err := New(pts, WithBackend(b), WithScale(200), WithPlainRDT())
			if err != nil {
				t.Fatal(err)
			}
			deleted := applyMutationScript(t, s, len(pts), extra)
			for qid, want := range base {
				if deleted[qid] {
					continue
				}
				got, err := s.ReverseKNN(qid, 5)
				if err != nil {
					t.Fatalf("Searcher.ReverseKNN(%d): %v", qid, err)
				}
				if !sameIDs(got, want) {
					t.Errorf("unsharded ReverseKNN(%d) = %v, sharded engines gave %v", qid, got, want)
				}
			}
		})
	}
}

// TestShardedConformanceAfterRecovery is the durability leg of the
// metamorphic suite: for every shard count, a sharded store that absorbed
// interleaved writes (some snapshotted, some only in per-shard WALs),
// was closed, and then suffered a torn-tail scribble on one shard's log
// must recover byte-identically — equal to the pre-shutdown engine, to
// every other shard count, and to the brute-force oracle.
func TestShardedConformanceAfterRecovery(t *testing.T) {
	for _, b := range []Backend{BackendCoverTree, BackendScan} {
		b := b
		t.Run(string(b), func(t *testing.T) {
			pts := indextest.RandPoints(140, 3, 31)
			extra := indextest.RandPoints(24, 3, 32)
			span := len(pts) + len(extra)

			var base map[int][]int
			for si, S := range shardCounts {
				dir := t.TempDir()
				ss, err := NewSharded(pts, S, WithBackend(b), WithScale(200), WithPlainRDT())
				if err != nil {
					t.Fatalf("NewSharded(S=%d): %v", S, err)
				}
				d, err := NewDurableSharded(dir, ss)
				if err != nil {
					t.Fatalf("NewDurableSharded(S=%d): %v", S, err)
				}
				// Half the writes land before a snapshot cut (into the next
				// generation's base), half live only in the shard WALs.
				for _, p := range extra[:12] {
					if _, err := d.Insert(p); err != nil {
						t.Fatal(err)
					}
				}
				deleted := map[int]bool{}
				for _, id := range []int{7, 19} {
					if ok, err := d.Delete(id); !ok || err != nil {
						t.Fatalf("Delete(%d) = (%v, %v)", id, ok, err)
					}
					deleted[id] = true
				}
				if err := d.Snapshot(); err != nil {
					t.Fatalf("Snapshot: %v", err)
				}
				for _, p := range extra[12:] {
					if _, err := d.Insert(p); err != nil {
						t.Fatal(err)
					}
				}
				for _, id := range []int{100, 143, len(pts) + 2} {
					if ok, err := d.Delete(id); !ok || err != nil {
						t.Fatalf("Delete(%d) = (%v, %v)", id, ok, err)
					}
					deleted[id] = true
				}
				preShutdown := map[int][]int{}
				for qid := 0; qid < span; qid += 11 {
					if ids, err := d.ReverseKNN(qid, 5); err == nil {
						preShutdown[qid] = ids
					}
				}
				if err := d.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}

				// Crash simulation: a torn half-record on one shard's log
				// tail, as a crash mid-append would leave.
				logs, err := filepath.Glob(filepath.Join(dir, "shard-*", "wal-*.log"))
				if err != nil || len(logs) == 0 {
					t.Fatalf("wal files %v, %v", logs, err)
				}
				f, err := os.OpenFile(logs[len(logs)-1], os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{41, 0, 0, 0, 9, 9, 9}); err != nil {
					t.Fatal(err)
				}
				f.Close()

				re, err := OpenSharded(dir)
				if err != nil {
					t.Fatalf("OpenSharded(S=%d): %v", S, err)
				}
				if re.Shards() != S {
					t.Errorf("recovered %d shards, want %d", re.Shards(), S)
				}
				if want := span - len(deleted); re.Len() != want {
					t.Errorf("S=%d: recovered Len = %d, want %d", S, re.Len(), want)
				}
				for qid, want := range preShutdown {
					got, err := re.ReverseKNN(qid, 5)
					if err != nil {
						t.Fatalf("S=%d: recovered ReverseKNN(%d): %v", S, qid, err)
					}
					if !sameIDs(got, want) {
						t.Errorf("S=%d: recovered ReverseKNN(%d) = %v, pre-shutdown %v", S, qid, got, want)
					}
				}
				oracleCheck(t, re, Euclidean, span, deleted, 5, fmt.Sprintf("recovered S=%d", S))
				if si == 0 {
					base = preShutdown
				} else if !reflect.DeepEqual(preShutdown, base) {
					t.Errorf("S=%d: results diverged from S=%d before shutdown", S, shardCounts[0])
				}

				// The recovered engine stays writable: one more round trip.
				if _, err := re.Insert(extra[0]); err != nil {
					t.Fatalf("post-recovery Insert: %v", err)
				}
				if err := re.Close(); err != nil {
					t.Fatalf("post-recovery Close: %v", err)
				}
			}
		})
	}
}

// TestShardedScaleMatchesUnsharded pins the estimation contract: a
// ShardedSearcher estimates the scale parameter over the full dataset, so
// it must arrive at exactly the t a plain Searcher estimates — regardless
// of the shard count — and recovery must never re-estimate.
func TestShardedScaleMatchesUnsharded(t *testing.T) {
	pts := indextest.RandPoints(180, 4, 41)
	single, err := New(pts, WithBackend(BackendScan))
	if err != nil {
		t.Fatal(err)
	}
	for _, S := range []int{1, 3} {
		ss, err := NewSharded(pts, S, WithBackend(BackendScan))
		if err != nil {
			t.Fatal(err)
		}
		if ss.Scale() != single.Scale() {
			t.Errorf("S=%d estimated t=%v, unsharded t=%v", S, ss.Scale(), single.Scale())
		}
	}

	dir := t.TempDir()
	ss, err := NewSharded(pts, 3, WithBackend(BackendCoverTree))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurableSharded(dir, ss)
	if err != nil {
		t.Fatal(err)
	}
	wantScale := ss.Scale()
	d.Close()
	before := estimateCalls.Load()
	re, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Scale() != wantScale {
		t.Errorf("recovered t=%v, want %v", re.Scale(), wantScale)
	}
	if calls := estimateCalls.Load() - before; calls != 0 {
		t.Errorf("recovery paid %d scale estimations, want 0", calls)
	}
}
