// Cross-backend conformance: every forward-kNN back-end must (a) pass the
// shared index conformance suite and (b) produce RkNN results identical to
// the exact brute-force oracle when queried through the public facade with
// a scale parameter high enough to force a full expansion. This pins the
// query semantics across back-ends, so refactors of the snapshot machinery
// or of any one back-end cannot silently change results.
package repro

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/index"
	"repro/internal/indextest"
	"repro/internal/vecmath"
)

var allBackends = []Backend{BackendCoverTree, BackendScan}

// TestBackendConformance runs the internal/indextest suite over each
// back-end exactly as the facade builds them.
func TestBackendConformance(t *testing.T) {
	for _, b := range allBackends {
		b := b
		t.Run(string(b), func(t *testing.T) {
			build := func(pts [][]float64, m vecmath.Metric) (index.Index, error) {
				return harness.BuildBackend(string(b), pts, m)
			}
			indextest.Run(t, build)
			t.Run("tie-order", func(t *testing.T) { indextest.TieOrder(t, build) })
		})
	}
}

// TestBackendRkNNOracleEquivalence drives member and non-member reverse
// queries through the public API on every back-end and requires exact
// agreement with the brute-force oracle. The pinned scale t=200 makes the
// rank cap 2^t·k exceed any dataset size here, so the expanding search
// exhausts the dataset; with plain RDT (whose lazy accepts, unlike RDT+'s,
// are sound — Section 4.3) the result is then exact regardless of the
// data's intrinsic dimensionality.
func TestBackendRkNNOracleEquivalence(t *testing.T) {
	workloads := []struct {
		name string
		pts  [][]float64
	}{
		{"uniform-4d", indextest.RandPoints(250, 4, 11)},
		{"clustered-6d", indextest.ClusteredPoints(220, 6, 5, 12)},
	}
	for _, w := range workloads {
		truth, err := bruteforce.New(w.pts, vecmath.Euclidean{})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range allBackends {
			b, w := b, w
			t.Run(w.name+"/"+string(b), func(t *testing.T) {
				s, err := New(w.pts, WithBackend(b), WithScale(200), WithPlainRDT())
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				for _, k := range []int{1, 5, 10} {
					for qid := 0; qid < len(w.pts); qid += 17 {
						got, err := s.ReverseKNN(qid, k)
						if err != nil {
							t.Fatalf("ReverseKNN(%d, %d): %v", qid, k, err)
						}
						want, err := truth.RkNNByID(qid, k)
						if err != nil {
							t.Fatal(err)
						}
						if !sameIDs(got, want) {
							t.Errorf("ReverseKNN(%d, %d) = %v, oracle %v", qid, k, got, want)
						}
					}
					// Non-member query points through the same path.
					q := indextest.RandPoints(1, len(w.pts[0]), int64(97+k))[0]
					got, err := s.ReverseKNNPoint(q, k)
					if err != nil {
						t.Fatalf("ReverseKNNPoint(k=%d): %v", k, err)
					}
					want, err := truth.RkNN(q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !sameIDs(got, want) {
						t.Errorf("ReverseKNNPoint(k=%d) = %v, oracle %v", k, got, want)
					}
				}
			})
		}
	}
}

// TestBackendRkNNOracleAfterUpdates repeats the oracle comparison after a
// round of inserts and deletes on the dynamic back-ends, so the
// copy-on-write snapshot path is held to the same exactness bar as the
// build path.
func TestBackendRkNNOracleAfterUpdates(t *testing.T) {
	for _, b := range []Backend{BackendCoverTree, BackendScan} {
		b := b
		t.Run(string(b), func(t *testing.T) {
			pts := indextest.RandPoints(150, 3, 21)
			s, err := New(pts, WithBackend(b), WithScale(200), WithPlainRDT())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			extra := indextest.RandPoints(30, 3, 22)
			for _, p := range extra {
				if _, err := s.Insert(p); err != nil {
					t.Fatalf("Insert: %v", err)
				}
			}
			deleted := map[int]bool{3: true, 77: true, 149: true}
			for id := range deleted {
				if ok, err := s.Delete(id); !ok || err != nil {
					t.Fatalf("Delete(%d) = (%v, %v)", id, ok, err)
				}
			}

			// The oracle sees the surviving points only; IDs must be
			// mapped back to the engine's (stable) numbering.
			var oraclePts [][]float64
			var oracleToEngine []int
			for id := 0; id < 150+len(extra); id++ {
				if deleted[id] {
					continue
				}
				oraclePts = append(oraclePts, s.Point(id))
				oracleToEngine = append(oracleToEngine, id)
			}
			truth, err := bruteforce.New(oraclePts, vecmath.Euclidean{})
			if err != nil {
				t.Fatal(err)
			}
			// Deleted members must be rejected, not answered; live members
			// above the alive count (tombstones shrink Len() but never
			// renumber) must keep answering.
			for id := range deleted {
				if _, err := s.ReverseKNN(id, 5); err == nil {
					t.Errorf("ReverseKNN(%d, 5) answered for a deleted member", id)
				}
			}
			if _, err := s.ReverseKNN(150+len(extra)-1, 5); err != nil {
				t.Errorf("ReverseKNN on the highest live id: %v", err)
			}
			for oid, eid := range oracleToEngine {
				if oid%13 != 0 && oid != len(oracleToEngine)-1 {
					continue
				}
				got, err := s.ReverseKNN(eid, 5)
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
					t.Errorf("after updates: ReverseKNN(%d, 5) = %v, oracle %v", eid, got, want)
				}
			}
		})
	}
}

// TestLSHBackendRecallFloor is the approximate-tier conformance bar (and
// the CI recall gate): the LSH back-end at default options, driven through
// the public facade exactly as `rknn serve -backend lsh` builds it, must
// reach mean reverse-neighbor recall >= 0.9 against the brute-force oracle
// on the surrogate workloads. Measured headroom on these datasets is
// 0.95+; a drop below the floor means the hashing or the candidate
// machinery regressed, not noise.
func TestLSHBackendRecallFloor(t *testing.T) {
	workloads := []struct {
		name string
		pts  [][]float64
	}{
		{"fct-1500", dataset.FCT(1500, 1).Points},
		{"clustered-6d", indextest.ClusteredPoints(1500, 6, 8, 9)},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			s, err := New(w.pts, WithBackend(BackendLSH), WithScale(8))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if !s.Approximate() {
				t.Fatal("LSH-backed Searcher does not report Approximate")
			}
			truth, err := bruteforce.New(w.pts, vecmath.Euclidean{})
			if err != nil {
				t.Fatal(err)
			}
			var recallSum float64
			queries := 0
			for qid := 0; qid < len(w.pts); qid += 29 {
				got, err := s.ReverseKNN(qid, 10)
				if err != nil {
					t.Fatalf("ReverseKNN(%d): %v", qid, err)
				}
				want, err := truth.RkNNByID(qid, 10)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 {
					continue
				}
				recallSum += bruteforce.Recall(got, want)
				queries++
			}
			if mean := recallSum / float64(queries); mean < 0.9 {
				t.Errorf("LSH mean recall %.3f over %d queries, want >= 0.9 at default options", mean, queries)
			}
			// The facade's own sampled estimator must agree the engine is
			// above the floor — it is what the recall gauge exposes.
			est, err := s.RecallEstimate(8, 10)
			if err != nil {
				t.Fatalf("RecallEstimate: %v", err)
			}
			if est < 0.9 {
				t.Errorf("RecallEstimate = %.3f, want >= 0.9", est)
			}
		})
	}
}

// TestLSHBackendDynamicRecall holds the approximate tier to the recall bar
// after online updates: the copy-on-write clone path must preserve the
// table structure (inserted points hashed into every table, deletes
// tombstoned) or recall collapses.
func TestLSHBackendDynamicRecall(t *testing.T) {
	// Build over the first 1380 points of the FCT surrogate and stream the
	// remaining 120 in as inserts, so the updates follow the indexed
	// distribution (the width was tuned for it) like a live workload would.
	all := dataset.FCT(1500, 1).Points
	pts, extra := all[:1380], all[1380:]
	s, err := New(pts, WithBackend(BackendLSH), WithScale(8))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, p := range extra {
		if _, err := s.Insert(p); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	deleted := map[int]bool{2: true, 111: true, 1379: true, 1385: true}
	for id := range deleted {
		if ok, err := s.Delete(id); !ok || err != nil {
			t.Fatalf("Delete(%d) = (%v, %v)", id, ok, err)
		}
	}
	if _, err := s.ReverseKNN(2, 5); !errors.Is(err, ErrDeleted) {
		t.Errorf("deleted member answered: %v", err)
	}

	var survivors [][]float64
	var toEngine []int
	for id := 0; id < len(all); id++ {
		if deleted[id] {
			continue
		}
		survivors = append(survivors, s.Point(id))
		toEngine = append(toEngine, id)
	}
	truth, err := bruteforce.New(survivors, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	var recallSum float64
	queries := 0
	for oid, eid := range toEngine {
		if oid%23 != 0 {
			continue
		}
		got, err := s.ReverseKNN(eid, 10)
		if err != nil {
			t.Fatalf("ReverseKNN(%d): %v", eid, err)
		}
		wantOracle, err := truth.RkNNByID(oid, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantOracle) == 0 {
			continue
		}
		want := make([]int, len(wantOracle))
		for i, o := range wantOracle {
			want[i] = toEngine[o]
		}
		recallSum += bruteforce.Recall(got, want)
		queries++
	}
	if mean := recallSum / float64(queries); mean < 0.9 {
		t.Errorf("LSH recall after updates %.3f over %d queries, want >= 0.9", mean, queries)
	}
}

func sameIDs(got, want []int) bool {
	if len(got) == 0 && len(want) == 0 {
		return true
	}
	return reflect.DeepEqual(got, want)
}

// TestCrashRecoveryOracleEquivalence is the durability conformance bar:
// a store built from snapshot + write-ahead log, crashed with a torn and
// then corrupted log tail, must recover to a state whose RkNN answers are
// exactly the brute-force oracle's over the surviving points — for both
// dynamic back-ends (the cover tree additionally exercising its native
// structure restore).
func TestCrashRecoveryOracleEquivalence(t *testing.T) {
	for _, b := range []Backend{BackendCoverTree, BackendScan} {
		b := b
		t.Run(string(b), func(t *testing.T) {
			dir := t.TempDir()
			pts := indextest.RandPoints(140, 3, 31)
			s, err := New(pts, WithBackend(b), WithScale(200), WithPlainRDT())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			d, err := NewDurable(dir, s)
			if err != nil {
				t.Fatalf("NewDurable: %v", err)
			}

			// Writes before the snapshot cut land in generation 2's base;
			// writes after it live only in the write-ahead log.
			extra := indextest.RandPoints(25, 3, 32)
			for _, p := range extra[:10] {
				if _, err := d.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range []int{7, 19} {
				if ok, err := d.Delete(id); !ok || err != nil {
					t.Fatalf("Delete(%d) = (%v, %v)", id, ok, err)
				}
			}
			if err := d.Snapshot(); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			for _, p := range extra[10:] {
				if _, err := d.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			deleted := map[int]bool{7: true, 19: true}
			for _, id := range []int{100, 145} {
				if ok, err := d.Delete(id); !ok || err != nil {
					t.Fatalf("Delete(%d) = (%v, %v)", id, ok, err)
				}
				deleted[id] = true
			}

			// Hard stop: no Close, and a torn half-record plus garbage on
			// the log tail, as a crash mid-append would leave.
			logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			if err != nil || len(logs) != 1 {
				t.Fatalf("wal files %v, %v", logs, err)
			}
			f, err := os.OpenFile(logs[0], os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{33, 0, 0, 0, 1, 2, 3, 4, 5}); err != nil {
				t.Fatal(err)
			}
			f.Close()

			re, err := Open(dir)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer re.Close()
			rec := re.Recovery()
			if rec.Generation != 2 || !rec.WALTorn || rec.WALRecords != 17 {
				t.Errorf("recovery info %+v, want generation 2, torn, 17 records", rec)
			}

			// Pin the recovered engine to the brute-force oracle over the
			// surviving points.
			span := 140 + len(extra)
			var oraclePts [][]float64
			var oracleToEngine []int
			for id := 0; id < span; id++ {
				if deleted[id] {
					continue
				}
				oraclePts = append(oraclePts, re.Point(id))
				oracleToEngine = append(oracleToEngine, id)
			}
			truth, err := bruteforce.New(oraclePts, vecmath.Euclidean{})
			if err != nil {
				t.Fatal(err)
			}
			for id := range deleted {
				if _, err := re.ReverseKNN(id, 5); err == nil {
					t.Errorf("recovered engine answered deleted member %d", id)
				}
			}
			for oid, eid := range oracleToEngine {
				if oid%11 != 0 && eid < 140 {
					continue // every post-recovery insert, a sample of the rest
				}
				got, err := re.ReverseKNN(eid, 5)
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
					t.Errorf("recovered ReverseKNN(%d, 5) = %v, oracle %v", eid, got, want)
				}
			}
		})
	}
}
