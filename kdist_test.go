package repro

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/indextest"
	"repro/internal/vecmath"
)

// waitUntil polls cond for up to ten seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// serve answers n member queries at rank k and returns the last one's Stats.
func serve(t *testing.T, e interface {
	ReverseKNNStats(qid, k int) ([]int, Stats, error)
}, span, n, k int) Stats {
	t.Helper()
	var st Stats
	for i := 0; i < n; i++ {
		var err error
		if _, st, err = e.ReverseKNNStats(i%span, k); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// tableDecided is the Stats of every table-decided query: no scan, no ω,
// no witness or refinement work.
var tableDecided = Stats{Omega: math.Inf(1), DecidedByTable: true}

// subsetOf reports whether the sorted IDs a are all in the sorted IDs b.
func subsetOf(a, b []int) bool {
	for _, id := range a {
		if _, ok := slices.BinarySearch(b, id); !ok {
			return false
		}
	}
	return true
}

// TestKDistTableLifecycle pins a Searcher's k-distance table from outside:
// under plain RDT, no table below n/8 served queries; past it, a fill whose
// queries answer the brute-force answer, of which Algorithm 1's before the
// fill is a subset, with no scan and no witness or refinement work; a
// write's new snapshot starts without a table and the replaced one
// fills nothing more; and a closed engine fills nothing more. The fill's
// cancellation and Close's wait are pinned in internal/core, where a fill
// can be held mid-way.
func TestKDistTableLifecycle(t *testing.T) {
	const k = 5
	pts := indextest.ClusteredPoints(300, 4, 6, 51)
	trigger := len(pts) / 8

	t.Run("fills past the trigger", func(t *testing.T) {
		truth, err := bruteforce.New(pts, vecmath.Euclidean{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(pts, WithScale(4), WithPlainRDT())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var want [][]int
		for qid := 0; len(want) < trigger/2; qid += 7 {
			ids, err := s.ReverseKNN(qid, k)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ids)
		}
		if st := serve(t, s, len(pts), trigger-1-len(want), k); st.DecidedByTable {
			t.Fatalf("a query below the trigger was decided by a table: %+v", st)
		}
		waitUntil(t, "a table-decided query", func() bool { return serve(t, s, len(pts), 1, k).DecidedByTable })
		for i, qid := 0, 0; i < len(want); i, qid = i+1, qid+7 {
			ids, st, err := s.ReverseKNNStats(qid, k)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := truth.RkNNByID(qid, k)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(ids, exact) || !subsetOf(want[i], ids) || st != tableDecided {
				t.Fatalf("member %d: table (%v, %+v), brute force %v, Algorithm 1 %v", qid, ids, st, exact, want[i])
			}
		}
		if _, _, err := s.ReverseKNNPointStats(pts[3], 7); err != nil {
			t.Fatal(err)
		}
		if _, st, _ := s.ReverseKNNPointStats(pts[3], 7); st.DecidedByTable {
			t.Fatal("a rank that served two queries shares another rank's table")
		}
		old := s.snap.Load()
		if _, err := s.Insert(pts[9]); err != nil {
			t.Fatal(err)
		}
		if st := serve(t, s, len(pts), trigger-1, k); st.DecidedByTable {
			t.Fatalf("the write's new snapshot decided by a table it never filled: %+v", st)
		}
		// The write stopped the replaced snapshot: its memo starts no fill,
		// however far a rank goes past the trigger. Fills run one at a time,
		// so once the new snapshot's rank-3 table decides, a fill the old
		// memo started before it would have published.
		for i := 0; i < 2*trigger; i++ {
			if _, err := old.engines.Serve(3); err != nil {
				t.Fatal(err)
			}
		}
		waitUntil(t, "the new snapshot's rank-3 table", func() bool { return serve(t, s, len(pts), 1, 3).DecidedByTable })
		stale, err := old.engines.Querier(3)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := stale.ByID(0); err != nil || res.Stats.DecidedByTable {
			t.Fatalf("the replaced snapshot filled a table after the write: %+v, %v", res, err)
		}
	})

	t.Run("a closed engine fills nothing", func(t *testing.T) {
		s, err := New(pts, WithScale(4), WithPlainRDT())
		if err != nil {
			t.Fatal(err)
		}
		serve(t, s, len(pts), trigger-1, k)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if st := serve(t, s, len(pts), 3*trigger, k); st.DecidedByTable {
			t.Fatalf("a closed engine filled: %+v", st)
		}
		if _, err := s.Insert(pts[0]); err != nil {
			t.Fatal(err)
		}
		if st := serve(t, s, len(pts), 3*trigger, k); st.DecidedByTable {
			t.Fatalf("a closed engine's next snapshot filled: %+v", st)
		}
	})
}

// TestKDistTableRDTPlusAgainstTheOracle pins what a table does to the
// default engine's answers. RDT+'s lazy accepts may let false positives
// through, and the table answers the exact reverse query, so a filled RDT+
// Searcher no longer answers as an RDT+ ShardedSearcher does. It is held to
// the oracle instead: each answer is the brute-force answer, which holds the
// RDT+ S=3 answer's true positives and plain RDT's S=3 answer, so precision
// is 1 and recall no lower. The data is chosen so that some query has a
// false positive to drop.
func TestKDistTableRDTPlusAgainstTheOracle(t *testing.T) {
	const k = 5
	pts := indextest.ClusteredPoints(300, 4, 6, 51)
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(pts, WithScale(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plus, err := NewSharded(pts, 3, WithScale(4))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewSharded(pts, 3, WithScale(4), WithPlainRDT())
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the RDT+ Searcher's table", func() bool { return serve(t, s, len(pts), 1, k).DecidedByTable })

	dropped := 0
	for qid := range pts {
		got, st, err := s.ReverseKNNStats(qid, k)
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := plus.ReverseKNNStats(qid, k)
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := plain.ReverseKNNStats(qid, k)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := truth.RkNNByID(qid, k)
		if err != nil {
			t.Fatal(err)
		}
		var kept []int
		for _, id := range p {
			if _, ok := slices.BinarySearch(exact, id); ok {
				kept = append(kept, id)
			}
		}
		if st != tableDecided || !sameIDs(got, exact) || !subsetOf(kept, got) || !subsetOf(r, got) {
			t.Fatalf("member %d: filled RDT+ %v (%+v), brute force %v; RDT+ S=3 %v, its true positives %v; plain RDT S=3 %v",
				qid, got, st, exact, p, kept, r)
		}
		dropped += len(p) - len(kept)
	}
	if dropped == 0 {
		t.Fatal("RDT+ made no false positive on this data: the test shows nothing")
	}
}

// TestKDistTableNotOnShardedOrMixed pins that the engines whose queries never
// pin one snapshot long enough never decide by a table: a ShardedSearcher,
// whose shard engines answer cursors and counts, not reverse queries, and an
// engine under an 80/10/10 read/insert/delete stream, where every write
// replaces the snapshot a fill would belong to.
func TestKDistTableNotOnShardedOrMixed(t *testing.T) {
	const k = 5
	pts := indextest.RandPoints(600, 4, 55)
	reads := 10 * len(pts) / 8 // ten times a plain-RDT snapshot's trigger

	ss, err := NewSharded(pts, 3, WithScale(4), WithPlainRDT())
	if err != nil {
		t.Fatal(err)
	}
	if st := serve(t, ss, len(pts), reads, k); st.DecidedByTable {
		t.Fatalf("a sharded query was decided by a table: %+v", st)
	}

	eng, err := New(pts, WithScale(4), WithPlainRDT())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewDurable(t.TempDir(), eng)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(57))
	extra := indextest.RandPoints(400, 4, 59)
	for op, n := 0, 0; n < reads; op++ {
		switch r := rng.Float64(); {
		case r >= 0.9:
			if _, err := s.Delete(op % len(pts)); err != nil {
				t.Fatal(err)
			}
		case r >= 0.8:
			if _, err := s.Insert(extra[op%len(extra)]); err != nil {
				t.Fatal(err)
			}
		default:
			n++
			if _, st, err := s.ReverseKNNPointStats(pts[op%len(pts)], k); err != nil || st.DecidedByTable {
				t.Fatalf("mixed read: %+v, %v", st, err)
			}
		}
	}
}
