//go:build !race

package repro

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/indextest"
)

// TestShardedInsertDoesNotCopyTheShardMap pins that a sharded write costs
// what it writes: the shard map is append-only and a clone shares its arrays
// (index.Table), so a single insert into a 50 000-point engine allocates far
// less than the 600 KB a copy of the map is — while a reader still holding
// the map from before the writes translates exactly the IDs it pinned, to
// exactly the placements a map rebuilt for them gives.
func TestShardedInsertDoesNotCopyTheShardMap(t *testing.T) {
	const n, S, writes = 50000, 3, 100
	pts := indextest.RandPoints(n+writes, 3, 71)
	ss, err := NewSharded(pts[:n], S, WithScale(4))
	if err != nil {
		t.Fatal(err)
	}
	pinned := ss.smap.Load()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, p := range pts[n:] {
		if id, err := ss.Insert(p); err != nil || id != n+i {
			t.Fatalf("Insert = %d, %v; want id %d", id, err, n+i)
		}
	}
	runtime.ReadMemStats(&after)
	perWrite := (after.TotalAlloc - before.TotalAlloc) / writes
	t.Logf("%d bytes allocated per single insert", perWrite)
	if perWrite >= 64<<10 {
		t.Errorf("a single insert allocated %d bytes, want under 64 KB: the shard map (12 B × %d) is being copied", perWrite, n)
	}

	if got := ss.smap.Load().Len(); got != n+writes {
		t.Fatalf("published map spans %d ids, want %d", got, n+writes)
	}
	want, err := index.RebuildShardMap(S, n)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Len() != n {
		t.Fatalf("the pinned map grew to %d ids under its reader, pinned at %d", pinned.Len(), n)
	}
	if _, _, ok := pinned.Locate(n); ok {
		t.Error("the pinned map resolves an id assigned after it was pinned")
	}
	for g := 0; g < n; g++ {
		s, l, _ := pinned.Locate(g)
		ws, wl, _ := want.Locate(g)
		if back, ok := pinned.Global(s, l); s != ws || l != wl || !ok || back != g {
			t.Fatalf("pinned map places id %d at (%d, %d) and back at %d; want (%d, %d)", g, s, l, back, ws, wl)
		}
	}
	for s := 0; s < S; s++ {
		if pinned.ShardLen(s) != want.ShardLen(s) || len(pinned.Globals(s)) != want.ShardLen(s) {
			t.Errorf("pinned map sees %d ids on shard %d, want %d", pinned.ShardLen(s), s, want.ShardLen(s))
		}
	}
}

// TestWarmRankQueryAllocations pins what one query on a warm rank allocates,
// telemetry off: 1 object, its ID list, copied out of the pooled scratch once,
// at its length; the result travels by value and the fixed scale strategy is
// the Querier's own. That holds for a Searcher member or point query, and for
// one over three in-process shards, also when it verifies candidates (the
// refinement's probes live in the pooled scratch too): the read set is shared until a shard
// publishes, the federation, its heads, its Querier and its count buffer are
// recycled, in-process streams live in their heads, and the count round runs
// in turn on the query's goroutine. The shared surface in front of every
// engine adds no closure, interface boxing or read-set allocation.
func TestWarmRankQueryAllocations(t *testing.T) {
	ctx := context.Background()
	uniform := indextest.RandPoints(2000, 4, 81)
	q := []float64{0.4, 0.5, 0.6, 0.3}
	s, err := New(uniform, WithScale(6))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewSharded(uniform, 3, WithScale(6))
	if err != nil {
		t.Fatal(err)
	}
	// On the FCT surrogate at t = 4 most member queries, and the point
	// queries at members' coordinates, leave candidates for the count round.
	const k = 10
	fct := dataset.FCT(3000, 5).Points
	fs, err := NewSharded(fct, 3, WithScale(4))
	if err != nil {
		t.Fatal(err)
	}
	var verifying []int
	for id := 0; len(verifying) < 50; id++ {
		if _, st, err := fs.ReverseKNNStats(id, k); err != nil {
			t.Fatal(err)
		} else if st.Verified > 0 {
			verifying = append(verifying, id)
		}
	}
	var points [][]float64
	for _, id := range verifying {
		p := append([]float64(nil), fct[id]...)
		p[0] += 1e-3 // not a member: nothing is excluded
		if _, st, err := fs.ReverseKNNPointStats(p, k); err != nil {
			t.Fatal(err)
		} else if st.Verified > 0 {
			points = append(points, p)
		}
	}
	if len(points) == 0 {
		t.Fatal("no point query verifies a candidate")
	}
	qid := 0
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Searcher.ReverseKNNContext", func() error { qid++; _, err := s.ReverseKNNContext(ctx, qid%len(uniform), 8); return err }},
		{"Searcher.ReverseKNNPointContext", func() error { _, err := s.ReverseKNNPointContext(ctx, q, 8); return err }},
		{"ShardedSearcher.ReverseKNNContext", func() error { qid++; _, err := ss.ReverseKNNContext(ctx, qid%len(uniform), 8); return err }},
		{"ShardedSearcher.ReverseKNNPointContext", func() error { _, err := ss.ReverseKNNPointContext(ctx, q, 8); return err }},
		{"ShardedSearcher.ReverseKNNContext/verifying", func() error {
			qid++
			_, err := fs.ReverseKNNContext(ctx, verifying[qid%len(verifying)], k)
			return err
		}},
		{"ShardedSearcher.ReverseKNNPointContext/verifying", func() error {
			qid++
			_, err := fs.ReverseKNNPointContext(ctx, points[qid%len(points)], k)
			return err
		}},
	} {
		if err := c.run(); err != nil { // warms the rank
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.2f allocations a query", c.name, got)
		if got > 1 {
			t.Errorf("%s allocates %.2f objects a query on a warm rank, want 1: its ID list", c.name, got)
		}
	}
}

// TestFilledQueryAllocations pins what a table-decided query allocates,
// telemetry off: its ID list and nothing else, for a member and a point
// query on a filled Searcher whose snapshot holds a deletion. A member query
// at the deleted ID still fails with ErrDeleted.
func TestFilledQueryAllocations(t *testing.T) {
	const k = 8
	pts := indextest.RandPoints(2000, 4, 81)
	s, err := New(pts, WithScale(6), WithPlainRDT())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dead := len(pts) - 1
	if _, err := s.Delete(dead); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "a table-decided query", func() bool { return serve(t, s, dead, 1, k).DecidedByTable })
	qid := 0
	for ids, _ := s.ReverseKNN(qid, k); len(ids) == 0; ids, _ = s.ReverseKNN(qid, k) {
		qid++
	}
	q := []float64{0.4, 0.5, 0.6, 0.3}
	if ids, st, err := s.ReverseKNNPointStats(q, k); err != nil || len(ids) == 0 || !st.DecidedByTable {
		t.Fatalf("point query: %v (%+v), %v; want a non-empty table-decided answer", ids, st, err)
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"ReverseKNN", func() error { _, err := s.ReverseKNN(qid, k); return err }},
		{"ReverseKNNPoint", func() error { _, err := s.ReverseKNNPoint(q, k); return err }},
	} {
		got := testing.AllocsPerRun(200, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		if got != 1 {
			t.Errorf("a table-decided %s allocates %.2f objects, want 1: its ID list", c.name, got)
		}
	}
	if _, err := s.ReverseKNN(dead, k); !errors.Is(err, ErrDeleted) {
		t.Fatalf("member query at deleted %d on a filled snapshot: %v, want ErrDeleted", dead, err)
	}
}
