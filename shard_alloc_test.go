//go:build !race

package repro

import (
	"runtime"
	"testing"

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
