package index

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestShardMapAssignLocateRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 7} {
		m, err := NewShardMap(shards)
		if err != nil {
			t.Fatal(err)
		}
		const n = 500
		for i := 0; i < n; i++ {
			g, s, l := m.Assign()
			if g != i {
				t.Fatalf("Assign %d returned global %d", i, g)
			}
			if s != ShardOf(g, shards) {
				t.Fatalf("global %d placed on shard %d, ShardOf says %d", g, s, ShardOf(g, shards))
			}
			gs, ls, ok := m.Locate(g)
			if !ok || gs != s || ls != l {
				t.Fatalf("Locate(%d) = (%d,%d,%v), want (%d,%d,true)", g, gs, ls, ok, s, l)
			}
			back, ok := m.Global(s, l)
			if !ok || back != g {
				t.Fatalf("Global(%d,%d) = (%d,%v), want (%d,true)", s, l, back, ok, g)
			}
		}
		if m.Len() != n {
			t.Fatalf("Len = %d, want %d", m.Len(), n)
		}
		total := 0
		for s := 0; s < shards; s++ {
			total += m.ShardLen(s)
			prev := -1
			for l, g := range m.Globals(s) {
				if int(g) <= prev {
					t.Fatalf("shard %d locals not in ascending global order at local %d", s, l)
				}
				prev = int(g)
			}
		}
		if total != n {
			t.Fatalf("shard lens sum to %d, want %d", total, n)
		}
	}
}

func TestShardOfBalanceAndRange(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 7, 16} {
		counts := make([]int, shards)
		const n = 7000
		for g := 0; g < n; g++ {
			s := ShardOf(g, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%d,%d) = %d out of range", g, shards, s)
			}
			counts[s]++
		}
		for s, c := range counts {
			// A fair hash keeps every shard within 2x of the mean; the
			// mixer comfortably beats this on dense IDs.
			if mean := n / shards; c < mean/2 || c > mean*2 {
				t.Errorf("shards=%d: shard %d holds %d of %d ids (mean %d)", shards, s, c, n, mean)
			}
		}
	}
}

func TestRebuildShardMapMatchesIncremental(t *testing.T) {
	for _, shards := range []int{1, 3, 7} {
		inc, err := NewShardMap(shards)
		if err != nil {
			t.Fatal(err)
		}
		n := 200 + rand.New(rand.NewSource(int64(shards))).Intn(100)
		for i := 0; i < n; i++ {
			inc.Assign()
		}
		re, err := RebuildShardMap(shards, n)
		if err != nil {
			t.Fatal(err)
		}
		if re.Len() != inc.Len() {
			t.Fatalf("rebuilt Len %d, incremental %d", re.Len(), inc.Len())
		}
		for g := 0; g < n; g++ {
			s1, l1, _ := inc.Locate(g)
			s2, l2, ok := re.Locate(g)
			if !ok || s1 != s2 || l1 != l2 {
				t.Fatalf("global %d: incremental (%d,%d), rebuilt (%d,%d,%v)", g, s1, l1, s2, l2, ok)
			}
		}
	}
}

func TestShardMapCloneIndependence(t *testing.T) {
	m, err := NewShardMap(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		m.Assign()
	}
	cl := m.Clone()
	cl.Assign()
	if m.Len() != 50 || cl.Len() != 51 {
		t.Fatalf("clone not independent: orig %d, clone %d", m.Len(), cl.Len())
	}
	for g := 0; g < 50; g++ {
		s1, l1, _ := m.Locate(g)
		s2, l2, _ := cl.Locate(g)
		if s1 != s2 || l1 != l2 {
			t.Fatalf("clone diverged on shared prefix at global %d", g)
		}
	}
}

// TestShardMapSiblingClones is the rolled-back write: the engine publishes a
// clone, a shard refuses, the previous map is restored and cloned again. The
// second clone finds its slots claimed and must not overwrite what a reader
// of the first still translates.
func TestShardMapSiblingClones(t *testing.T) {
	m, err := RebuildShardMap(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	first, second := m.Clone(), m.Clone()
	for i := 0; i < 40; i++ {
		first.Assign()
	}
	for i := 0; i < 90; i++ {
		second.Assign()
	}
	m.Assign()
	for name, c := range map[string]struct {
		m *ShardMap
		n int
	}{"original": {m, 201}, "first": {first, 240}, "second": {second, 290}} {
		want, err := RebuildShardMap(3, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(flatten(c.m), flatten(want)) {
			t.Errorf("%s clone does not translate as a map rebuilt for %d ids does", name, c.n)
		}
	}
}

// flatten is every translation a map offers, in order.
func flatten(m *ShardMap) [][3]int {
	out := make([][3]int, 0, 2*m.Len())
	for g := 0; g < m.Len(); g++ {
		s, l, _ := m.Locate(g)
		out = append(out, [3]int{g, s, l})
	}
	for s := 0; s < m.Shards(); s++ {
		for l, g := range m.Globals(s) {
			back, _ := m.Global(s, l)
			out = append(out, [3]int{int(g), s, back})
		}
	}
	return out
}

func TestShardMapRejectsBadShardCount(t *testing.T) {
	if _, err := NewShardMap(0); err == nil {
		t.Error("NewShardMap(0) succeeded")
	}
	if _, err := NewShardMap(-2); err == nil {
		t.Error("NewShardMap(-2) succeeded")
	}
}
