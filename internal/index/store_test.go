package index

import (
	"slices"
	"testing"
)

// TestTombstonesCopyOnWrite pins the one copy rule: clones share the set
// until one side adds, after which no side sees another's additions —
// whichever side adds first, and however often the set was cloned — and a
// nil set reads as empty.
func TestTombstonesCopyOnWrite(t *testing.T) {
	var nilSet *Tombstones
	if nilSet.Has(0) || nilSet.Len() != 0 || nilSet.Sorted() != nil {
		t.Fatal("a nil set does not read as empty")
	}
	var orig Tombstones
	for _, id := range []int{9, 2, 5} {
		if !orig.Add(id) {
			t.Fatalf("Add(%d) on a set without it = false", id)
		}
	}
	if orig.Add(5) {
		t.Fatal("Add of an ID already in the set = true")
	}
	var first, second Tombstones
	orig.cloneInto(&first)
	orig.cloneInto(&second)
	first.Add(7)
	orig.Add(1)
	for name, c := range map[string]struct {
		set  *Tombstones
		want []int
	}{
		"original": {&orig, []int{1, 2, 5, 9}},
		"first":    {&first, []int{2, 5, 7, 9}},
		"second":   {&second, []int{2, 5, 9}},
	} {
		if got := c.set.Sorted(); !slices.Equal(got, c.want) {
			t.Errorf("%s: Sorted = %v, want %v", name, got, c.want)
		}
		for id := range 10 {
			if c.set.Has(id) != slices.Contains(c.want, id) {
				t.Errorf("%s: Has(%d) = %v", name, id, c.set.Has(id))
			}
		}
	}
}
