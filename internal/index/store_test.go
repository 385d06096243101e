package index

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/vecmath"
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

// TestInsertCheckIsOneRule pins that both index-layer insert paths — an
// overlay's memtable append and a back-end's RowStore.Append — refuse a row
// of the wrong width with an error that wraps vecmath.ErrDimensionMismatch,
// and a non-finite row, and leave the index as it was.
func TestInsertCheckIsOneRule(t *testing.T) {
	rows := [][]float64{{0, 0}, {1, 1}, {2, 2}}
	ov := NewOverlay(newTestScan(rows))
	for name, insert := range map[string]func([]float64) (int, error){
		"Overlay.Insert":  ov.Insert,
		"RowStore.Append": newTestScan(rows).Append,
	} {
		if _, err := insert([]float64{1, 2, 3}); !errors.Is(err, vecmath.ErrDimensionMismatch) {
			t.Errorf("%s of a 3-wide row into a 2-wide index: %v, want an error wrapping vecmath.ErrDimensionMismatch", name, err)
		}
		if _, err := insert([]float64{math.NaN(), 0}); err == nil {
			t.Errorf("%s accepted a NaN coordinate", name)
		}
		if id, err := insert([]float64{3, 3}); err != nil || id != len(rows) {
			t.Errorf("%s of a valid row after two refusals = (%d, %v), want (%d, nil)", name, id, err, len(rows))
		}
	}
}
