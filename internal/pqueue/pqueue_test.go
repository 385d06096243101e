package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMinHeapOrdering(t *testing.T) {
	h := NewMin[string](4)
	h.Push(3, "c")
	h.Push(1, "a")
	h.Push(2, "b")
	want := []string{"a", "b", "c"}
	for _, w := range want {
		it, ok := h.Pop()
		if !ok || it.Value != w {
			t.Fatalf("Pop = (%v,%v), want %q", it, ok, w)
		}
	}
	if _, ok := h.Pop(); ok {
		t.Error("Pop on empty heap reported ok")
	}
}

func TestMinHeapPeek(t *testing.T) {
	h := NewMin[int](0)
	if _, ok := h.Peek(); ok {
		t.Error("Peek on empty heap reported ok")
	}
	h.Push(5, 50)
	h.Push(2, 20)
	it, ok := h.Peek()
	if !ok || it.Priority != 2 || it.Value != 20 {
		t.Errorf("Peek = %+v, want priority 2 value 20", it)
	}
	if h.Len() != 2 {
		t.Errorf("Peek consumed an item: len %d", h.Len())
	}
}

func TestMinHeapReset(t *testing.T) {
	h := NewMin[int](0)
	h.Push(1, 1)
	h.Reset()
	if h.Len() != 0 {
		t.Errorf("len after Reset = %d", h.Len())
	}
}

// TestMinHeapResetReleasesPayloads checks that a heap emptied by any mix of
// Pop and Reset references none of its payloads anywhere in its backing
// array: a recycled heap of pointers must pin nothing it once queued.
func TestMinHeapResetReleasesPayloads(t *testing.T) {
	h := NewMin[*int](0)
	for i := 0; i < 100; i++ {
		h.Push(float64(i%7), new(int))
	}
	for i := 0; i < 30; i++ {
		h.Pop()
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("len after Reset = %d", h.Len())
	}
	for i, it := range h.items[:cap(h.items)] {
		if it.Value != nil {
			t.Fatalf("slot %d of %d still holds a payload after Reset", i, cap(h.items))
		}
	}
	h.Push(1, new(int)) // and the heap is still usable
	if it, ok := h.Pop(); !ok || it.Priority != 1 {
		t.Fatalf("Pop after Reset = %+v, %v", it, ok)
	}
}

// TestMinHeapSortsRandomInput property-checks that repeated Pop yields a
// non-decreasing priority sequence containing exactly the pushed items.
func TestMinHeapSortsRandomInput(t *testing.T) {
	property := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		rng := rand.New(rand.NewSource(seed))
		h := NewMin[int](0)
		pushed := make([]float64, n)
		for i := 0; i < n; i++ {
			p := rng.Float64()
			pushed[i] = p
			h.Push(p, i)
		}
		var popped []float64
		for {
			it, ok := h.Pop()
			if !ok {
				break
			}
			popped = append(popped, it.Priority)
		}
		if len(popped) != n {
			return false
		}
		if !sort.Float64sAreSorted(popped) {
			return false
		}
		sort.Float64s(pushed)
		for i := range pushed {
			if pushed[i] != popped[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestNearestFromMatchesPushes property-checks that a nearest heap built in
// place from its items (Heapify) pops exactly the sequence a NewNearest heap
// fed the same items by Push does, on priorities coarse enough that ties —
// popped in ascending ID order — are common; and that the heap can be built
// again over new items once it has been read, as a recycled cursor does.
func TestNearestFromMatchesPushes(t *testing.T) {
	property := func(seed int64, nRaw uint8) bool {
		n := int(nRaw % 120) // 0 included: an empty heap pops nothing
		rng := rand.New(rand.NewSource(seed))
		pushed := NewNearest(0)
		items := make([]Item[int], n)
		for id := range items {
			items[id] = Item[int]{Priority: float64(rng.Intn(6)), Value: id}
			pushed.Push(items[id].Priority, id)
		}
		built := NewNearest(0)
		built.Heapify([]Item[int]{{Priority: 9, Value: 9}, {Priority: 3, Value: 3}})
		built.Pop()
		built.Heapify(items)
		for {
			want, wok := pushed.Pop()
			got, gok := built.Pop()
			if got != want || gok != wok {
				return false
			}
			if !wok {
				return true
			}
		}
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTopKKeepsSmallest(t *testing.T) {
	top := NewTopK[int](3)
	for i, p := range []float64{9, 1, 8, 2, 7, 3} {
		top.Offer(p, i)
	}
	got := top.Sorted()
	wantPriorities := []float64{1, 2, 3}
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, it := range got {
		if it.Priority != wantPriorities[i] {
			t.Errorf("Sorted()[%d].Priority = %g, want %g", i, it.Priority, wantPriorities[i])
		}
	}
	if b, full := top.Bound(); !full || b != 3 {
		t.Errorf("Bound = (%g,%v), want (3,true)", b, full)
	}
}

func TestTopKUnderfill(t *testing.T) {
	top := NewTopK[int](5)
	top.Offer(1, 0)
	if top.Full() {
		t.Error("Full with 1/5 items")
	}
	if _, full := top.Bound(); full {
		t.Error("Bound reported full with 1/5 items")
	}
	if top.Len() != 1 {
		t.Errorf("Len = %d", top.Len())
	}
}

func TestTopKPanicsOnNonPositiveK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k=0")
		}
	}()
	NewTopK[int](0)
}

// TestTopKMatchesSort property-checks TopK against a full sort.
func TestTopKMatchesSort(t *testing.T) {
	property := func(seed int64, kRaw, nRaw uint8) bool {
		k := int(kRaw%20) + 1
		n := int(nRaw%200) + 1
		rng := rand.New(rand.NewSource(seed))
		top := NewTopK[int](k)
		all := make([]float64, n)
		for i := 0; i < n; i++ {
			p := rng.Float64()
			all[i] = p
			top.Offer(p, i)
		}
		sort.Float64s(all)
		got := top.Sorted()
		wantLen := k
		if n < k {
			wantLen = n
		}
		if len(got) != wantLen {
			return false
		}
		for i := range got {
			if got[i].Priority != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
