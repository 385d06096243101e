// Package pqueue provides the priority queues used by the index structures:
// a generic min-heap keyed by float64 priority, and a bounded max-heap for
// accumulating k nearest neighbors.
//
// The standard library's container/heap requires an interface-based
// implementation with per-operation allocations; the indexes in this module
// sit inside tight best-first search loops, so these heaps are implemented
// directly over generic slices.
package pqueue

// Item is a payload with a float64 priority.
type Item[T any] struct {
	Priority float64
	Value    T
}

// Min is a binary min-heap on Item.Priority. The zero value is an empty heap
// ready to use.
type Min[T any] struct {
	items []Item[T]
	tie   func(a, b T) bool // orders equal priorities; nil leaves them unordered
}

// NewMin returns an empty min-heap with the given initial capacity.
func NewMin[T any](capacity int) *Min[T] {
	return &Min[T]{items: make([]Item[T], 0, capacity)}
}

// NewNearest returns an empty min-heap of point IDs keyed by distance that
// pops equal distances in ascending ID order — the (distance, ID) order every
// neighbor stream of this module is emitted in, so that streams over disjoint
// parts of a dataset merge into exactly the stream over their union.
func NewNearest(capacity int) *Min[int] {
	h := NewMin[int](capacity)
	h.tie = func(a, b int) bool { return a < b }
	return h
}

// Heapify replaces the heap's contents with items, ordered in place in
// O(len(items)) — the heap a Push of every item would have built: for a
// caller that has all its pairs in hand before it needs the least one, and
// may need only a few. The heap owns items from here on.
func (h *Min[T]) Heapify(items []Item[T]) {
	h.items = items
	for i := len(items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// tied reports whether item i must sit above item j of equal priority. The
// sift loops compare priorities inline and come here only on a tie.
func (h *Min[T]) tied(i, j int) bool {
	return h.tie != nil && h.tie(h.items[i].Value, h.items[j].Value)
}

// Len returns the number of queued items.
func (h *Min[T]) Len() int { return len(h.items) }

// Push inserts value with the given priority.
func (h *Min[T]) Push(priority float64, value T) {
	h.items = append(h.items, Item[T]{Priority: priority, Value: value})
	h.up(len(h.items) - 1)
}

// Peek returns the minimum-priority item without removing it. The boolean is
// false when the heap is empty.
func (h *Min[T]) Peek() (Item[T], bool) {
	if len(h.items) == 0 {
		return Item[T]{}, false
	}
	return h.items[0], true
}

// Pop removes and returns the minimum-priority item. The boolean is false
// when the heap is empty.
func (h *Min[T]) Pop() (Item[T], bool) {
	if len(h.items) == 0 {
		return Item[T]{}, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero Item[T]
	h.items[last] = zero // release payload for GC
	h.items = h.items[:last]
	if len(h.items) > 0 {
		h.down(0)
	}
	return top, true
}

// Reset empties the heap, retaining capacity but no payload: Pop zeroes the
// slot it vacates, so clearing the queued items leaves the whole backing
// array free of references — a recycled heap pins nothing it once queued.
func (h *Min[T]) Reset() {
	clear(h.items)
	h.items = h.items[:0]
}

func (h *Min[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if p, c := h.items[parent].Priority, h.items[i].Priority; p < c || p == c && !h.tied(i, parent) {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *Min[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n {
			if c, s := h.items[l].Priority, h.items[smallest].Priority; c < s || c == s && h.tied(l, smallest) {
				smallest = l
			}
		}
		if r < n {
			if c, s := h.items[r].Priority, h.items[smallest].Priority; c < s || c == s && h.tied(r, smallest) {
				smallest = r
			}
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
