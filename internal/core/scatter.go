package core

import (
	"container/heap"
	"context"
	"errors"
	"sort"
	"sync"

	"repro/internal/index"
)

// This file is the scatter-gather substrate of the sharded engine's batched
// calls (forward kNN, refinement counts): fanning one call out to every shard
// with cancellation, and merging per-shard kNN lists back into exactly the
// list a single index over the union of the shards would have produced. The
// merge is deliberately pure — no engine state — so it can be pinned by
// property-based tests against a reference implementation (scatter_test.go).
// Reverse queries do not pass through here: they run Algorithm 1 once over
// the merged shard cursors (the facade's federated index).

// Gather runs fn once per shard, concurrently, and waits for all of them:
// every shard but the first on its own goroutine, the first on the caller's —
// a fan-out over one shard is a plain call, and a wider one hands off one
// goroutine fewer. The first fn error cancels the context passed to the
// others and is returned (sibling cancellations it caused are not reported
// in its place); if ctx is cancelled from outside, Gather stops early and
// returns ctx's error. Shards whose fn was never started or was cancelled
// must be treated by the caller as having produced nothing.
func Gather(ctx context.Context, shards int, fn func(ctx context.Context, shard int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, shards)
	run := func(i int) {
		if gctx.Err() != nil {
			errs[i] = gctx.Err()
			return
		}
		if err := fn(gctx, i); err != nil {
			errs[i] = err
			cancel()
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	if shards > 0 {
		run(0)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	// Prefer a real failure over the context.Canceled noise it induced in
	// sibling shards.
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeHeap is a min-heap of (list, position) cursors keyed by the current
// head neighbor of each list under index.Before.
type mergeHeap struct {
	lists [][]index.Neighbor
	pos   []int
	order []int // heap of list indexes
}

func (h *mergeHeap) Len() int { return len(h.order) }
func (h *mergeHeap) Less(i, j int) bool {
	a, b := h.order[i], h.order[j]
	return index.Before(h.lists[a][h.pos[a]], h.lists[b][h.pos[b]])
}
func (h *mergeHeap) Swap(i, j int) { h.order[i], h.order[j] = h.order[j], h.order[i] }
func (h *mergeHeap) Push(x any)    { h.order = append(h.order, x.(int)) }
func (h *mergeHeap) Pop() any {
	x := h.order[len(h.order)-1]
	h.order = h.order[:len(h.order)-1]
	return x
}

// MergeKNN k-way merges per-shard kNN result lists into the global top-k
// under the (distance, ID) order. Each input list must itself be sorted
// ascending by distance (the contract of every index.Index.KNN); equal
// distances within a list need not be ID-ordered — the merge re-sorts tie
// runs so the output order never depends on back-end tie behavior. IDs for
// which live returns false are dropped (nil accepts everything); duplicate
// IDs surface once, keeping their best-ordered occurrence.
func MergeKNN(lists [][]index.Neighbor, k int, live func(id int) bool) []index.Neighbor {
	if k <= 0 {
		return nil
	}
	h := &mergeHeap{lists: make([][]index.Neighbor, 0, len(lists)), pos: make([]int, 0, len(lists))}
	total := 0
	for _, l := range lists {
		if len(l) == 0 {
			continue
		}
		total += len(l)
		// Normalize tie runs to (dist, id) order so the heap's head
		// comparison sees each list in the global total order.
		if !sort.SliceIsSorted(l, func(i, j int) bool { return index.Before(l[i], l[j]) }) {
			l = append([]index.Neighbor(nil), l...)
			sort.Slice(l, func(i, j int) bool { return index.Before(l[i], l[j]) })
		}
		h.order = append(h.order, len(h.lists))
		h.lists = append(h.lists, l)
		h.pos = append(h.pos, 0)
	}
	heap.Init(h)
	// No answer is longer than the lists together: size by that, not by a
	// caller's k.
	k = min(k, total)
	out := make([]index.Neighbor, 0, k)
	var seen map[int]bool
	for h.Len() > 0 && len(out) < k {
		li := h.order[0]
		nb := h.lists[li][h.pos[li]]
		h.pos[li]++
		if h.pos[li] < len(h.lists[li]) {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
		if live != nil && !live(nb.ID) {
			continue
		}
		if seen[nb.ID] {
			continue
		}
		if seen == nil {
			seen = make(map[int]bool, k)
		}
		seen[nb.ID] = true
		out = append(out, nb)
	}
	return out
}
