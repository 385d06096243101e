package core

import (
	"container/heap"
	"context"
	"errors"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/index"
)

// This file is the scatter-gather substrate of the sharded engine's batched
// calls (forward kNN, refinement counts): fanning one call out to every shard
// with cancellation, merging per-shard kNN lists back into exactly the list a
// single index over the union of the shards would have produced, and summing
// a round of refinement counts over the shards — in turn under a shrinking
// limit, or gathered at once. The merge and the count rounds are deliberately
// pure — no engine state — so they can be pinned by property-based tests
// against a reference implementation (scatter_test.go). Reverse queries do
// not pass through here: they run Algorithm 1 once over the merged shard
// cursors (the facade's federated index).

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

// A count round answers refinement probes (index.CountQuery) over a dataset
// partitioned across shards: out[j] = min(Σ_s count_s(j), Limit_j), where
// count_s(j) is shard s's count for probe j. A shard counts no further than
// the limit it is given and exactly below it, so the sum is below the limit
// exactly when the true total is. A probe's Skip is a global member ID, which
// home places — the member's shard and its local ID there, shard -1 for none
// — and it is excluded on that shard alone (local Skip there, -1 elsewhere).

// CountInTurn is the count round on the caller's goroutine: every probe
// against shard 0, then every probe against shard 1, and so on, each asked
// only for what the earlier shards left of its limit, and not asked at all
// once they reached it. It is the round for in-process shards, where a call
// is a walk of an index and a goroutine would cost more than it saves; count
// is never called with a limit below 1.
func CountInTurn(out []int, qs []index.CountQuery, shards int, home func(id int) (shard, local int), count func(shard int, q index.CountQuery) int) {
	for j, q := range qs {
		out[j] = min(0, q.Limit)
	}
	for s := range shards {
		for j, q := range qs {
			if out[j] >= q.Limit {
				continue // settled by the shards before s
			}
			q.Limit -= out[j]
			q.Skip = skipOn(home, q.Skip, s)
			out[j] += min(count(s, q), q.Limit)
		}
	}
}

// CountGathered is the count round as one concurrent call per shard (Gather),
// each carrying every probe at its full limit: the round for remote shards,
// where a call is a round trip, so one round costs one round trip rather than
// one per shard. count returns one count per probe, in probe order. The first
// error voids the round: it is returned, and out holds every probe's limit,
// which settles nothing.
func CountGathered(ctx context.Context, out []int, qs []index.CountQuery, shards int, home func(id int) (shard, local int), count func(ctx context.Context, shard int, qs []index.CountQuery) ([]int, error)) error {
	counts := make([][]int, shards)
	err := Gather(ctx, shards, func(ctx context.Context, s int) error {
		mine := slices.Clone(qs)
		for j := range mine {
			mine[j].Skip = skipOn(home, mine[j].Skip, s)
		}
		var err error
		counts[s], err = count(ctx, s, mine)
		return err
	})
	for j, q := range qs {
		if err != nil {
			out[j] = q.Limit // settles nothing
			continue
		}
		out[j] = min(0, q.Limit)
		for _, c := range counts {
			out[j] = min(out[j]+c[j], q.Limit)
		}
	}
	return err
}

// ShardRows is how many rows one of S shards is expected to contribute to a
// scan of the merged neighbor stream of n points: its share of the rank cap
// min(n, ⌊2^t·k⌋) plus three standard deviations of that share under hash
// partitioning, so that one fetch of a remote shard nearly always covers the
// whole scan (the cap is n when t adapts per query).
func ShardRows(n, S, k int, t float64) int {
	share := float64(RankCap(n, k, t)) / float64(S)
	return int(math.Ceil(share + 3*math.Sqrt(share*(1-1/float64(S)))))
}

// skipOn is a probe's Skip on shard s: the member's local ID on its home
// shard, -1 on every other.
func skipOn(home func(id int) (shard, local int), skip, s int) int {
	if hs, l := home(skip); hs == s {
		return l
	}
	return -1
}
