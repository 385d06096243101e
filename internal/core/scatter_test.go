package core

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/index"
)

// --- reference implementations the merges are property-tested against ---

// refMergeKNN concatenates, filters, sorts by (dist, id), dedups keeping the
// best occurrence, and truncates — the obviously-correct O(n log n) merge.
func refMergeKNN(lists [][]index.Neighbor, k int, live func(int) bool) []index.Neighbor {
	if k <= 0 {
		return nil
	}
	var all []index.Neighbor
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return index.Before(all[i], all[j]) })
	seen := map[int]bool{}
	var out []index.Neighbor
	for _, nb := range all {
		if live != nil && !live(nb.ID) {
			continue
		}
		if seen[nb.ID] {
			continue
		}
		seen[nb.ID] = true
		out = append(out, nb)
		if len(out) == k {
			break
		}
	}
	return out
}

func sameNeighbors(a, b []index.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randShardLists generates per-shard kNN-style lists: sorted ascending by
// distance, unique IDs within a list, with deliberate distance ties (both
// within and across lists) to exercise the ID tie-break.
func randShardLists(rng *rand.Rand, shards, maxLen int) [][]index.Neighbor {
	lists := make([][]index.Neighbor, shards)
	nextID := 0
	for s := range lists {
		n := rng.Intn(maxLen + 1)
		l := make([]index.Neighbor, n)
		d := 0.0
		for i := range l {
			if rng.Intn(3) > 0 { // ~1/3 chance of a tie with the previous
				d += float64(rng.Intn(4)) * 0.25
			}
			l[i] = index.Neighbor{ID: nextID, Dist: d}
			nextID++
		}
		// Shuffle IDs across shards so list order and ID order disagree.
		rng.Shuffle(len(l), func(i, j int) { l[i].ID, l[j].ID = l[j].ID, l[i].ID })
		sort.Slice(l, func(i, j int) bool { return l[i].Dist < l[j].Dist }) // distance-sorted only: tie runs in arbitrary ID order
		lists[s] = l
	}
	return lists
}

// TestMergeKNNProperty quick-checks the k-way merge against the reference
// on randomized shard lists: exact equality under the (dist, id) order,
// with tombstoned IDs never surfacing and no duplicates.
func TestMergeKNNProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		shards := 1 + rng.Intn(8)
		lists := randShardLists(rng, shards, 12)
		k := rng.Intn(20)
		var live func(int) bool
		dead := map[int]bool{}
		if rng.Intn(2) == 0 {
			for id := 0; id < 96; id += 1 + rng.Intn(5) {
				dead[id] = true
			}
			live = func(id int) bool { return !dead[id] }
		}
		got := MergeKNN(lists, k, live)
		want := refMergeKNN(lists, k, live)
		if !sameNeighbors(got, want) {
			t.Fatalf("trial %d (shards=%d, k=%d): merge %v, reference %v", trial, shards, k, got, want)
		}
		seen := map[int]bool{}
		for i, nb := range got {
			if dead[nb.ID] {
				t.Fatalf("trial %d: tombstoned id %d surfaced", trial, nb.ID)
			}
			if seen[nb.ID] {
				t.Fatalf("trial %d: duplicate id %d", trial, nb.ID)
			}
			seen[nb.ID] = true
			if i > 0 && index.Before(nb, got[i-1]) {
				t.Fatalf("trial %d: output out of (dist,id) order at %d: %v", trial, i, got)
			}
		}
	}
}

// FuzzMergeKNN decodes arbitrary bytes into shard lists and cross-checks
// the heap merge against the reference merge, so the fuzzer can hunt for
// orderings the randomized trials miss.
func FuzzMergeKNN(f *testing.F) {
	f.Add([]byte{2, 3, 0, 1, 2, 1, 0, 5}, uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 4, 0, 0, 0, 0, 2, 2}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		if len(data) > 4096 {
			return
		}
		// Decode: first byte = shard count, then per neighbor one byte of
		// quantized distance; IDs are positional with a spread pattern.
		if len(data) == 0 {
			return
		}
		shards := int(data[0])%8 + 1
		data = data[1:]
		lists := make([][]index.Neighbor, shards)
		for i, b := range data {
			s := i % shards
			lists[s] = append(lists[s], index.Neighbor{
				ID:   int(binary.BigEndian.Uint16([]byte{byte(i % 3), byte(i)})),
				Dist: float64(b%16) * 0.5,
			})
		}
		for s := range lists {
			l := lists[s]
			sort.Slice(l, func(i, j int) bool { return l[i].Dist < l[j].Dist })
			// Dedup IDs within a list (the shard contract).
			seen := map[int]bool{}
			kept := l[:0]
			for _, nb := range l {
				if !seen[nb.ID] {
					seen[nb.ID] = true
					kept = append(kept, nb)
				}
			}
			lists[s] = kept
		}
		live := func(id int) bool { return id%7 != 3 }
		got := MergeKNN(lists, int(k), live)
		want := refMergeKNN(lists, int(k), live)
		if !sameNeighbors(got, want) {
			t.Fatalf("merge %v, reference %v (lists %v, k=%d)", got, want, lists, k)
		}
	})
}

// --- Gather ---

func TestGatherRunsEveryShard(t *testing.T) {
	var ran atomic.Int64
	err := Gather(context.Background(), 9, func(ctx context.Context, shard int) error {
		ran.Add(1 << shard)
		return nil
	})
	if err != nil {
		t.Fatalf("Gather: %v", err)
	}
	if ran.Load() != (1<<9)-1 {
		t.Errorf("shard bitmap %b, want all 9 set", ran.Load())
	}
}

func TestGatherFirstErrorWinsOverInducedCancellation(t *testing.T) {
	boom := errors.New("shard 3 exploded")
	err := Gather(context.Background(), 6, func(ctx context.Context, shard int) error {
		if shard == 3 {
			return boom
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Second):
			return errors.New("sibling was not cancelled")
		}
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the shard failure", err)
	}
}

func TestGatherHonorsOuterCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Gather(ctx, 4, func(ctx context.Context, shard int) error {
		t.Error("fn ran after pre-cancellation")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel2()
	}()
	err = Gather(ctx2, 3, func(ctx context.Context, shard int) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("mid-flight err = %v, want context.Canceled", err)
	}
}

func TestGatherZeroShards(t *testing.T) {
	if err := Gather(context.Background(), 0, nil); err != nil {
		t.Errorf("Gather over zero shards: %v", err)
	}
}
