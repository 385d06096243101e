package core

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
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

// --- count rounds ---

// countCase is a dataset partitioned across shards, as a count round sees
// it: 1-D points on a coarse grid (distance ties everywhere), each global ID
// placed on a shard at the next local ID there, and probes over them.
type countCase struct {
	shards int
	shard  []int       // global ID -> shard
	local  []int       // global ID -> local ID
	points [][]float64 // by shard, by local ID
	probes []index.CountQuery
}

// decodeCountCase reads a case from bytes: the shard count, the points, then
// probes whose limits run from -1 up and whose Skip is -1, a member or an ID
// the placement does not know.
func decodeCountCase(data []byte) countCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	c := countCase{shards: next()%5 + 1}
	c.points = make([][]float64, c.shards)
	for n := next() % 40; n > 0; n-- {
		s := next() % c.shards
		c.shard, c.local = append(c.shard, s), append(c.local, len(c.points[s]))
		c.points[s] = append(c.points[s], float64(next()%8))
	}
	for len(data) > 0 && len(c.probes) < 12 {
		skip := next()%(len(c.shard)+2) - 1 // -1, a member, or one past the last
		c.probes = append(c.probes, index.CountQuery{
			Point:  []float64{float64(next() % 8)},
			Radius: float64(next() % 5),
			Limit:  next()%7 - 1,
			Skip:   skip,
		})
	}
	return c
}

func (c countCase) home(id int) (int, int) {
	if id < 0 || id >= len(c.shard) {
		return -1, -1
	}
	return c.shard[id], c.local[id]
}

// count is shard s's bounded count for q, with q.Skip a local ID of s or -1.
func (c countCase) count(s int, q index.CountQuery) int {
	n := 0
	for l, x := range c.points[s] {
		if n == q.Limit {
			break
		}
		if l != q.Skip && math.Abs(x-q.Point[0]) < q.Radius {
			n++
		}
	}
	return n
}

// full is probe q's unbounded count on shard s, Skip (a global ID) excluded
// on its home shard.
func (c countCase) full(s int, q index.CountQuery) int {
	skip := -1
	if hs, l := c.home(q.Skip); hs == s {
		skip = l
	}
	return c.count(s, index.CountQuery{Point: q.Point, Radius: q.Radius, Limit: -1, Skip: skip})
}

// checkCountRounds holds both count rounds to min(Σ per-shard counts, limit),
// and the in-turn round to its schedule: a probe is asked of shard s exactly
// when the shards before s left it below its limit, with the limit they left,
// and with its Skip local on the member's home shard and -1 elsewhere.
func checkCountRounds(t *testing.T, c countCase) {
	t.Helper()
	want := make([]int, len(c.probes))
	for j, q := range c.probes {
		for s := range c.shards {
			want[j] += c.full(s, q)
		}
		want[j] = min(want[j], q.Limit)
	}
	probe := map[*float64]int{} // a probe's point identifies it in a call
	for j := range c.probes {
		probe[&c.probes[j].Point[0]] = j
	}
	asked := make([][]bool, c.shards)
	for s := range asked {
		asked[s] = make([]bool, len(c.probes))
	}
	inTurn := make([]int, len(c.probes))
	CountInTurn(inTurn, c.probes, c.shards, c.home, func(s int, q index.CountQuery) int {
		j := probe[&q.Point[0]]
		orig := c.probes[j]
		before := 0
		for p := range s {
			before += c.full(p, orig)
		}
		wantSkip := -1
		if hs, l := c.home(orig.Skip); hs == s {
			wantSkip = l
		}
		if q.Skip != wantSkip {
			t.Fatalf("probe %d asked of shard %d with skip %d, want %d", j, s, q.Skip, wantSkip)
		}
		if q.Limit < 1 || q.Limit != orig.Limit-before {
			t.Fatalf("probe %d asked of shard %d at limit %d; limit %d, earlier shards counted %d", j, s, q.Limit, orig.Limit, before)
		}
		asked[s][j] = true
		return c.count(s, q)
	})
	gathered := make([]int, len(c.probes))
	err := CountGathered(context.Background(), gathered, c.probes, c.shards, c.home, func(_ context.Context, s int, qs []index.CountQuery) ([]int, error) {
		out := make([]int, len(qs))
		for j, q := range qs {
			out[j] = c.count(s, q)
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, q := range c.probes {
		if inTurn[j] != want[j] || gathered[j] != want[j] {
			t.Fatalf("probe %d (%+v): in turn %d, gathered %d, want min(Σ, limit) = %d", j, q, inTurn[j], gathered[j], want[j])
		}
		before := 0
		for s := range c.shards {
			if open := before < q.Limit; asked[s][j] != open {
				t.Fatalf("probe %d (limit %d): asked of shard %d = %v after earlier shards counted %d", j, q.Limit, s, asked[s][j], before)
			}
			before += c.full(s, q)
		}
	}
}

// TestCountRoundsProperty pins both count rounds on random partitions, and
// on two cases by hand: a limit at or below 0 (asked of no shard, answered
// as its limit) and a probe its first shard settles (asked of no other).
func TestCountRoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, rng.Intn(160))
		rng.Read(data)
		checkCountRounds(t, decodeCountCase(data))
	}
	c := countCase{
		shards: 3,
		shard:  []int{0, 0, 0, 1, 2},
		local:  []int{0, 1, 2, 0, 0},
		points: [][]float64{{1, 1, 1}, {1}, {1}},
		probes: []index.CountQuery{
			{Point: []float64{1}, Radius: 1, Limit: 0, Skip: -1},
			{Point: []float64{1}, Radius: 1, Limit: -2, Skip: 3},
			{Point: []float64{1}, Radius: 1, Limit: 2, Skip: 0}, // shard 0 counts 2 without its member
			{Point: []float64{1}, Radius: 1, Limit: 5, Skip: 3}, // 3 + 0 + 1: its member is shard 1's only point
		},
	}
	checkCountRounds(t, c)
	got := make([]int, len(c.probes))
	var asked []int
	CountInTurn(got, c.probes, c.shards, c.home, func(s int, q index.CountQuery) int {
		asked = append(asked, s)
		return c.count(s, q)
	})
	if want := []int{0, -2, 2, 4}; !slices.Equal(got, want) {
		t.Errorf("counts %v, want %v", got, want)
	}
	if want := []int{0, 0, 1, 2}; !slices.Equal(asked, want) {
		t.Errorf("shards asked, in call order, %v; want %v (the settled probe and the limits ≤ 0 asked of none)", asked, want)
	}
}

// TestCountGatheredFailureSettlesNothing: a shard's error is the round's,
// and every probe reads its limit.
func TestCountGatheredFailureSettlesNothing(t *testing.T) {
	boom := errors.New("shard 1 lost")
	qs := []index.CountQuery{{Point: []float64{0}, Radius: 1, Limit: 3, Skip: -1}, {Point: []float64{0}, Radius: 1, Limit: 5, Skip: -1}}
	out := make([]int, len(qs))
	err := CountGathered(context.Background(), out, qs, 3, func(int) (int, int) { return -1, -1 }, func(_ context.Context, s int, qs []index.CountQuery) ([]int, error) {
		if s == 1 {
			return nil, boom
		}
		return make([]int, len(qs)), nil
	})
	if !errors.Is(err, boom) || !slices.Equal(out, []int{3, 5}) {
		t.Errorf("round = %v, %v; want %v and every limit", out, err, boom)
	}
}

// FuzzCountRounds decodes arbitrary bytes into a partition and its probes and
// holds both count rounds to the reference (checkCountRounds).
func FuzzCountRounds(f *testing.F) {
	f.Add([]byte{2, 6, 0, 1, 1, 1, 0, 3, 1, 2, 2, 4, 3})
	f.Add([]byte{0})
	f.Add([]byte{4, 30, 1, 1, 2, 1, 3, 1, 0, 1, 1, 1, 5, 1, 2, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		checkCountRounds(t, decodeCountCase(data))
	})
}
