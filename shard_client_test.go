package repro

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/indextest"
)

// vanishingShard is a shardClient whose Points call reports some members
// gone (nil rows) although every other call still sees them — what a
// remote daemon answers when a candidate is deleted between its RkNN call
// and its Points call, the per-RPC consistency window.
type vanishingShard struct {
	shardClient
	gone map[int]bool // local IDs
}

func (v vanishingShard) Points(ctx context.Context, locals []int) ([][]float64, error) {
	rows, err := v.shardClient.Points(ctx, locals)
	for i, l := range locals {
		if v.gone[l] {
			rows[i] = nil
		}
	}
	return rows, err
}

// TestScatterVerifyDropsVanishedCandidate pins the consistency-window fix:
// a candidate whose home shard no longer resolves it is dropped from the
// answer — a deleted point is nobody's reverse neighbor — instead of
// failing the whole query with "no pinned shard". That error stays for a
// candidate whose shard really is absent from the scatter set.
func TestScatterVerifyDropsVanishedCandidate(t *testing.T) {
	pts := indextest.RandPoints(300, 3, 71)
	ss, err := NewSharded(pts, 3, WithScale(100), WithPlainRDT())
	if err != nil {
		t.Fatal(err)
	}
	views, m := ss.pin()
	sc := ss.newScatterSet(views, m)
	ctx := context.Background()
	q := []float64{0.5, 0.5, 0.5}
	const k = 6
	base, _, _, err := sc.reverseKNN(ctx, -1, q, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) < 2 {
		t.Fatalf("need a result with several members, got %v", base)
	}

	victim := base[len(base)/2]
	shard, local, ok := m.Locate(victim)
	if !ok {
		t.Fatalf("result id %d not in shard map", victim)
	}
	racing := &scatterSet{clients: slices.Clone(sc.clients), m: m, metric: sc.metric, dim: sc.dim}
	for i, c := range racing.clients {
		if c.Shard() == shard {
			racing.clients[i] = vanishingShard{shardClient: c, gone: map[int]bool{local: true}}
		}
	}
	got, _, _, err := racing.reverseKNN(ctx, -1, q, k)
	if err != nil {
		t.Fatalf("query failed on a vanished candidate: %v", err)
	}
	want := slices.DeleteFunc(slices.Clone(base), func(id int) bool { return id == victim })
	if !slices.Equal(got, want) {
		t.Fatalf("answer with candidate %d vanished = %v, want %v", victim, got, want)
	}

	// Every candidate vanishing is an empty answer, not an error.
	all := &scatterSet{clients: make([]shardClient, len(sc.clients)), m: m, metric: sc.metric, dim: sc.dim}
	for i, c := range sc.clients {
		gone := map[int]bool{}
		for _, g := range base {
			if s, l, _ := m.Locate(g); s == c.Shard() {
				gone[l] = true
			}
		}
		all.clients[i] = vanishingShard{shardClient: c, gone: gone}
	}
	if got, _, _, err := all.reverseKNN(ctx, -1, q, k); err != nil || len(got) != 0 {
		t.Fatalf("all candidates vanished: got %v, %v; want an empty answer", got, err)
	}

	// A candidate whose shard is not in the scatter set is still an error.
	var others []shardClient
	for _, c := range sc.clients {
		if c.Shard() != shard {
			others = append(others, c)
		}
	}
	partial := &scatterSet{clients: others, m: m, metric: sc.metric, dim: sc.dim}
	if _, err := partial.verify(ctx, []int{victim}, q, k); err == nil || !strings.Contains(err.Error(), "has no pinned shard") {
		t.Fatalf("unmapped shard: err = %v, want a no-pinned-shard error", err)
	}
}
