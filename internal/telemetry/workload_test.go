package telemetry

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestWorkloadTopKOrderingAndDigest(t *testing.T) {
	w := NewWorkload(8)
	at := winBase
	for i := 0; i < 5; i++ {
		w.Observe("query k=10 @hot", 0.002, 100, 50, 40, at)
	}
	for i := 0; i < 2; i++ {
		w.Observe("query k=10 @cold", 0.010, 200, 80, 20, at)
	}
	top := w.TopKAt(10, time.Minute, at)
	if len(top) != 2 {
		t.Fatalf("tracked = %d, want 2", len(top))
	}
	hot := top[0]
	if hot.Signature != "query k=10 @hot" || hot.Count != 5 || hot.ErrBound != 0 {
		t.Fatalf("top entry = %+v", hot)
	}
	if math.Abs(hot.MeanLatency-0.002) > 1e-12 {
		t.Fatalf("mean latency = %g, want 0.002", hot.MeanLatency)
	}
	if hot.MeanScanDepth != 100 {
		t.Fatalf("mean scan depth = %g, want 100", hot.MeanScanDepth)
	}
	// 40 of 50 generated candidates settled without verification.
	if math.Abs(hot.PruningRatio-0.8) > 1e-12 {
		t.Fatalf("pruning ratio = %g, want 0.8", hot.PruningRatio)
	}
	if hot.Window.Count != 5 {
		t.Fatalf("window count = %d, want 5", hot.Window.Count)
	}
	// k bounds the list; k <= 0 returns everything.
	if got := w.TopKAt(1, time.Minute, at); len(got) != 1 || got[0].Signature != hot.Signature {
		t.Fatalf("top-1 = %+v", got)
	}
	if got := w.TopKAt(0, time.Minute, at); len(got) != 2 {
		t.Fatalf("top-0 length = %d, want 2 (all)", len(got))
	}
}

func TestWorkloadSpaceSavingEviction(t *testing.T) {
	w := NewWorkload(2)
	at := winBase
	for i := 0; i < 3; i++ {
		w.Observe("A", 0.001, 0, 0, 0, at)
	}
	for i := 0; i < 2; i++ {
		w.Observe("B", 0.001, 0, 0, 0, at)
	}
	// Full sketch: C must evict the minimum (B, count 2) and inherit
	// count 3 with error bound 2 — the Space-Saving overestimate contract:
	// trueCount(C)=1 is inside [Count-ErrBound, Count] = [1, 3].
	w.Observe("C", 0.001, 0, 0, 0, at)
	if w.Len() != 2 {
		t.Fatalf("len = %d, want 2", w.Len())
	}
	top := w.TopKAt(0, time.Minute, at)
	bySig := map[string]WorkloadStat{}
	for _, st := range top {
		bySig[st.Signature] = st
	}
	if _, ok := bySig["B"]; ok {
		t.Fatal("B (the minimum) must have been evicted")
	}
	a, c := bySig["A"], bySig["C"]
	if a.Count != 3 || a.ErrBound != 0 {
		t.Fatalf("A = %+v, want count 3 errBound 0", a)
	}
	if c.Count != 3 || c.ErrBound != 2 {
		t.Fatalf("C = %+v, want count 3 errBound 2", c)
	}
	// C's accumulators describe its tenure, not its inherited count: one
	// real observation.
	if c.Window.Count != 1 {
		t.Fatalf("C window count = %d, want 1", c.Window.Count)
	}
	// Deterministic tie-break on equal counts: "A" before "C".
	if top[0].Signature != "A" || top[1].Signature != "C" {
		t.Fatalf("tie-break order = %q, %q", top[0].Signature, top[1].Signature)
	}
}

func TestWorkloadHeavyHitterSurvivesChurn(t *testing.T) {
	// The guarantee that matters operationally: a signature above N/capacity
	// of the traffic is always present, no matter how much one-off noise
	// churns the sketch.
	w := NewWorkload(16)
	at := winBase
	for i := 0; i < 1000; i++ {
		w.Observe("hot", 0.001, 0, 0, 0, at)
		w.Observe(fmt.Sprintf("noise-%d", i), 0.001, 0, 0, 0, at)
	}
	top := w.TopKAt(1, time.Minute, at)
	if len(top) == 0 || top[0].Signature != "hot" {
		t.Fatalf("heavy hitter lost: top = %+v", top)
	}
	if true1k := top[0].Count - top[0].ErrBound; true1k > 1000 {
		t.Fatalf("lower bound %d exceeds the true count 1000", true1k)
	}
	if top[0].Count < 1000 {
		t.Fatalf("Space-Saving must overestimate, got %d < 1000", top[0].Count)
	}
	if w.Len() > 16 {
		t.Fatalf("len = %d, exceeds capacity", w.Len())
	}
}

func TestWorkloadNilAndEmpty(t *testing.T) {
	var w *Workload
	w.Observe("x", 1, 0, 0, 0, winBase) // must not panic
	if w.TopKAt(5, time.Minute, winBase) != nil {
		t.Fatal("nil sketch must report nil")
	}
	if w.Len() != 0 {
		t.Fatal("nil sketch must report zero size")
	}
	w2 := NewWorkload(0)
	for i := 0; i <= DefaultWorkloadCapacity; i++ {
		w2.Observe(fmt.Sprint("sig-", i), 1, 0, 0, 0, winBase)
	}
	if got := w2.Len(); got != DefaultWorkloadCapacity {
		t.Fatalf("default sketch tracks %d signatures, want capacity %d", got, DefaultWorkloadCapacity)
	}
	w2 = NewWorkload(0)
	w2.Observe("", 1, 0, 0, 0, winBase) // empty signature is dropped
	if w2.Len() != 0 {
		t.Fatal("empty signature must not be tracked")
	}
}

func TestWorkloadConcurrent(t *testing.T) {
	w := NewWorkload(8)
	at := winBase
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	wg.Add(writers + 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			w.TopKAt(4, time.Minute, at)
		}
	}()
	for g := 0; g < writers; g++ {
		g := g
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				w.Observe(fmt.Sprintf("sig-%d", (g+i)%12), 0.001, 1, 2, 1, at)
			}
		}()
	}
	wg.Wait()
	if w.Len() > 8 {
		t.Fatalf("len = %d, exceeds capacity", w.Len())
	}
	var total uint64
	for _, st := range w.TopKAt(0, time.Minute, at) {
		total += st.Count
	}
	// Space-Saving conserves the total stream length across evictions.
	if total != writers*perWriter {
		t.Fatalf("count mass = %d, want %d", total, writers*perWriter)
	}
}
