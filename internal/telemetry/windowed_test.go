package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

// winBase is an arbitrary fixed origin so the windowed tests are fully
// deterministic: every timestamp is winBase plus a synthetic offset, and no
// test reads the real clock.
var winBase = time.Unix(1_700_000_000, 0)

// refSnapshot replays obs (value, slice-epoch pairs) through a fresh
// cumulative histogram keeping only observations inside the window
// [nowEpoch-slices+1, nowEpoch] — the sequential reference the lazy ring
// must match when the ring has not wrapped.
func refSnapshot(bounds []float64, obs [][2]float64, slices, nowEpoch int64) *HistSnapshot {
	h := newHistogram(bounds)
	for _, o := range obs {
		e := int64(o[1])
		if e >= nowEpoch-slices+1 && e <= nowEpoch {
			h.Observe(o[0])
		}
	}
	return h.Snapshot()
}

func TestWindowedMatchesSequentialReference(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	const width = time.Second
	const ringLen = 10
	w := NewWindowed(newHistogram(bounds), width, ringLen)

	// A bursty-then-idle trace: a burst in slice 0, stragglers in 1 and 4,
	// silence through 5..8, one more in 9. All epochs fit in one ring
	// revolution, so the reference filter is exact.
	obs := [][2]float64{
		{0.5, 0}, {1.5, 0}, {3.0, 0}, {7.0, 0},
		{2.5, 1},
		{0.7, 4}, {9.0, 4},
		{1.2, 9},
	}
	for _, o := range obs {
		w.Observe(o[0], winBase.Add(time.Duration(o[1])*width))
	}

	now := winBase.Add(9*width + width/2) // mid-slice 9
	for _, span := range []int64{1, 2, 5, 6, 10} {
		window := time.Duration(span) * width
		got := w.SnapshotWindowAt(window, now)
		want := refSnapshot(bounds, obs, span, 9)
		if got.Count != want.Count || got.Sum != want.Sum {
			t.Fatalf("window %s: got count=%d sum=%g, want count=%d sum=%g",
				window, got.Count, got.Sum, want.Count, want.Sum)
		}
		for i := range want.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("window %s bucket %d: got %d want %d", window, i, got.Counts[i], want.Counts[i])
			}
		}
		// Quantiles spanning idle (empty) slices must match the reference
		// computed from only the in-window observations.
		for _, q := range []float64{0.5, 0.95, 0.99} {
			if g, x := got.Quantile(q), want.Quantile(q); g != x {
				t.Fatalf("window %s q%.2f: got %g want %g", window, q, g, x)
			}
		}
	}

	// The cumulative histogram saw everything regardless of windows.
	if n := w.Histogram().Count(); n != uint64(len(obs)) {
		t.Fatalf("cumulative count = %d, want %d", n, len(obs))
	}
}

func TestWindowedIdleExpiry(t *testing.T) {
	w := NewWindowed(newHistogram([]float64{1}), time.Second, 10)
	w.Observe(0.5, winBase)
	w.Observe(0.5, winBase.Add(time.Second))

	if got := w.SnapshotWindowAt(5*time.Second, winBase.Add(time.Second)).Count; got != 2 {
		t.Fatalf("fresh window count = %d, want 2", got)
	}
	// Idle for longer than the window: the stale slices still hold their
	// epochs (no background sweeper) but the read must exclude them.
	if got := w.SnapshotWindowAt(5*time.Second, winBase.Add(20*time.Second)).Count; got != 0 {
		t.Fatalf("idle window count = %d, want 0", got)
	}
	// The cumulative view is untouched by expiry.
	if got := w.Histogram().Count(); got != 2 {
		t.Fatalf("cumulative count = %d, want 2", got)
	}
}

func TestWindowedWrapDropsAncientObservation(t *testing.T) {
	w := NewWindowed(newHistogram([]float64{1}), time.Second, 10)
	// Claim slice index 0 for epoch 20, then try to bank an observation
	// from epoch 10 (same index, a full revolution earlier): it must not
	// pollute the newer slice, but still lands in the cumulative buckets.
	w.Observe(0.5, winBase.Add(20*time.Second))
	w.Observe(0.5, winBase.Add(10*time.Second))
	got := w.SnapshotWindowAt(time.Second, winBase.Add(20*time.Second+500*time.Millisecond))
	if got.Count != 1 {
		t.Fatalf("current-slice count = %d, want 1 (ancient observation must be dropped)", got.Count)
	}
	if n := w.Histogram().Count(); n != 2 {
		t.Fatalf("cumulative count = %d, want 2", n)
	}
}

func TestWindowedObserveClampsAndDrops(t *testing.T) {
	w := NewWindowed(newHistogram([]float64{1, 2}), time.Second, 4)
	w.Observe(math.NaN(), winBase)
	w.Observe(-5, winBase)
	snap := w.SnapshotWindowAt(time.Second, winBase)
	if snap.Count != 1 {
		t.Fatalf("count = %d, want 1 (NaN dropped, negative kept)", snap.Count)
	}
	if snap.Counts[0] != 1 || snap.Sum != 0 {
		t.Fatalf("negative observation must clamp to 0: counts=%v sum=%g", snap.Counts, snap.Sum)
	}
}

func TestWindowedStatsAt(t *testing.T) {
	w := NewWindowed(newHistogram(DefaultLatencyBuckets), time.Second, 10)
	for i := 0; i < 60; i++ {
		w.Observe(0.001, winBase.Add(time.Duration(i)*time.Second/10)) // 60 obs across 6s
	}
	st := w.StatsAt(6*time.Second, winBase.Add(6*time.Second-time.Millisecond))
	if st.Count != 60 {
		t.Fatalf("count = %d, want 60", st.Count)
	}
	if got, want := st.QPS, 10.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("qps = %g, want %g", got, want)
	}
	if math.Abs(st.Mean-0.001) > 1e-12 {
		t.Fatalf("mean = %g, want 0.001", st.Mean)
	}
	if st.P50 <= 0 || st.P99 < st.P50 {
		t.Fatalf("quantiles not ordered: p50=%g p99=%g", st.P50, st.P99)
	}
	if zero := (*Windowed)(nil).StatsAt(time.Minute, winBase); zero.Count != 0 {
		t.Fatalf("nil Windowed StatsAt = %+v, want zero", zero)
	}
}

func TestWindowedConcurrentRotationExactlyOnce(t *testing.T) {
	const ringLen = 8
	w := NewWindowed(newHistogram([]float64{1}), time.Second, ringLen)
	// Pre-fill slice index 0 with old-epoch traffic, then have many
	// goroutines land simultaneously one full revolution later: the
	// double-checked rotate must wipe exactly once, so the new slice holds
	// exactly the new observations.
	for i := 0; i < 100; i++ {
		w.Observe(0.5, winBase)
	}
	const writers = 16
	const perWriter = 200
	at := winBase.Add(ringLen * time.Second)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(writers)
	for g := 0; g < writers; g++ {
		go func() {
			defer done.Done()
			start.Wait()
			for i := 0; i < perWriter; i++ {
				w.Observe(0.5, at)
			}
		}()
	}
	start.Done()
	done.Wait()
	got := w.SnapshotWindowAt(time.Second, at)
	if got.Count != writers*perWriter {
		t.Fatalf("rotated slice count = %d, want %d (old traffic must be wiped exactly once)",
			got.Count, writers*perWriter)
	}
	if n := w.Histogram().Count(); n != 100+writers*perWriter {
		t.Fatalf("cumulative count = %d, want %d", n, 100+writers*perWriter)
	}
}

func TestWindowedConcurrentAcrossSlices(t *testing.T) {
	// Writers spread observations over many epochs (with ring wrap) while
	// readers snapshot continuously: the race detector guards the memory
	// model, and the cumulative count pins that no observation is lost.
	w := NewWindowed(newHistogram([]float64{1, 2, 4}), 100*time.Millisecond, 8)
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				w.SnapshotWindowAt(500*time.Millisecond, winBase.Add(time.Duration(200)*100*time.Millisecond))
				w.StatsAt(time.Second, winBase.Add(time.Duration(100)*100*time.Millisecond))
			}
		}
	}()
	var ww sync.WaitGroup
	ww.Add(writers)
	for g := 0; g < writers; g++ {
		g := g
		go func() {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				e := time.Duration((g*perWriter+i)%200) * 100 * time.Millisecond
				w.Observe(float64(i%5), winBase.Add(e))
			}
		}()
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if n := w.Histogram().Count(); n != writers*perWriter {
		t.Fatalf("cumulative count = %d, want %d", n, writers*perWriter)
	}
}

// sumWindow is a windowed sum: a Windowed over a bucketless histogram,
// whose window snapshot's Sum is the total banked in the window.
func sumWindow(width time.Duration, slices int) *Windowed {
	return NewWindowed(NewHistogram(nil), width, slices)
}

func TestWindowedSumOverBucketlessHistogram(t *testing.T) {
	c := sumWindow(time.Second, 10)
	c.Observe(5, winBase)
	c.Observe(3, winBase.Add(4*time.Second))
	c.Observe(1, winBase.Add(9*time.Second))
	c.Observe(-7, winBase.Add(9*time.Second)) // negative values add nothing

	now := winBase.Add(9*time.Second + 500*time.Millisecond)
	for _, tc := range []struct {
		window time.Duration
		want   float64
	}{{10 * time.Second, 9}, {time.Second, 1}, {6 * time.Second, 4}} {
		if got := c.SnapshotWindowAt(tc.window, now).Sum; got != tc.want {
			t.Fatalf("%s sum = %g, want %g", tc.window, got, tc.want)
		}
	}
	if got := c.Histogram().Sum(); got != 9 {
		t.Fatalf("lifetime sum = %g, want 9", got)
	}
	// Idle expiry and wrap-drop: a slice idle since before the window adds
	// nothing, and an observation older than the ring reaches only the
	// lifetime total.
	if got := c.SnapshotWindowAt(10*time.Second, winBase.Add(30*time.Second)); got.Sum != 0 || got.Count != 0 {
		t.Fatalf("idle window = %+v, want empty", got)
	}
	c.Observe(2, winBase.Add(30*time.Second))
	c.Observe(2, winBase.Add(20*time.Second)) // same index, older epoch: dropped
	if got := c.SnapshotWindowAt(time.Second, winBase.Add(30*time.Second)).Sum; got != 2 {
		t.Fatalf("post-wrap sum = %g, want 2", got)
	}
	if got := c.Histogram().Sum(); got != 13 {
		t.Fatalf("lifetime sum after wrap = %g, want 13", got)
	}
	if got := (*Windowed)(nil).SnapshotWindowAt(time.Minute, winBase); got.Sum != 0 || got.Count != 0 {
		t.Fatalf("nil window = %+v, want empty", got)
	}
}

func TestWindowedSumConcurrent(t *testing.T) {
	c := sumWindow(time.Second, 4)
	at := winBase.Add(100 * time.Second)
	const writers = 16
	const perWriter = 1000
	var wg sync.WaitGroup
	wg.Add(writers)
	for g := 0; g < writers; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Observe(1, at)
			}
		}()
	}
	wg.Wait()
	if got := c.SnapshotWindowAt(time.Second, at); got.Sum != writers*perWriter || got.Count != writers*perWriter {
		t.Fatalf("concurrent window = %+v, want sum and count %d", got, writers*perWriter)
	}
}

func TestNewWindowedPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("nil histogram", func() { NewWindowed(nil, time.Second, 4) })
	mustPanic("zero width", func() { NewWindowed(newHistogram(nil), 0, 4) })
	// slices < 2 clamps rather than panics: one settled plus one current.
	if w := NewWindowed(newHistogram(nil), time.Second, 0); len(w.ring) != 2 {
		t.Fatalf("slices clamp: got %d, want 2", len(w.ring))
	}
}
