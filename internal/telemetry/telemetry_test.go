package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("c_total", "help").With()
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value() = %d, want 42", got)
	}
	if again := r.CounterVec("c_total", "help").With(); again != c {
		t.Fatal("re-registration did not return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestCounterNoLostIncrementsUnderConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("c_total", "").With()
	const goroutines, per = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("Value() = %d, want %d (lost increments)", got, goroutines*per)
	}
}

func TestCounterVecSeries(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "", "route")
	v.With("/a").Add(3)
	v.With("/b").Add(5)
	if v.With("/a").Value() != 3 || v.With("/b").Value() != 5 {
		t.Fatal("label values do not partition the counter")
	}
	if v.With("/a") != v.With("/a") {
		t.Fatal("With is not memoized")
	}
}

func TestConflictingRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("m", "").With()
	for name, reg := range map[string]func(){
		"kind":   func() { r.GaugeFunc("m", "", func() float64 { return 0 }) },
		"labels": func() { r.CounterVec("m", "", "x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s conflict did not panic", name)
				}
			}()
			reg()
		}()
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := 7.0
	r.GaugeFunc("points", "", func() float64 { return n }, Label{Name: "shard", Value: "0"})
	fams := r.Gather()
	if len(fams) != 1 || len(fams[0].Samples) != 1 {
		t.Fatalf("Gather() = %+v, want one family with one sample", fams)
	}
	if got := fams[0].Samples[0].Value; got != 7 {
		t.Fatalf("gauge func sample = %v, want 7", got)
	}
	// Last registration wins.
	r.GaugeFunc("points", "", func() float64 { return 9 }, Label{Name: "shard", Value: "0"})
	if got := r.Gather()[0].Samples[0].Value; got != 9 {
		t.Fatalf("replaced gauge func sample = %v, want 9", got)
	}
}

func TestHistogramCountsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("lat", "", []float64{1, 2, 4, 8}).With()
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("Count() = %d, want 7", got)
	}
	if got := h.Sum(); math.Abs(got-112.5) > 1e-9 {
		t.Fatalf("Sum() = %v, want 112.5", got)
	}
	// Ranks: bucket le=1 has 1, le=2 has 2, le=4 has 3, le=8 has 0, +Inf 1.
	if q := h.Quantile(0.5); q < 1 || q > 4 {
		t.Fatalf("p50 = %v, want within (1,4]", q)
	}
	// The overflow observation resolves to the highest finite bound.
	if q := h.Quantile(1); q != 8 {
		t.Fatalf("p100 = %v, want 8 (highest finite bound)", q)
	}
	if q := (&HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	h.Observe(math.NaN()) // dropped
	if got := h.Count(); got != 7 {
		t.Fatalf("Count() after NaN = %d, want 7", got)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	h := newHistogram(ExponentialBuckets(1e-5, 2, 22))
	for i := 0; i < 500; i++ {
		h.Observe(1e-5 * math.Pow(1.07, float64(i%200)))
	}
	s := h.Snapshot()
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < Quantile at lower q %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramConcurrentObserveKeepsTotals(t *testing.T) {
	h := newHistogram(DefaultLatencyBuckets)
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g+1) * 1e-4)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("Count() = %d, want %d (lost observations)", got, goroutines*per)
	}
	want := 0.0
	for g := 0; g < goroutines; g++ {
		want += float64(g+1) * 1e-4 * per
	}
	if got := h.Sum(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("Sum() = %v, want %v", got, want)
	}
}

func TestExponentialBuckets(t *testing.T) {
	b := ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", b, want)
		}
	}
}

func TestSlowLogThresholdAndRing(t *testing.T) {
	l := NewSlowLog(10*time.Millisecond, 3)
	if l.Observe(SlowEntry{Route: "/fast", Duration: 5 * time.Millisecond}) {
		t.Fatal("entry below threshold was recorded")
	}
	for i := 0; i < 5; i++ {
		if !l.Observe(SlowEntry{Route: fmt.Sprintf("/slow-%d", i), Duration: time.Duration(20+i) * time.Millisecond}) {
			t.Fatalf("entry %d at threshold was not recorded", i)
		}
	}
	if got := l.Total(); got != 5 {
		t.Fatalf("Total() = %d, want 5", got)
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot() kept %d entries, want capacity 3", len(snap))
	}
	// Newest first: 4, 3, 2 survive the ring.
	for i, want := range []string{"/slow-4", "/slow-3", "/slow-2"} {
		if snap[i].Route != want {
			t.Fatalf("Snapshot()[%d].Route = %q, want %q", i, snap[i].Route, want)
		}
	}
	l.Reset()
	if len(l.Snapshot()) != 0 {
		t.Fatal("Reset did not clear the ring")
	}
	if l.Total() != 5 {
		t.Fatal("Reset cleared the total")
	}
}

func TestSlowLogZeroThresholdRecordsAll(t *testing.T) {
	l := NewSlowLog(0, 2)
	if !l.Observe(SlowEntry{Duration: 0}) {
		t.Fatal("zero-threshold log rejected a zero-duration entry")
	}
}

func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(0, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Observe(SlowEntry{Duration: time.Millisecond})
			}
		}()
	}
	wg.Wait()
	if got := l.Total(); got != 4000 {
		t.Fatalf("Total() = %d, want 4000", got)
	}
	if got := len(l.Snapshot()); got != 8 {
		t.Fatalf("Snapshot() kept %d, want 8", got)
	}
}

func TestGatherOrdering(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("a_total", "").With()
	r.GaugeFunc("b", "", func() float64 { return 0 })
	r.HistogramVec("c_seconds", "", []float64{1}).With()
	fams := r.Gather()
	var names []string
	for _, f := range fams {
		names = append(names, f.Name)
	}
	want := []string{"a_total", "b", "c_seconds"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Gather order = %v, want %v", names, want)
		}
	}
}

// TestHistogramQuantileOverflowAndEmptyRegimes pins the two degenerate
// regimes the serving layer must survive: every observation beyond the
// highest finite bound (the rank always lands in the +Inf overflow bucket)
// and a histogram with no observations at all. Both must yield finite,
// JSON-encodable quantiles at every q — +Inf or NaN here would break the
// /statsz JSON encoding while /metrics kept serving, splitting the two
// surfaces.
func TestHistogramQuantileOverflowAndEmptyRegimes(t *testing.T) {
	bounds := []float64{1, 2, 4}
	h := newHistogram(bounds)
	for i := 0; i < 9; i++ {
		h.Observe(1000) // all overflow
	}
	snap := h.Snapshot()
	if snap.Counts[len(bounds)] != 9 {
		t.Fatalf("overflow bucket holds %d, want 9", snap.Counts[len(bounds)])
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
		v := snap.Quantile(q)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("overflow-regime Quantile(%v) = %v, want finite", q, v)
		}
		if v != bounds[len(bounds)-1] {
			t.Errorf("overflow-regime Quantile(%v) = %v, want highest finite bound %v", q, v, bounds[len(bounds)-1])
		}
		if _, err := json.Marshal(v); err != nil {
			t.Fatalf("overflow-regime Quantile(%v) not JSON-encodable: %v", q, err)
		}
	}

	empty := newHistogram(bounds).Snapshot()
	if empty.Count != 0 {
		t.Fatalf("empty snapshot Count = %d", empty.Count)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		v := empty.Quantile(q)
		if v != 0 {
			t.Errorf("empty-histogram Quantile(%v) = %v, want 0", q, v)
		}
		if _, err := json.Marshal(v); err != nil {
			t.Fatalf("empty-histogram Quantile(%v) not JSON-encodable: %v", q, err)
		}
	}
	// Out-of-range q values clamp rather than producing NaN ranks.
	mixed := newHistogram(bounds)
	mixed.Observe(3)
	for _, q := range []float64{-1, 2} {
		if v := mixed.Snapshot().Quantile(q); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("Quantile(%v) = %v, want clamped finite value", q, v)
		}
	}
}

func TestHistogramObserveClampsNegative(t *testing.T) {
	// Regression: a clock-skewed (negative) duration used to land in the
	// first bucket while subtracting from the sum, driving _sum below zero
	// and breaking every rate() computed over it. Negatives now clamp to 0.
	h := newHistogram([]float64{1, 2})
	h.Observe(-5)
	if got := h.Sum(); got != 0 {
		t.Fatalf("sum after negative observe = %g, want 0", got)
	}
	if got := h.Count(); got != 1 {
		t.Fatalf("count after negative observe = %d, want 1 (clamped, not dropped)", got)
	}
	snap := h.Snapshot()
	if snap.Counts[0] != 1 {
		t.Fatalf("clamped observation must land in the first bucket: %v", snap.Counts)
	}
	// NaN is dropped entirely: it cannot be clamped to anything meaningful.
	h.Observe(math.NaN())
	if got := h.Count(); got != 1 {
		t.Fatalf("count after NaN observe = %d, want 1", got)
	}
}

func TestHistogramSetExemplar(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	if snap := h.Snapshot(); snap.Exemplars != nil {
		t.Fatal("no exemplars set: snapshot must not allocate any")
	}
	h.SetExemplar(1.5, "aaaa", winBase)
	h.SetExemplar(1.7, "bbbb", winBase.Add(time.Second)) // same bucket: latest wins
	h.SetExemplar(0.5, "", winBase)                      // empty trace ID dropped
	snap := h.Snapshot()
	if snap.Exemplars == nil {
		t.Fatal("exemplars missing from snapshot")
	}
	if ex := snap.Exemplars[1]; ex == nil || ex.TraceID != "bbbb" || ex.Value != 1.7 {
		t.Fatalf("bucket 1 exemplar = %+v, want latest (bbbb)", snap.Exemplars[1])
	}
	if snap.Exemplars[0] != nil {
		t.Fatal("empty-trace-ID exemplar must be dropped")
	}
}

func TestSlowLogSetThreshold(t *testing.T) {
	l := NewSlowLog(10*time.Millisecond, 8)
	l.Observe(SlowEntry{Route: "/a", Duration: 20 * time.Millisecond})
	l.Observe(SlowEntry{Route: "/b", Duration: 5 * time.Millisecond}) // under: dropped
	if got := len(l.Snapshot()); got != 1 {
		t.Fatalf("entries before retune = %d, want 1", got)
	}
	// Lowering the threshold at runtime keeps the already-recorded entries
	// and starts admitting the finer-grained ones.
	l.SetThreshold(time.Millisecond)
	if got := l.Threshold(); got != time.Millisecond {
		t.Fatalf("threshold after retune = %s", got)
	}
	l.Observe(SlowEntry{Route: "/b", Duration: 5 * time.Millisecond})
	snap := l.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("entries after retune = %d, want 2 (ring preserved)", len(snap))
	}
	// Negative thresholds clamp to 0 (record everything).
	l.SetThreshold(-time.Second)
	if got := l.Threshold(); got != 0 {
		t.Fatalf("negative threshold must clamp to 0, got %s", got)
	}
}
