package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file adds the live-operations dimension to the cumulative
// instruments: sliding-window views over a ring of fixed-width time slices.
// A Windowed wraps a Histogram (every observation still lands in the
// cumulative buckets /metrics exposes) and additionally banks it into the
// slice covering the observation's timestamp, so SnapshotWindowAt can
// answer "what did the last minute look like" instead of "what has the
// process seen since it started". It is the package's one window ring: a
// windowed sum (the engine's pruning shadows, an SLO's bad-event count) is
// a Windowed over a bucketless NewHistogram(nil), whose snapshot's Count
// and Sum are the window's observations and total.
//
// Rotation is lazy and observer-driven: there is no background goroutine
// and no clock read beyond the timestamp the caller already holds (latency
// measurement pays for time.Now once; the completion time is passed down).
// A slice is reset the first time an observation lands in its epoch; slices
// that saw no traffic keep their stale epoch and are simply excluded at
// read time, so idle periods cost nothing and expire correctly.
//
// Consistency is monitoring-grade, matching Histogram and Counter: an
// observation lands in exactly one slice, but a reader overlapping writers
// may see a count before its sum (or vice versa). The one theoretical loss
// window is an observer preempted between its epoch check and its bucket
// increment for longer than the ring's full span (minutes); the race suite
// pins that nothing worse happens under contention.

// Default window geometry: 30 slices of 10s cover a 5-minute view with 12
// slices (2m) and 6 slices (1m) as finer cuts of the same ring.
const (
	DefaultWindowSlice  = 10 * time.Second
	DefaultWindowSlices = 30
)

// StatsWindows are the trailing windows every live-operations surface
// reports (/statsz, /v1/admin/analytics), keyed the way dashboards spell
// them.
var StatsWindows = map[string]time.Duration{
	"1m": time.Minute,
	"5m": 5 * time.Minute,
}

// winSlice is one time slice of a Windowed ring. epoch is the absolute
// slice number (unix nanos / width) the counts currently describe; it is
// stored only after the slice is zeroed, so any writer or reader that
// observes the epoch also observes a clean slice.
type winSlice struct {
	epoch   atomic.Int64
	mu      sync.Mutex // serializes rotation; the add path never takes it
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

// rotate zeroes the slice and claims it for epoch e. Double-checked under
// the slice mutex so concurrent observers rotating the same slice do the
// wipe exactly once; a slice already at or past e is left alone.
func (sl *winSlice) rotate(e int64) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.epoch.Load() >= e {
		return
	}
	for i := range sl.counts {
		sl.counts[i].Store(0)
	}
	sl.sumBits.Store(0)
	sl.epoch.Store(e)
}

func (sl *winSlice) addSum(v float64) {
	for {
		old := sl.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if sl.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Windowed is a sliding-window view over a cumulative Histogram: a ring of
// fixed-width time slices, each a bucket array of the same layout. Observe
// feeds both. All methods are safe for concurrent use, and a nil *Windowed
// is inert, so optional wiring never branches.
type Windowed struct {
	hist  *Histogram
	width int64 // slice width in nanoseconds
	ring  []winSlice
}

// NewWindowed wraps h with a ring of `slices` windows of sliceWidth each.
// The longest answerable window is slices*sliceWidth; shorter windows are
// sub-ranges of the same ring. sliceWidth must be positive; slices < 2 is
// clamped to 2 (one settled slice plus the partial current one).
func NewWindowed(h *Histogram, sliceWidth time.Duration, slices int) *Windowed {
	if h == nil {
		panic("telemetry: NewWindowed needs a histogram")
	}
	if sliceWidth <= 0 {
		panic("telemetry: NewWindowed needs a positive slice width")
	}
	if slices < 2 {
		slices = 2
	}
	w := &Windowed{hist: h, width: int64(sliceWidth), ring: make([]winSlice, slices)}
	for i := range w.ring {
		w.ring[i].counts = make([]atomic.Uint64, len(h.bounds)+1)
	}
	return w
}

// NewDefaultWindowed wraps h with the default 30×10s ring (5m horizon).
func NewDefaultWindowed(h *Histogram) *Windowed {
	return NewWindowed(h, DefaultWindowSlice, DefaultWindowSlices)
}

// Histogram returns the wrapped cumulative histogram.
func (w *Windowed) Histogram() *Histogram {
	if w == nil {
		return nil
	}
	return w.hist
}

// Observe records v (at its observation time) into the cumulative
// histogram and the window slice covering at. Like Histogram.Observe, NaN
// is dropped and negative values are clamped to 0. The caller supplies the
// timestamp so the hot path pays no clock read beyond the one the latency
// measurement already took.
func (w *Windowed) Observe(v float64, at time.Time) {
	if w == nil {
		return
	}
	w.hist.Observe(v)
	if math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	e := at.UnixNano() / w.width
	sl := &w.ring[int(e%int64(len(w.ring)))]
	if cur := sl.epoch.Load(); cur != e {
		if cur > e {
			// The ring has wrapped past this timestamp: the observation is
			// older than the full horizon. It stays in the cumulative
			// histogram; the windows legitimately never saw it.
			return
		}
		sl.rotate(e)
	}
	sl.counts[sort.SearchFloat64s(w.hist.bounds, v)].Add(1)
	sl.addSum(v)
}

// windowSpan clamps a requested window to whole slices within the ring.
func (w *Windowed) windowSpan(window time.Duration) int64 {
	n := (int64(window) + w.width - 1) / w.width
	if n < 1 {
		n = 1
	}
	if n > int64(len(w.ring)) {
		n = int64(len(w.ring))
	}
	return n
}

// SnapshotWindowAt captures the distribution observed during the window
// ending at now: the current (partial) slice plus enough settled slices to
// span the window, each matched by epoch so slices idle since before the
// window contribute nothing. Windows are quantized to whole slices (a 1m
// window over 10s slices reads the last 6 slice epochs), so the answered
// span has a ±1-slice fuzz at its trailing edge — the standard rolling-
// window trade against per-observation timestamps.
func (w *Windowed) SnapshotWindowAt(window time.Duration, now time.Time) *HistSnapshot {
	if w == nil {
		return &HistSnapshot{}
	}
	s := &HistSnapshot{Bounds: w.hist.bounds, Counts: make([]uint64, len(w.hist.bounds)+1)}
	n := w.windowSpan(window)
	nowE := now.UnixNano() / w.width
	minE := nowE - n + 1
	for i := range w.ring {
		sl := &w.ring[i]
		e := sl.epoch.Load()
		if e < minE || e > nowE {
			continue
		}
		for j := range sl.counts {
			c := sl.counts[j].Load()
			s.Counts[j] += c
			s.Count += c
		}
		s.Sum += math.Float64frombits(sl.sumBits.Load())
	}
	return s
}

// WindowStats is one window's digest: count, rate, and the quantiles every
// live-operations surface reports, all derived from a single snapshot.
type WindowStats struct {
	Count uint64
	QPS   float64
	Mean  float64 // seconds (or the unit observed)
	P50   float64
	P95   float64
	P99   float64
}

// StatsAt digests the trailing window ending at now in one snapshot.
func (w *Windowed) StatsAt(window time.Duration, now time.Time) WindowStats {
	if w == nil {
		return WindowStats{}
	}
	snap := w.SnapshotWindowAt(window, now)
	span := time.Duration(w.windowSpan(window) * w.width)
	st := WindowStats{
		Count: snap.Count,
		QPS:   float64(snap.Count) / span.Seconds(),
	}
	if snap.Count > 0 {
		st.Mean = snap.Sum / float64(snap.Count)
		st.P50 = snap.Quantile(0.50)
		st.P95 = snap.Quantile(0.95)
		st.P99 = snap.Quantile(0.99)
	}
	return st
}
