package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Workload is the analytics sketch behind /v1/admin/analytics: a
// Space-Saving heavy-hitter summary over query signatures (quantized
// query-point grid cell + op + k), with per-entry latency windows and
// pruning accumulators. It is the operator-facing readout of the paper's
// observation that pruning effectiveness tracks the *local* intrinsic
// dimensionality of the queried region: two regions with the same traffic
// can have wildly different screened fractions, and this sketch shows
// which regions those are, live.
//
// Space-Saving (Metwally et al. 2005) keeps at most `capacity` entries.
// A miss when full evicts the current minimum-count entry and inherits its
// count plus one, recording that minimum as the new entry's error bound:
// for every tracked signature, trueCount is within [Count-ErrBound, Count],
// and any signature with true frequency above N/capacity is guaranteed to
// be present. The per-entry accumulators (latency window, scan depth,
// pruning) restart at zero on eviction — they describe the entry's tenure,
// not its inherited count, which is the useful semantics for "what is this
// hot region doing right now".
//
// DefaultWorkloadCapacity bounds the sketch: 64 entries resolve any
// signature above ~1.6% of traffic, plenty for "top query regions".
const DefaultWorkloadCapacity = 64

// workloadEntry is one tracked signature. count/errBound are guarded by
// the sketch mutex; the accumulators are atomics updated outside it, so
// the lock hold is a map probe and an integer bump.
type workloadEntry struct {
	sig      string
	count    uint64
	errBound uint64

	latency  *Windowed // over a private histogram: lifetime + windowed views
	scanSum  atomic.Int64
	genSum   atomic.Int64 // candidates generated (filter size + exclusions)
	pruneSum atomic.Int64 // candidates settled without verification
	obs      atomic.Int64 // observations carrying stats (denominator for scan mean)
}

// Workload is safe for concurrent use. A nil *Workload is inert, so the
// tracing-off and telemetry-off paths never branch.
type Workload struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*workloadEntry
}

// NewWorkload builds a sketch tracking at most capacity signatures
// (DefaultWorkloadCapacity when capacity <= 0).
func NewWorkload(capacity int) *Workload {
	if capacity <= 0 {
		capacity = DefaultWorkloadCapacity
	}
	return &Workload{capacity: capacity, entries: make(map[string]*workloadEntry, capacity)}
}

// touch finds or creates the entry for sig under the Space-Saving policy
// and bumps its count.
func (w *Workload) touch(sig string) *workloadEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e := w.entries[sig]; e != nil {
		e.count++
		return e
	}
	if len(w.entries) < w.capacity {
		e := &workloadEntry{sig: sig, count: 1, latency: NewDefaultWindowed(newHistogram(DefaultLatencyBuckets))}
		w.entries[sig] = e
		return e
	}
	// Full: evict the minimum-count entry; the newcomer inherits min+1 with
	// error bound min. The accumulators restart (see package comment).
	var victim *workloadEntry
	for _, e := range w.entries {
		if victim == nil || e.count < victim.count {
			victim = e
		}
	}
	delete(w.entries, victim.sig)
	e := &workloadEntry{
		sig:      sig,
		count:    victim.count + 1,
		errBound: victim.count,
		latency:  NewDefaultWindowed(newHistogram(DefaultLatencyBuckets)),
	}
	w.entries[sig] = e
	return e
}

// Observe records one query under its signature. scanDepth, generated and
// pruned come from the engine's per-query Stats; at is the completion time
// the caller already holds (no extra clock read).
func (w *Workload) Observe(sig string, latencySeconds float64, scanDepth, generated, pruned int, at time.Time) {
	if w == nil || sig == "" {
		return
	}
	e := w.touch(sig)
	// Outside the lock: a racing eviction may strand these adds on a
	// just-evicted entry, which merely forgets one observation's stats —
	// monitoring-grade, same contract as the rest of the package.
	e.latency.Observe(latencySeconds, at)
	e.obs.Add(1)
	e.scanSum.Add(int64(scanDepth))
	e.genSum.Add(int64(generated))
	e.pruneSum.Add(int64(pruned))
}

// WorkloadStat is one hot signature's digest for the analytics endpoint.
type WorkloadStat struct {
	Signature string `json:"signature"`
	// Count is the Space-Saving estimate; the true count is within
	// [Count-ErrBound, Count].
	Count    uint64 `json:"count"`
	ErrBound uint64 `json:"count_error_bound"`
	// Lifetime latency over the entry's tenure.
	MeanLatency float64 `json:"mean_latency_seconds"`
	// Windowed view (the window is the caller's, reported alongside).
	Window WindowStats `json:"-"`
	// MeanScanDepth and PruningRatio summarize the engine stats: how deep
	// the expanding search ran and what fraction of generated candidates
	// was settled without a verification query — the paper's
	// region-dependent pruning effectiveness, per region.
	MeanScanDepth float64 `json:"mean_scan_depth"`
	PruningRatio  float64 `json:"pruning_ratio"`
}

// TopKAt returns the k highest-count signatures (all of them when k <= 0
// or k exceeds the tracked set), each with its windowed latency digest at
// the reading time. Ties break by signature for deterministic output.
func (w *Workload) TopKAt(k int, window time.Duration, now time.Time) []WorkloadStat {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	type pair struct {
		e        *workloadEntry
		count    uint64
		errBound uint64
	}
	all := make([]pair, 0, len(w.entries))
	for _, e := range w.entries {
		all = append(all, pair{e: e, count: e.count, errBound: e.errBound})
	}
	w.mu.Unlock()

	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].e.sig < all[j].e.sig
	})
	if k > 0 && k < len(all) {
		all = all[:k]
	}
	out := make([]WorkloadStat, 0, len(all))
	for _, p := range all {
		st := WorkloadStat{
			Signature: p.e.sig,
			Count:     p.count,
			ErrBound:  p.errBound,
			Window:    p.e.latency.StatsAt(window, now),
		}
		if h := p.e.latency.Histogram(); h != nil {
			if n := h.Count(); n > 0 {
				st.MeanLatency = h.Sum() / float64(n)
			}
		}
		if obs := p.e.obs.Load(); obs > 0 {
			st.MeanScanDepth = float64(p.e.scanSum.Load()) / float64(obs)
		}
		if gen := p.e.genSum.Load(); gen > 0 {
			st.PruningRatio = float64(p.e.pruneSum.Load()) / float64(gen)
		}
		out = append(out, st)
	}
	return out
}

// TopK is TopKAt(now).
func (w *Workload) TopK(k int, window time.Duration) []WorkloadStat {
	return w.TopKAt(k, window, time.Now())
}

// Len returns the number of tracked signatures.
func (w *Workload) Len() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.entries)
}
