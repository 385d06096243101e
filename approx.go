package repro

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/index"
	"repro/internal/vecmath"
)

// This file is the honesty layer of the approximate serving tier: a sampled
// recall estimator that cross-checks the engine's (possibly approximate)
// reverse-neighbor answers against an exact brute-force oracle computed
// over the same immutable snapshot. The telemetry binding exposes it as the
// scrape-time rknn_recall_estimate gauge for approximate back-ends, and
// RecallEstimate offers the same measurement on demand; see DESIGN.md,
// "Approximate serving tier".

// Defaults for the scrape-time recall gauge: how many member queries are
// sampled per estimate and at which reverse-neighbor rank. Eight queries
// keep a scrape O(samples·n·k)-ish via the oracle's early exit while
// averaging enough to be stable; rank 10 matches the paper's default k.
const (
	DefaultRecallSamples = 8
	DefaultRecallRank    = 10
)

// RecallEstimate measures the engine's reverse-neighbor recall by sampling
// up to the given number of live member queries (evenly spaced over the ID
// span, deterministic) and comparing the engine's answer at rank k against
// an exact brute-force oracle computed over the same snapshot. The result
// is the mean per-query recall |answer ∩ exact| / |exact| over the sampled
// queries with non-empty exact answers (1 when every sampled answer is
// empty — there is nothing to miss). Exact back-ends measure 1 by
// construction; for BackendLSH this is the live honesty check behind the
// rknn_recall_estimate gauge.
//
// The oracle costs O(n) distance computations per sampled candidate pair
// with early exit, so keep samples small on large datasets; the telemetry
// gauge additionally caches per snapshot.
func (s *Searcher) RecallEstimate(samples, k int) (float64, error) {
	if samples <= 0 {
		return 0, fmt.Errorf("rknnd: recall sample count must be positive, got %d", samples)
	}
	if k <= 0 {
		return 0, fmt.Errorf("rknnd: core: K must be positive, got %d", k)
	}
	sn := s.snap.Load()
	return s.recallOverSnapshot(sn, samples, k)
}

// recallOverSnapshot runs the estimate against one pinned snapshot,
// bypassing the telemetry observers (the gauge calling back into observed
// query paths would count its own probes as traffic).
func (s *Searcher) recallOverSnapshot(sn *snapshot, samples, k int) (float64, error) {
	qr, err := sn.engines.Querier(k)
	if err != nil {
		return 0, fmt.Errorf("rknnd: %w", err)
	}
	ids := sampleLiveIDs(sn.ix, samples)
	if len(ids) == 0 {
		return 1, nil
	}
	// The oracle reads the rows straight off the snapshot, independent of
	// the back-end's own (possibly approximate) query machinery.
	live := sn.ix.Live
	rows := make([][]float64, sn.ix.IDSpan())
	for id := range rows {
		if live(id) {
			rows[id] = sn.ix.Point(id)
		}
	}
	dist := vecmath.KernelFor(sn.ix.Metric())
	var recallSum float64
	scored := 0
	for _, qid := range ids {
		res, err := qr.ByID(qid)
		if err != nil {
			return 0, fmt.Errorf("rknnd: recall probe %d: %w", qid, err)
		}
		exact := bruteforce.ReverseKNN(rows, live, dist, rows[qid], qid, k)
		if len(exact) == 0 {
			continue
		}
		recallSum += bruteforce.Recall(res.IDs, exact)
		scored++
	}
	if scored == 0 {
		return 1, nil
	}
	return recallSum / float64(scored), nil
}

// sampleLiveIDs picks up to samples distinct live member IDs, evenly
// strided over the ID span so repeated estimates probe the same queries
// until the dataset changes. Probing past a tombstone run never revisits an
// already-sampled ID, so no query is double-weighted.
func sampleLiveIDs(ix *index.Overlay, samples int) []int {
	span, live := ix.IDSpan(), ix.Live
	if span == 0 {
		return nil
	}
	stride := span / samples
	if stride < 1 {
		stride = 1
	}
	ids := make([]int, 0, samples)
	last := -1
	for id := 0; id < span && len(ids) < samples; id += stride {
		probe := id
		if probe <= last {
			probe = last + 1
		}
		for probe < span && !live(probe) {
			probe++
		}
		if probe < span {
			ids = append(ids, probe)
			last = probe
		}
	}
	return ids
}

// recallRecomputeInterval rate-limits the gauge's oracle runs: under a
// steady write stream every mutation installs a fresh snapshot, and without
// the limit every scrape would pay the full sampled oracle (and serialize
// concurrent scrapers behind the cache mutex). Between recomputations the
// gauge serves the last estimate, which can be at most this stale. A
// variable so tests can drop it to zero.
var recallRecomputeInterval = 30 * time.Second

// recallSyncMaxPoints bounds the dataset size up to which the gauge runs
// the oracle inline in the scrape. Above it a recompute is kicked off in
// the background and the scrape serves the previous estimate immediately
// (-1 before the first one completes), so /metrics latency never grows
// with the dataset — a million-point engine must not blow the scraper's
// timeout.
const recallSyncMaxPoints = 1 << 14

// recallCache memoizes the gauge's estimate, so scrapes only pay the
// oracle when the dataset changed since the last scrape — and at most once
// per recallRecomputeInterval under continuous change.
type recallCache struct {
	mu         sync.Mutex
	snap       *snapshot
	val        float64
	computedAt time.Time
	refreshing bool // a background recompute is in flight
}

// estimate returns the cached value when the snapshot is unchanged or the
// rate limit has not elapsed, recomputing otherwise — inline for small
// datasets, in the background (serving the previous value meanwhile) for
// large ones. Estimation failures, and scrapes landing before any estimate
// exists, report -1, distinguishable from any real recall, rather than
// poisoning or blocking scrapes.
func (c *recallCache) estimate(s *Searcher) float64 {
	sn := s.snap.Load()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.snap == sn {
		return c.val
	}
	if !c.computedAt.IsZero() && time.Since(c.computedAt) < recallRecomputeInterval {
		// Serve the cached value, but stop pinning the superseded snapshot
		// (and its index) in memory — identity can no longer match anyway.
		c.snap = nil
		return c.val
	}
	if sn.ix.Len() <= recallSyncMaxPoints {
		v, err := s.recallOverSnapshot(sn, DefaultRecallSamples, DefaultRecallRank)
		if err != nil {
			return -1
		}
		c.snap, c.val, c.computedAt = sn, v, time.Now()
		return v
	}
	if !c.refreshing {
		c.refreshing = true
		go func() {
			v, err := s.recallOverSnapshot(sn, DefaultRecallSamples, DefaultRecallRank)
			c.mu.Lock()
			c.refreshing = false
			if err == nil {
				c.snap, c.val, c.computedAt = sn, v, time.Now()
			}
			c.mu.Unlock()
		}()
	}
	if c.computedAt.IsZero() {
		return -1
	}
	return c.val
}
