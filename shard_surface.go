package repro

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/vecmath"
)

// This file is the shard-serving surface of the facade: the handful of
// read-side methods a shard daemon exposes so a remote coordinator can run
// its queries against it — the forward neighbor stream it merges across
// shards, batched member-point lookups, batched verification counts and
// forward-kNN probes with explicit self-exclusion, the ID span behind the
// shard-map rebuild, and the metric identity and algorithm variant behind
// the coordinator's cross-shard configuration check. They are ordinary public
// API: all answer from one pinned snapshot, with the same concurrency
// contract as every other read.

// NeighborStream appends one chunk of the forward neighbor stream from q to
// rows and points (a daemon passes recycled staging; nil works): up to count
// members in ascending (distance, ID) order with their coordinates (points[i]
// belongs to rows[i]; owned by the engine, not to be modified), member skip
// excluded (-1 for none), starting after the row `after` in that order
// (after.ID < 0 starts at the nearest). done reports that the stream ends
// with this chunk. Resuming by key rather than by offset means each chunk may
// be answered from a newer snapshot than the last without ever repeating or
// reordering a row: a write between two chunks can only add or remove rows
// ahead of the key.
func (s *Searcher) NeighborStream(rows []Neighbor, points [][]float64, q []float64, skip int, after Neighbor, count int) (_ []Neighbor, _ [][]float64, done bool, err error) {
	ix := s.snap.Load().ix
	if count <= 0 {
		return rows, points, false, fmt.Errorf("rknnd: neighbor count must be positive, got %d", count)
	}
	if err := checkQuery(ix.Metric(), ix.Dim(), q); err != nil {
		return rows, points, false, fmt.Errorf("rknnd: %w", err)
	}
	cur := ix.NewCursor(q, max(skip, -1))
	defer cur.Close()
	held := len(rows)
	for {
		nb, ok := cur.Next()
		if !ok {
			return rows, points, true, nil
		}
		if after.ID >= 0 && !neighborBefore(after, nb) {
			continue
		}
		if len(rows)-held == count {
			return rows, points, false, nil
		}
		rows = append(rows, nb)
		points = append(points, ix.Point(nb.ID))
	}
}

// Algorithm reports which of the paper's algorithms the engine runs — RDT+
// (plus) or plain RDT — and the margin an adaptive engine (Scale() == 0)
// widens its online estimate by. A coordinator runs the query itself over
// its shards' neighbor streams, so it must learn both from the daemons.
func (s *Searcher) Algorithm() (plus bool, margin float64) { return s.plus, s.margin }

// checkQuery validates a query point against an index's metric and
// dimension.
func checkQuery(m Metric, dim int, q []float64) error {
	if err := vecmath.ValidateFor(m, q); err != nil {
		return err
	}
	if len(q) != dim {
		return fmt.Errorf("query dimension %d, index dimension %d", len(q), dim)
	}
	return nil
}

// KNNQuery is one probe of KNNSkipBatch: the query point, the rank, and an
// optional member ID to exclude from the result (-1 for none), made
// explicit because "fetch k+1 and drop the member" is not equivalent under
// duplicate-point distance ties.
type KNNQuery struct {
	Point []float64
	K     int
	Skip  int
}

// KNNSkipBatch answers many forward-kNN probes against one pinned
// snapshot, each in ascending (distance, ID) order with the probe's Skip
// member excluded.
func (s *Searcher) KNNSkipBatch(qs []KNNQuery) ([][]Neighbor, error) {
	sn := s.snap.Load()
	m := sn.ix.Metric()
	dim := sn.ix.Dim()
	out := make([][]Neighbor, len(qs))
	for i, q := range qs {
		if q.K <= 0 {
			return nil, fmt.Errorf("rknnd: core: K must be positive, got %d", q.K)
		}
		if err := checkQuery(m, dim, q.Point); err != nil {
			return nil, fmt.Errorf("rknnd: probe %d: %w", i, err)
		}
		out[i] = sn.ix.KNN(q.Point, q.K, max(q.Skip, -1))
	}
	return out, nil
}

// CountCloserQuery is one probe of CountCloserBatch: count the live points
// strictly closer to Point than Radius, excluding member Skip (-1 for
// none), and stop counting at Limit.
type CountCloserQuery = index.CountQuery

// CountCloserBatch answers many bounded strict range counts against one
// pinned snapshot: out[i] = min(Limit, |{y ≠ Skip live : d(Point, y) <
// Radius}|). It is this engine's share of a scattered RkNN verification —
// a candidate x is a reverse neighbor of q iff such counts for (x, d(q,x),
// k) sum to less than k across the shards — and all probes see the same
// generation of the index, which is what makes the pass sound: every
// candidate is settled over one consistent shard view.
func (s *Searcher) CountCloserBatch(qs []CountCloserQuery) ([]int, error) {
	ix := s.snap.Load().ix
	m := ix.Metric()
	dim := ix.Dim()
	out := make([]int, len(qs))
	for i, q := range qs {
		if q.Limit <= 0 {
			return nil, fmt.Errorf("rknnd: probe %d: limit must be positive, got %d", i, q.Limit)
		}
		if !(q.Radius >= 0) { // also rejects NaN
			return nil, fmt.Errorf("rknnd: probe %d: radius must be non-negative, got %v", i, q.Radius)
		}
		if err := checkQuery(m, dim, q.Point); err != nil {
			return nil, fmt.Errorf("rknnd: probe %d: %w", i, err)
		}
		out[i] = ix.CountCloser(q.Point, q.Radius, q.Limit, max(q.Skip, -1), nil)
	}
	return out, nil
}

// MemberPoints resolves member IDs to coordinates from one pinned
// snapshot. A nil row marks an ID with no live point there: deleted, out
// of range, or an insert still in flight. Unlike Point, it never panics —
// it is the remote-safe form a daemon can expose to untrusted IDs. The
// returned rows are owned by the engine and must not be modified.
func (s *Searcher) MemberPoints(ids ...int) [][]float64 {
	return livePoints(s.snap.Load().ix, ids)
}

// IDSpan returns the number of member IDs ever assigned, including
// tombstones — the quantity a coordinator needs to rebuild the global
// shard map, since hash placement is a pure function of assignment order,
// not of liveness.
func (s *Searcher) IDSpan() int { return s.snap.Load().ix.IDSpan() }

// MetricIdentity returns the registry identity (ID, parameter) of the
// engine's distance metric — the comparable form behind the coordinator's
// cross-shard configuration check, mirroring what OpenSharded verifies
// across on-disk shard stores.
func (s *Searcher) MetricIdentity() (uint8, float64, error) {
	id, param, err := vecmath.IdentifyMetric(s.snap.Load().ix.Metric())
	return uint8(id), param, err
}

// EstimateScale returns the scale parameter t that NewSharded over the same
// points and options settles on before partitioning: unless the options pin
// it (WithScale) or make it adaptive (0), the configured estimator
// (WithAutoScale, default MLE) runs against an exact scan index over all
// points, the margin (WithScaleMargin) is added, and the result is clamped
// to at least 1. A shard daemon uses this so S independently started
// processes, each holding one partition, agree on the t a single
// ShardedSearcher over the same dataset would use — a prerequisite for
// byte-identical networked answers.
func EstimateScale(points [][]float64, opts ...Option) (float64, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return 0, err
	}
	if err := vecmath.ValidateAllFor(cfg.metric, points); err != nil {
		return 0, fmt.Errorf("rknnd: %w", err)
	}
	if err := cfg.resolveScale(nil, points); err != nil {
		return 0, err
	}
	return cfg.scale, nil
}
