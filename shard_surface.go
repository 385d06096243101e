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
// forward-kNN probes with explicit self-exclusion, and the shard's
// self-description (Describe) behind the cluster handshake. They are
// ordinary public API: all answer from one pinned snapshot, with the same
// concurrency contract as every other read.

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
		if after.ID >= 0 && !index.Before(after, nb) {
			continue
		}
		if len(rows)-held == count {
			return rows, points, false, nil
		}
		rows = append(rows, nb)
		points = append(points, ix.Point(nb.ID))
	}
}

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

// checkPoints validates a batch of points to insert against an index's
// metric and dimension, naming the first member that fails.
func checkPoints(m Metric, dim int, points [][]float64) error {
	for i, p := range points {
		if err := vecmath.ValidateFor(m, p); err != nil {
			return fmt.Errorf("rknnd: point %d: %w", i, err)
		}
		if len(p) != dim {
			return fmt.Errorf("rknnd: point %d: dimension %d, index dimension %d", i, len(p), dim)
		}
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

// ShardDescription is a shard's self-description: its role (shard Shard of
// Shards), the engine shape every shard of one sharded engine must share for
// the merged neighbor stream to be the paper's — dimension, scale (0 when
// adaptive), RDT+ or plain RDT and the adaptive margin, back-end, metric
// identity — and the two counts the shard-map replay reads: live points and
// ID span (every member ID ever assigned, tombstones included, since hash
// placement follows assignment order, not liveness). A daemon serves it on
// GET /v1/shard/info; the one assembly rule (shardedCore.assemble) reads it
// from daemons and reopened shard stores alike. Fields are declared in the
// order of their JSON keys.
type ShardDescription struct {
	Backend     Backend `json:"backend"`
	Dim         int     `json:"dim"`
	IDSpan      int     `json:"id_span"`
	Margin      float64 `json:"margin"`
	MetricID    uint8   `json:"metric_id"`
	MetricParam float64 `json:"metric_param"`
	Plus        bool    `json:"plus"`
	Points      int     `json:"points"`
	Scale       float64 `json:"scale"`
	Shard       int     `json:"shard"`
	Shards      int     `json:"shards"`
}

// Describe returns the engine's description as shard `shard` of `shards`,
// read from one pinned snapshot.
func (s *Searcher) Describe(shard, shards int) (ShardDescription, error) {
	ix := s.snap.Load().ix
	id, param, err := vecmath.IdentifyMetric(ix.Metric())
	if err != nil {
		return ShardDescription{}, fmt.Errorf("rknnd: metric identity: %w", err)
	}
	return ShardDescription{
		Backend: s.backend, Dim: ix.Dim(), IDSpan: ix.IDSpan(),
		Margin: s.margin, MetricID: uint8(id), MetricParam: param, Plus: s.plus,
		Points: ix.Len(), Scale: s.scale, Shard: shard, Shards: shards,
	}, nil
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
