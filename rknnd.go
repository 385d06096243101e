// Package repro is the public facade of this repository: reverse k-nearest
// neighbor search by dimensional testing, implementing Casanova, Englmeier,
// Houle, Kröger, Nett, Schubert, Zimek: "Dimensional Testing for Reverse
// k-Nearest Neighbor Search", PVLDB 10(7), 2017.
//
// A Searcher indexes a point set once and then answers reverse k-nearest
// neighbor queries with the paper's RDT+ algorithm (or plain RDT): which
// points of the dataset have the query among their k nearest neighbors?
//
//	s, err := repro.New(points)                    // cover-tree back-end, auto t
//	ids, err := s.ReverseKNN(queryID, 10)          // members of RkNN(query, 10)
//
// The approximation quality is governed by the scale parameter t, an upper
// bound on the local intrinsic dimensionality around queries: results are
// exact whenever t dominates the maximum generalized expansion dimension
// (Theorem 1 of the paper), and recall degrades gracefully for smaller t in
// exchange for speed. By default t is estimated from the data with the
// maximum-likelihood estimator of local intrinsic dimensionality; it can be
// pinned with WithScale or re-estimated with a different estimator via
// WithAutoScale.
//
// The subpackages under internal/ contain the full research apparatus — the
// competing methods (SFT, MRkNNCoP, RdNN-Tree, TPL), the forward-kNN
// back-ends, intrinsic-dimensionality estimators, and the
// harness reproducing the paper's experiments; see DESIGN.md.
package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/lid"
	"repro/internal/persist"
	"repro/internal/trace"
	"repro/internal/vecmath"
)

// Metric is a distance function on equal-length float64 vectors. The
// built-in metrics (Euclidean, Manhattan, Chebyshev, Minkowski, Angular)
// satisfy it; custom metrics must be symmetric, non-negative, and — for the
// exactness guarantee and the tree back-ends — obey the triangle inequality
// (Metricity must report whether it holds).
type Metric = vecmath.Metric

// Built-in metrics.
var (
	// Euclidean is the L2 metric (the paper's experimental setting).
	Euclidean Metric = vecmath.Euclidean{}
	// Manhattan is the L1 metric.
	Manhattan Metric = vecmath.Manhattan{}
	// Chebyshev is the L∞ metric.
	Chebyshev Metric = vecmath.Chebyshev{}
	// Angular is the angle between vectors, a true metric on directions.
	Angular Metric = vecmath.Angular{}
)

// Minkowski returns the Lp metric for p >= 1.
func Minkowski(p float64) (Metric, error) { return vecmath.NewMinkowski(p) }

// ParseMetric resolves a built-in metric by its stable registered name
// ("euclidean", "manhattan", "chebyshev", "angular", "minkowski(p)"), the
// same identity under which metrics round-trip through Save and Load.
func ParseMetric(name string) (Metric, error) { return vecmath.ParseMetric(name) }

// ErrDeleted reports a member query anchored at a deleted point. Queries
// racing Delete on the same ID fail with it (match with errors.Is); it is
// the expected outcome of that race, not a corruption.
var ErrDeleted = core.ErrDeletedID

// Backend selects the forward-kNN index structure feeding the expanding
// search.
type Backend string

// Available back-ends. The paper uses CoverTree for low- and
// medium-dimensional data and Scan for its highest-dimensional sets
// (Section 7.1). Every back-end takes Insert and Delete.
const (
	BackendCoverTree Backend = "covertree"
	BackendScan      Backend = "scan"
	// BackendLSH is the approximate back-end (Euclidean locality-sensitive
	// hashing): the expanding search streams only hash-collision candidates,
	// so results trade recall for throughput — the paper's claim (iii)
	// regime. Approximate() reports true, query responses carry an
	// "approximate" marker, and the recall telemetry (rknn_recall_estimate)
	// quantifies the trade live; see DESIGN.md, "Approximate serving tier".
	BackendLSH Backend = "lsh"
)

// Estimator selects how the scale parameter t is derived from the data
// (paper Section 6).
type Estimator string

// Available estimators of intrinsic dimensionality.
const (
	// EstimatorMLE is the maximum-likelihood (Hill) estimator of local
	// intrinsic dimensionality, averaged over a sample.
	EstimatorMLE Estimator = "mle"
	// EstimatorGP is the Grassberger-Procaccia correlation dimension.
	EstimatorGP Estimator = "gp"
	// EstimatorTakens is the Takens correlation-dimension estimator.
	EstimatorTakens Estimator = "takens"
)

// Stats describes the work one query performed; see the package core
// documentation for the meaning of each counter. TerminatedByOmega says which
// stop fired. DecidedByTable says that the snapshot's filled k-distance table
// answered: a filled Searcher answers the oracle — every x with d(q,x) ≤
// kdist_k(x), exact at any t — not plain RDT's retrieved set, by one walk of
// the index, so ScanDepth and every filter and refinement counter read 0 and
// Omega +Inf. The fields are core.Stats', in its order, so one converts into
// the other.
type Stats struct {
	ScanDepth         int
	FilterSize        int
	Excluded          int
	LazyAccepts       int
	LazyRejects       int
	Verified          int
	VerifiedHits      int
	DistanceComps     int64
	Omega             float64
	TerminatedByOmega bool
	DecidedByTable    bool
}

// Option configures New.
type Option func(*config)

type config struct {
	engineConfig
	metric Metric
	auto   Estimator
}

// engineConfig is the query-engine configuration every engine of this
// package carries: a Searcher, a ShardedSearcher and each of its shard
// engines hold the same value, a snapshot persists it and a restore reads
// it back.
type engineConfig struct {
	scale     float64 // the scale parameter t; 0 when adaptive
	plus      bool    // the RDT+ candidate reduction
	adaptive  bool
	margin    float64
	backend   Backend // recorded so Save can round-trip the index
	compactAt int     // delta-overlay compaction threshold; 0: default
}

// newConfig applies opts over the defaults.
func newConfig(opts []Option) (config, error) {
	cfg := config{
		engineConfig: engineConfig{scale: math.NaN(), plus: true, backend: BackendCoverTree},
		metric:       Euclidean,
		auto:         EstimatorMLE,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.metric == nil {
		return cfg, errors.New("rknnd: nil metric")
	}
	if err := backend.Check(string(cfg.backend)); err != nil {
		return cfg, fmt.Errorf("rknnd: %w", err)
	}
	return cfg, nil
}

// resolveScale settles the scale parameter: 0 for an adaptive engine, the
// pinned value, or the configured estimator's value over ix plus the
// margin, clamped to at least 1. A nil ix — the sharded callers, which hold
// no index over the full dataset — estimates through a throwaway scan index:
// the estimators are exact-kNN-based, so this yields the same t as
// estimating on any back-end over the same points.
func (c *config) resolveScale(ix index.Index, points [][]float64) error {
	if c.adaptive {
		if c.margin < 0 {
			return fmt.Errorf("rknnd: scale margin must be non-negative, got %v", c.margin)
		}
		c.scale = 0
		return nil
	}
	if math.IsNaN(c.scale) {
		if ix == nil {
			var err error
			if ix, err = backend.Build(string(BackendScan), points, c.metric); err != nil {
				return fmt.Errorf("rknnd: %w", err)
			}
		}
		estimateCalls.Add(1)
		t, err := lid.Estimate(string(c.auto), ix, points, c.metric)
		if err != nil {
			return fmt.Errorf("rknnd: estimating scale parameter: %w", err)
		}
		c.scale = max(t+c.margin, 1)
	}
	if !(c.scale > 0) {
		return fmt.Errorf("rknnd: scale parameter must be positive, got %v", c.scale)
	}
	return nil
}

// buildIndex builds the configured back-end over points the way every
// engine of this package holds one: under a delta overlay, so that queries
// merge a small memtable with the immutable base and Insert/Delete never
// touch the base.
func (c engineConfig) buildIndex(points [][]float64, metric Metric) (*index.Overlay, error) {
	ix, err := backend.Build(string(c.backend), points, metric)
	if err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	return index.NewOverlay(ix), nil
}

// WithMetric selects the distance (default Euclidean).
func WithMetric(m Metric) Option { return func(c *config) { c.metric = m } }

// WithBackend selects the forward index (default BackendCoverTree).
func WithBackend(b Backend) Option { return func(c *config) { c.backend = b } }

// WithScale pins the scale parameter t instead of estimating it. Larger t
// trades time for recall; t at least the dataset's MaxGED makes results
// exact (Theorem 1).
func WithScale(t float64) Option { return func(c *config) { c.scale = t } }

// WithAutoScale selects the intrinsic-dimensionality estimator used to set
// t (default EstimatorMLE). Ignored when WithScale is given.
func WithAutoScale(e Estimator) Option { return func(c *config) { c.auto = e } }

// WithScaleMargin adds a safety margin on top of an estimated t: the paper
// observes that the correlation-dimension estimators can slightly
// underestimate the scale needed for high recall (Section 8.1). The margin
// is ignored when WithScale pins t. Default 0.
func WithScaleMargin(m float64) Option { return func(c *config) { c.margin = m } }

// WithPlainRDT disables the RDT+ candidate-set reduction, trading speed on
// large filter sets for the guarantee that results are never false
// positives (RDT+ can mislabel through lazy acceptance; paper Section 4.3).
// An unsharded engine answers exactly, RDT+ or not, once a snapshot has
// filled its k-distance table for the rank (DESIGN.md, "The k-distance
// table").
func WithPlainRDT() Option { return func(c *config) { c.plus = false } }

// defaultCompactionThreshold is the delta size (memtable rows plus
// tombstones) past which a write triggers a background compaction. Large
// enough that the amortized per-write share of a fold is small — on scan and
// LSH, whose fold copies the rows, O(n) — small enough that the per-query
// merge overhead stays bounded.
const defaultCompactionThreshold = 256

// WithCompactionThreshold sets how large the delta overlay (recent inserts
// plus tombstones) may grow before a write triggers a background compaction
// folding it into a fresh base index. Smaller values bound per-query merge
// overhead tighter; larger values amortize the fold (O(n) on scan and LSH,
// O(delta · depth) on the cover tree) over more writes.
// Values below 1 select the default (256).
func WithCompactionThreshold(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 0
		}
		c.compactAt = n
	}
}

// WithAdaptiveScale re-estimates the scale parameter online at every step
// of each query's expanding search instead of fixing it up front — the
// dynamic adjustment the paper poses as future work (Section 9). WithScale
// and WithAutoScale are ignored when this is set; WithScaleMargin acts as
// the estimate multiplier minus one (margin 1 doubles the online estimate).
func WithAdaptiveScale() Option { return func(c *config) { c.adaptive = true } }

// Searcher answers reverse k-nearest neighbor queries over an indexed
// dataset. It is safe for unrestricted concurrent use, including queries
// racing with Insert and Delete: queries run lock-free against an immutable
// snapshot of the index, and each update installs a fresh snapshot with one
// atomic pointer swap (copy-on-write; see DESIGN.md). A query therefore
// always observes a consistent dataset — the one current when it started —
// never a half-applied update.
//
// Its query and write methods are the surface every engine shares
// (surface.go); what is the Searcher's own is the read set — its current
// snapshot — and the copy-on-write write path.
type Searcher struct {
	surface

	snap atomic.Pointer[snapshot]
	mu   sync.Mutex // serializes Insert/Delete (writers clone, then swap)

	// compacting admits one compactor at a time — a write that finds it held
	// walks away, compactNow waits on it — and compactions counts the folds
	// performed over the Searcher's lifetime.
	compacting  sync.Mutex
	compactions atomic.Int64

	// durable is the on-disk store the write path logs to once NewDurable or
	// Open attached one (persist.go); nil on an in-memory engine. sharded
	// marks a shard engine of a ShardedSearcher, whose store only the sharded
	// store may attach.
	durable atomic.Pointer[engineStore]
	sharded bool

	// fills runs the k-distance fills of the Searcher's snapshots; Close
	// stops them.
	fills core.FillGroup
}

// snapshot is one immutable generation of the index, together with its
// memoized query engines: one core.Querier per reverse-neighbor rank k serves
// every query against this generation, so queries on a warm rank allocate no
// engine state at all, and a rank that has served enough of them gets its
// k-distance table filled in the background (core.Engines; DESIGN.md, "The
// k-distance table").
type snapshot struct {
	ix      *index.Overlay
	engines *core.Engines
}

// newQuerier builds the configured query engine for rank k — fixed-scale
// Algorithm 1 or the adaptive variant, RDT or RDT+ — over src: a snapshot's
// index, or a sharded engine's federation of shard streams.
func (c engineConfig) newQuerier(src core.Source, k int) (*core.Querier, error) {
	if c.adaptive {
		return core.NewAdaptiveQuerier(src, core.AdaptiveParams{K: k, Multiplier: 1 + c.margin, Plus: c.plus})
	}
	return core.NewQuerier(src, core.Params{K: k, T: c.scale, Plus: c.plus})
}

// New indexes points and returns a Searcher. The points slice is retained
// by reference and must not be mutated afterwards; the engine never writes
// into it, nor into its capacity past its length.
func New(points [][]float64, opts ...Option) (*Searcher, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	ix, err := cfg.buildIndex(points, cfg.metric)
	if err != nil {
		return nil, err
	}
	if err := cfg.resolveScale(ix, points); err != nil {
		return nil, err
	}
	return newSearcher(cfg.engineConfig, ix), nil
}

// newSearcher assembles a Searcher around an index — deliberately without
// any scale estimation, so restores and shard engines never pay one.
func newSearcher(cfg engineConfig, ix *index.Overlay) *Searcher {
	s := &Searcher{}
	s.engineConfig, s.eng, s.bg = cfg, s, new(background)
	s.publish(ix)
	return s
}

// publish makes ix the snapshot every later query pins, and cancels the
// k-distance fills of the one it replaces. An approximate back-end never
// fills. Callers hold s.mu, or own s exclusively.
func (s *Searcher) publish(ix *index.Overlay) {
	fills := &s.fills
	if s.Approximate() {
		fills = nil
	}
	build := func(k int) (*core.Querier, error) { return s.newQuerier(ix, k) }
	if old := s.snap.Swap(&snapshot{ix: ix, engines: core.NewEngines(build, fills)}); old != nil {
		old.engines.Stop()
	}
}

// estimateCalls counts scale estimations; the persistence tests assert the
// recovery path never pays one.
var estimateCalls atomic.Int64

// Len returns the number of indexed points.
func (s *Searcher) Len() int { return s.snap.Load().ix.Len() }

// Dim returns the dimensionality of the indexed points.
func (s *Searcher) Dim() int { return s.snap.Load().ix.Dim() }

// pin: a Searcher's read set is its current snapshot.
func (s *Searcher) pin(*trace.Span) readSet { return s.snap.Load() }

// reverseKNN runs the snapshot's memoized query engine for rank k, counting
// the query toward the rank's k-distance fill.
func (sn *snapshot) reverseKNN(ctx context.Context, qid int, q []float64, k int) ([]int, Stats, []float64, error) {
	qr, err := sn.engines.Serve(k)
	if err != nil {
		return nil, Stats{}, nil, err
	}
	var res core.Result
	if q == nil {
		if res, err = qr.ByIDCtx(ctx, qid); err == nil {
			q = sn.ix.Point(qid) // live in this snapshot: core just ran from it
		}
	} else {
		res, err = qr.ByPointCtx(ctx, q)
	}
	if err != nil {
		return nil, Stats{}, nil, err
	}
	return res.IDs, fromCore(res.Stats), q, nil
}

// knn is the snapshot's forward kNN. (KNN, without validation, is the same
// search as a shard's shardClient.)
func (sn *snapshot) knn(_ context.Context, q []float64, k int) ([]Neighbor, error) {
	if err := checkQuery(sn.ix.Metric(), sn.ix.Dim(), q); err != nil {
		return nil, err
	}
	return sn.ix.KNN(q, k, -1), nil
}

// Neighbor is a dataset member paired with its distance from a query.
type Neighbor = index.Neighbor

// Point returns the coordinates of a dataset member. The returned slice is
// owned by the Searcher and must not be modified.
func (s *Searcher) Point(id int) []float64 { return s.snap.Load().ix.Point(id) }

// applyInsertBatch applies the batch copy-on-write (insertPoints) and then,
// when a store is attached, appends it to the log as one frame — one write,
// at most one fsync — still under the store's log lock, so the log holds the
// writes in the order they were applied. A closed or poisoned store refuses
// the write before anything is applied, an empty batch included. Queries are
// never blocked.
func (s *Searcher) applyInsertBatch(ctx context.Context, points [][]float64) ([]int, error) {
	h := s.durable.Load()
	if err := h.begin(); err != nil {
		return nil, err
	}
	defer h.end()
	if len(points) == 0 {
		return nil, nil
	}
	ids, err := s.insertPoints(points)
	if err != nil {
		return nil, err
	}
	s.maybeCompact()
	if h == nil {
		return ids, nil
	}
	var one [1]persist.WALRecord // a single insert logs without allocating
	records := one[:]
	if len(ids) > 1 {
		records = make([]persist.WALRecord, len(ids))
	}
	for i, id := range ids {
		records[i] = persist.WALRecord{Op: persist.WALInsert, ID: id, Point: points[i]}
	}
	return ids, h.append(ctx, records...)
}

// insertPoints inserts the points into one overlay clone — O(1), the clone
// shares base, memtable and tombstones — and publishes it. An invalid member
// rejects the whole batch before the clone is paid for, so a stream of bad
// requests cannot stall legitimate writers.
func (s *Searcher) insertPoints(points [][]float64) ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load().ix
	if err := checkPoints(cur.Metric(), cur.Dim(), points); err != nil {
		return nil, err
	}
	next := cur.Clone()
	ids := make([]int, len(points))
	for i, p := range points {
		id, err := next.Insert(p)
		if err != nil {
			return nil, fmt.Errorf("rknnd: point %d: %w", i, err)
		}
		ids[i] = id
	}
	s.publish(next)
	return ids, nil
}

// applyDelete tombstones the member copy-on-write (deletePoint) and logs the
// delete like applyInsertBatch logs an insert; a delete that changes nothing
// is not logged.
func (s *Searcher) applyDelete(ctx context.Context, id int) (bool, error) {
	h := s.durable.Load()
	if err := h.begin(); err != nil {
		return false, err
	}
	defer h.end()
	if !s.deletePoint(id) {
		return false, nil
	}
	s.maybeCompact()
	if h != nil {
		if err := h.append(ctx, persist.WALRecord{Op: persist.WALDelete, ID: id}); err != nil {
			return false, err
		}
	}
	return true, nil
}

// deletePoint tombstones the member on an overlay clone (which copies the
// tombstone set) and publishes it. Absent and already-deleted IDs are settled
// against the current snapshot before paying for the clone, and keep it warm.
func (s *Searcher) deletePoint(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load().ix
	if !cur.Live(id) {
		return false
	}
	next := cur.Clone()
	if !next.Delete(id) {
		return false
	}
	s.publish(next)
	return true
}

// compactThreshold returns the effective delta-overlay compaction
// threshold.
func (s *Searcher) compactThreshold() int {
	if s.compactAt > 0 {
		return s.compactAt
	}
	return defaultCompactionThreshold
}

// MemtableLen returns the number of delta-overlay memtable rows awaiting
// compaction — 0 right after a compaction.
func (s *Searcher) MemtableLen() int { return s.snap.Load().ix.MemtableLen() }

// Compactions returns how many delta-overlay compactions (folds of the
// memtable and tombstones into a fresh base index) the Searcher has
// performed.
func (s *Searcher) Compactions() int64 { return s.compactions.Load() }

// maybeCompact schedules a background compaction when the published delta
// overlay has grown past the threshold. At most one compaction runs at a
// time; writers are never blocked by it.
func (s *Searcher) maybeCompact() {
	if s.snap.Load().ix.Pending() < s.compactThreshold() || !s.compacting.TryLock() {
		return // nothing to fold yet, or a compaction is already folding
	}
	go s.compact(s.compactThreshold())
}

// compact freezes the published overlay and folds its delta into a clone of
// its base — the one step of the write path that grows with the delta (on
// scan and LSH, whose clone copies the rows, with n), performed off the write
// lock. The fold never writes to the published base, which readers keep
// querying meanwhile: a cover-tree clone shares its nodes, and the ownership
// rule (DESIGN.md, "Incremental write path") is what makes that safe. It then
// rebases the current overlay (which may have accumulated further
// writes meanwhile) onto the folded index and publishes it. Callers must hold
// s.compacting, which compact releases, and must not hold s.mu. The overlay
// is loaded here, under the lock: one a caller loaded before winning it may
// have been folded and rebased away by the compaction that held the lock
// meanwhile, and rebasing from a freeze that is no ancestor of the published
// overlay panics. A delta that has shrunk below atLeast is left alone.
//
// A compaction has no request context, so when tracing is enabled
// (EnableTracing) each fold records itself as its own root trace
// ("compact") in the ring; the fold duration also feeds
// rknn_compaction_duration_seconds when telemetry is enabled.
func (s *Searcher) compact(atLeast int) {
	defer s.compacting.Unlock()
	frozen := s.snap.Load().ix
	if frozen.Pending() < atLeast {
		return
	}
	ring := s.bg.ring.Load()
	var tr *trace.Trace
	var fsp *trace.Span
	start := time.Now()
	if ring != nil {
		tr = trace.New("compact", true)
		root := tr.Root()
		root.SetStr("backend", string(s.backend))
		fsp = root.Child("compact.fold")
		fsp.SetInt("memtable_rows", int64(frozen.MemtableLen()))
		fsp.SetInt("pending", int64(frozen.Pending()))
	}
	folded, err := frozen.Fold()
	fsp.End()
	if err != nil {
		// The base refused a row or a tombstone: leave the delta in place.
		if tr != nil {
			tr.Root().SetStr("error", err.Error())
			tr.Root().End()
			ring.Put(tr)
		}
		return
	}
	s.mu.Lock()
	s.publish(s.snap.Load().ix.Rebase(frozen, folded))
	s.compactions.Add(1)
	s.mu.Unlock()
	d := time.Since(start)
	if h := s.bg.compactHist.Load(); h != nil {
		h.Observe(d.Seconds())
	}
	if tr != nil {
		tr.Root().EndWithDuration(d)
		ring.Put(tr)
	}
}

// compactNow folds the current delta synchronously, waiting out any
// background compaction in flight. Used by the persistence paths so
// snapshots can ship the base back-end's native structure blob. Bounded, so
// a continuous stream of concurrent writers cannot stall a snapshot
// forever; snapshotRecord tolerates a residually-dirty overlay.
func (s *Searcher) compactNow() {
	for attempts := 0; attempts < 64 && s.snap.Load().ix.Dirty(); attempts++ {
		s.compacting.Lock() // waits on a fold in flight
		s.compact(1)
	}
}
