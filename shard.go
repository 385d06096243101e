package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/index"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vecmath"
)

// This file is the sharded face of the engine: a ShardedSearcher
// hash-partitions the dataset across S shards, each an independent
// copy-on-write Searcher, and answers every query by scatter-gather —
// fan the query out to all shards, merge the per-shard answers exactly.
//
// The merge is exact because reverse k-NN decomposes over any disjoint
// partition of the dataset: if x is a global reverse neighbor of q then,
// within x's own shard (a subset of the dataset), strictly fewer than k
// points lie closer to x than q does, so x is also a reverse neighbor of q
// within its shard. The union of per-shard results is therefore a superset
// of the global result, and one exact verification of each candidate —
// the paper's refinement test d_k(x) >= d(q,x), evaluated as "the shards'
// counts of points strictly closer to x than q sum to less than k" —
// filters it down to exactly the global answer. Forward kNN merges
// directly: the global top-k is the top-k of the per-shard top-k lists.
// See DESIGN.md, "Sharded scatter-gather".

// ShardInfo describes one shard of a ShardedSearcher for monitoring.
type ShardInfo struct {
	// Shard is the shard number in [0, Shards()).
	Shard int `json:"shard"`
	// Points is the number of live points the shard currently holds.
	Points int `json:"points"`
	// Queries counts scatter-gather visits this shard has served.
	Queries int64 `json:"queries"`
}

// shardSlot is the engine holder of one shard. The engine pointer is nil
// until the first point lands on the shard (hash partitioning can leave
// shards empty on small datasets) and is published atomically so queries
// never lock.
type shardSlot struct {
	eng     atomic.Pointer[Searcher]
	queries atomic.Int64
}

// ShardedSearcher answers reverse k-nearest neighbor queries over a
// dataset hash-partitioned across S shards. Each shard is an independent
// copy-on-write Searcher, so the concurrency contract matches Searcher:
// unrestricted concurrent queries racing Insert/Delete, with every
// per-shard read served from one frozen snapshot. Global IDs are stable
// and dense in insertion order, exactly like Searcher IDs, and are mapped
// to (shard, local) placements by an immutable index.ShardMap published
// with the same copy-on-write discipline.
//
// Results are deterministic: merges order by (distance, ID) and candidate
// verification evaluates the global refinement test exactly, so the answer
// does not depend on the shard count — the property the metamorphic
// conformance suite pins (shard_conformance_test.go).
type ShardedSearcher struct {
	scale     float64
	plus      bool
	adaptive  bool
	margin    float64
	backend   Backend
	metric    Metric
	dim       int
	dynamic   bool
	compactAt int // per-shard delta-overlay compaction threshold; 0: default
	quant     bool

	slots []*shardSlot
	smap  atomic.Pointer[index.ShardMap]
	mu    sync.Mutex // serializes Insert/Delete across the map and all shards

	// broken permanently poisons the write path after a half-applied batch
	// left global IDs in the shard map that no engine ever received (see
	// InsertBatch). Reads stay correct forever — such IDs answer as
	// not-found — but further writes to any shard would corrupt the map's
	// local-ID accounting, so they are all refused. Guarded by mu.
	broken error

	// tel/shardTel aggregate engine-level and per-shard query metrics when
	// telemetry is enabled (WithTelemetry / EnableTelemetry); nil when
	// disabled. Published atomically, like every read-path structure here.
	tel      atomic.Pointer[engineTelemetry]
	shardTel atomic.Pointer[[]*shardTelemetry]

	// traceRing/compactHist mirror the Searcher fields. They are kept here
	// as the source of truth so shard engines created after EnableTracing /
	// EnableTelemetry (a previously empty shard receiving its first point)
	// inherit them in newShardEngine.
	traceRing   atomic.Pointer[trace.Ring]
	compactHist atomic.Pointer[telemetry.Histogram]

	// Mutation hooks, called under mu. The durable wrapper overrides them
	// to route every applied mutation through a shard's write-ahead log.
	// insertShard reports applied=true when the in-memory insert took
	// effect even if the call failed afterwards (a WAL append failure),
	// in which case the global ID assignment must be kept.
	insertShard func(ctx context.Context, shard int, eng *Searcher, p []float64) (local int, applied bool, err error)
	createShard func(ctx context.Context, shard int, p []float64) (*Searcher, error)
	deleteShard func(ctx context.Context, shard int, eng *Searcher, local int) (bool, error)
	// Batch variants: one lock acquisition, one overlay clone, and (for the
	// durable wrapper) one WAL append per shard group instead of per point.
	// preflightInsert runs before any global ID is assigned so that
	// unusable shard stores reject the whole batch cleanly.
	insertShardBatch func(ctx context.Context, shard int, eng *Searcher, pts [][]float64) (locals []int, applied bool, err error)
	createShardBatch func(ctx context.Context, shard int, pts [][]float64) (*Searcher, error)
	preflightInsert  func(shards []int) error // nil: no preflight
}

// NewSharded partitions points across the given number of shards and
// returns a ShardedSearcher. The options are those of New; when the scale
// parameter is estimated, it is estimated once over the full dataset (not
// per shard), so a ShardedSearcher and a Searcher over the same points use
// the same t. The points slice is retained by reference.
func NewSharded(points [][]float64, shards int, opts ...Option) (*ShardedSearcher, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("rknnd: shard count must be positive, got %d", shards)
	}
	cfg := config{
		metric:  Euclidean,
		backend: BackendCoverTree,
		scale:   math.NaN(),
		auto:    EstimatorMLE,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.metric == nil {
		return nil, errors.New("rknnd: nil metric")
	}
	if err := vecmath.ValidateAllFor(cfg.metric, points); err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}

	scale := cfg.scale
	if cfg.adaptive {
		if cfg.margin < 0 {
			return nil, fmt.Errorf("rknnd: scale margin must be non-negative, got %v", cfg.margin)
		}
		scale = 0
	} else if math.IsNaN(scale) {
		// Estimate over the full dataset through a throwaway scan index —
		// the estimators are exact-kNN-based, so this yields the same t as
		// estimating on any back-end over the same points.
		full, err := harness.BuildBackend(string(BackendScan), points, cfg.metric)
		if err != nil {
			return nil, fmt.Errorf("rknnd: %w", err)
		}
		scale, err = estimate(cfg.auto, full, points, cfg.metric)
		if err != nil {
			return nil, fmt.Errorf("rknnd: estimating scale parameter: %w", err)
		}
		scale += cfg.margin
		if scale < 1 {
			scale = 1
		}
	}
	if !cfg.adaptive && !(scale > 0) {
		return nil, fmt.Errorf("rknnd: scale parameter must be positive, got %v", scale)
	}

	m, err := index.NewShardMap(shards)
	if err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	parts := make([][][]float64, shards)
	for range points {
		g, s, _ := m.Assign()
		parts[s] = append(parts[s], points[g])
	}

	ss := &ShardedSearcher{
		scale:     scale,
		plus:      !cfg.plain,
		adaptive:  cfg.adaptive,
		margin:    cfg.margin,
		backend:   cfg.backend,
		metric:    cfg.metric,
		dim:       len(points[0]),
		compactAt: cfg.compactAt,
		quant:     cfg.quant,
		slots:     make([]*shardSlot, shards),
	}
	for i := range ss.slots {
		ss.slots[i] = &shardSlot{}
	}
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		ix, err := harness.BuildBackend(string(cfg.backend), part, cfg.metric)
		if err != nil {
			return nil, fmt.Errorf("rknnd: shard %d: %w", s, err)
		}
		if cfg.quant {
			if err := enableQuantFilter(ix, nil); err != nil {
				return nil, err
			}
		}
		if !ss.dynamic {
			_, ss.dynamic = ix.(index.Cloner)
		}
		ss.slots[s].eng.Store(ss.newShardEngine(ix))
	}
	ss.smap.Store(m)
	ss.insertShard = ss.plainInsert
	ss.createShard = ss.plainCreate
	ss.deleteShard = ss.plainDelete
	ss.insertShardBatch = ss.plainInsertBatch
	ss.createShardBatch = ss.plainCreateBatch
	if cfg.reg != nil {
		ss.EnableTelemetry(cfg.reg)
	}
	return ss, nil
}

// newShardEngine wraps an index in a Searcher carrying the sharded
// engine's configuration — deliberately without any scale estimation.
func (ss *ShardedSearcher) newShardEngine(ix index.Index) *Searcher {
	s := &Searcher{
		scale:     ss.scale,
		plus:      ss.plus,
		adaptive:  ss.adaptive,
		margin:    ss.margin,
		backend:   ss.backend,
		compactAt: ss.compactAt,
		quant:     ss.quant,
	}
	if ss.quant {
		// Shards created after construction (a previously empty shard
		// receiving its first point) train their own codebook. NewSharded
		// already validated back-end support, so a failure here is
		// impossible; ignore it rather than poison the write path.
		if qf, ok := ix.(index.QuantFiltered); ok && qf.QuantCodebook() == nil {
			_ = qf.EnableQuantFilter(nil)
		}
	}
	s.snap.Store(&snapshot{ix: wrapOverlay(ix)})
	if ring := ss.traceRing.Load(); ring != nil {
		s.traceRing.Store(ring)
	}
	if h := ss.compactHist.Load(); h != nil {
		s.compactHist.Store(h)
	}
	return s
}

// Shards returns the shard count.
func (ss *ShardedSearcher) Shards() int { return len(ss.slots) }

// Scale returns the scale parameter t in effect on every shard (0 when
// adaptive).
func (ss *ShardedSearcher) Scale() float64 { return ss.scale }

// Backend returns the forward-index back-end of the shards.
func (ss *ShardedSearcher) Backend() Backend { return ss.backend }

// Approximate reports whether the shards run in the approximate regime
// (BackendLSH); see Searcher.Approximate. The scatter-gather merge is exact
// relative to the per-shard candidate sets, so the approximation is exactly
// the shards' own.
func (ss *ShardedSearcher) Approximate() bool { return ss.backend == BackendLSH }

// Dim returns the dimensionality of the indexed points.
func (ss *ShardedSearcher) Dim() int { return ss.dim }

// Len returns the number of live points across all shards.
func (ss *ShardedSearcher) Len() int {
	n := 0
	for _, slot := range ss.slots {
		if eng := slot.eng.Load(); eng != nil {
			n += eng.Len()
		}
	}
	return n
}

// ShardStats reports per-shard size and traffic counters, the monitoring
// surface behind the server's /statsz shards section.
func (ss *ShardedSearcher) ShardStats() []ShardInfo {
	out := make([]ShardInfo, len(ss.slots))
	for i, slot := range ss.slots {
		out[i] = ShardInfo{Shard: i, Queries: slot.queries.Load()}
		if eng := slot.eng.Load(); eng != nil {
			out[i].Points = eng.Len()
		}
	}
	return out
}

// Point returns the coordinates of a dataset member by global ID. The
// returned slice is owned by the engine and must not be modified. Like
// Searcher.Point, it panics on IDs that were never assigned. An ID whose
// assigning insert is still in flight — the map entry is published before
// the shard engine applies the point (the writer ordering) — is treated as
// not-found and returns nil, the same semantics member queries racing a
// write resolve to (ErrDeleted); an ID returned by Insert is always
// resolvable (Insert publishes before returning).
func (ss *ShardedSearcher) Point(global int) []float64 {
	m := ss.smap.Load()
	s, l, ok := m.Locate(global)
	if !ok {
		panic(fmt.Sprintf("rknnd: point id %d out of range [0,%d)", global, m.Len()))
	}
	eng := ss.slots[s].eng.Load()
	if eng == nil {
		return nil // map-published, engine not yet: the in-flight window
	}
	ix := eng.snap.Load().ix
	if lv, ok := ix.(index.Liveness); ok {
		if l >= lv.IDSpan() {
			return nil // same window: the engine snapshot trails the map
		}
	} else if l >= ix.Len() {
		return nil
	}
	return ix.Point(l)
}

// MemtableLen returns the delta-overlay memtable rows awaiting compaction,
// summed across shards.
func (ss *ShardedSearcher) MemtableLen() int {
	n := 0
	for _, slot := range ss.slots {
		if eng := slot.eng.Load(); eng != nil {
			n += eng.MemtableLen()
		}
	}
	return n
}

// Compactions returns the delta-overlay compactions performed, summed
// across shards.
func (ss *ShardedSearcher) Compactions() int64 {
	var n int64
	for _, slot := range ss.slots {
		if eng := slot.eng.Load(); eng != nil {
			n += eng.Compactions()
		}
	}
	return n
}

// QuantFiltered reports whether the quantized candidate pre-filter is
// active on the shards.
func (ss *ShardedSearcher) QuantFiltered() bool { return ss.quant }

// QuantFilterStats returns the quantized pre-filter's monotone lifetime
// totals summed across shards: candidate rows admitted to exact
// verification and rows screened out by the quantized lower bounds.
func (ss *ShardedSearcher) QuantFilterStats() (admitted, screened int64) {
	for _, slot := range ss.slots {
		if eng := slot.eng.Load(); eng != nil {
			a, s := eng.QuantFilterStats()
			admitted += a
			screened += s
		}
	}
	return admitted, screened
}

// shardView is one shard pinned for the duration of a query: the engine
// and the immutable snapshot the query will read. Pinning all views up
// front gives a cross-shard read set that updates cannot perturb
// mid-query.
type shardView struct {
	shard int
	slot  *shardSlot
	eng   *Searcher
	sn    *snapshot
}

// views pins the current snapshot of every non-empty shard. The shard map
// must be loaded AFTER this (writers publish map entries before engine
// snapshots), so every local ID any pinned snapshot can return is
// translatable; see pin.
func (ss *ShardedSearcher) views() []shardView {
	vs := make([]shardView, 0, len(ss.slots))
	for i, slot := range ss.slots {
		eng := slot.eng.Load()
		if eng == nil {
			continue
		}
		sn := eng.snap.Load()
		if sn.ix.Len() == 0 {
			continue
		}
		vs = append(vs, shardView{shard: i, slot: slot, eng: eng, sn: sn})
	}
	return vs
}

// pin captures a consistent read set: shard snapshots first, then the
// map. Writers publish in the opposite order (map, then snapshot), so the
// map here covers every ID the snapshots can surface.
func (ss *ShardedSearcher) pin() ([]shardView, *index.ShardMap) {
	vs := ss.views()
	return vs, ss.smap.Load()
}

// ReverseKNN returns the global IDs of the dataset members that have
// member qid among their k nearest neighbors, sorted ascending. The member
// itself is excluded.
func (ss *ShardedSearcher) ReverseKNN(qid, k int) ([]int, error) {
	return ss.ReverseKNNContext(context.Background(), qid, k)
}

// ReverseKNNContext is ReverseKNN with a context. When ctx carries a trace
// span, the scatter records one "shard.scatter" child per shard (each
// containing that shard's core stage spans) and the cross-shard
// re-verification a "shard.merge" span; an untraced context costs one nil
// check per layer.
func (ss *ShardedSearcher) ReverseKNNContext(ctx context.Context, qid, k int) ([]int, error) {
	views, m := ss.pinCtx(ctx)
	ids, _, err := ss.reverseKNN(ctx, ss.newScatterSet(views, m), qid, nil, k, opRkNN)
	return ids, err
}

// ReverseKNNStats is ReverseKNN with aggregated per-query work counters
// (summed across shards; Omega is the tightest shard bound).
func (ss *ShardedSearcher) ReverseKNNStats(qid, k int) ([]int, Stats, error) {
	return ss.ReverseKNNStatsContext(context.Background(), qid, k)
}

// ReverseKNNStatsContext is ReverseKNNStats with a context, traced like
// ReverseKNNContext.
func (ss *ShardedSearcher) ReverseKNNStatsContext(ctx context.Context, qid, k int) ([]int, Stats, error) {
	views, m := ss.pinCtx(ctx)
	return ss.reverseKNN(ctx, ss.newScatterSet(views, m), qid, nil, k, opRkNN)
}

// ReverseKNNPoint answers the query for an arbitrary point, which need not
// be a dataset member.
func (ss *ShardedSearcher) ReverseKNNPoint(q []float64, k int) ([]int, error) {
	return ss.ReverseKNNPointContext(context.Background(), q, k)
}

// ReverseKNNPointContext is ReverseKNNPoint with a context, traced like
// ReverseKNNContext.
func (ss *ShardedSearcher) ReverseKNNPointContext(ctx context.Context, q []float64, k int) ([]int, error) {
	views, m := ss.pinCtx(ctx)
	ids, _, err := ss.reverseKNN(ctx, ss.newScatterSet(views, m), -1, q, k, opRkNNPoint)
	return ids, err
}

// ReverseKNNPointStats is ReverseKNNPoint with the aggregated counters.
func (ss *ShardedSearcher) ReverseKNNPointStats(q []float64, k int) ([]int, Stats, error) {
	return ss.ReverseKNNPointStatsContext(context.Background(), q, k)
}

// ReverseKNNPointStatsContext is ReverseKNNPointStats with a context,
// traced like ReverseKNNContext.
func (ss *ShardedSearcher) ReverseKNNPointStatsContext(ctx context.Context, q []float64, k int) ([]int, Stats, error) {
	views, m := ss.pinCtx(ctx)
	return ss.reverseKNN(ctx, ss.newScatterSet(views, m), -1, q, k, opRkNNPoint)
}

// pinCtx is pin under a "facade.pin" span when ctx is traced.
func (ss *ShardedSearcher) pinCtx(ctx context.Context) ([]shardView, *index.ShardMap) {
	psp := trace.FromContext(ctx).Child("facade.pin")
	views, m := ss.pin()
	if psp != nil {
		psp.SetStr("backend", string(ss.backend))
		psp.SetInt("shards_pinned", int64(len(views)))
		if ss.scale > 0 {
			psp.SetFloat("scale", ss.scale)
		}
		psp.End()
	}
	return views, m
}

// newScatterSet wraps a pinned read set in the transport-independent
// scatter-gather layer: one localShard client per pinned view, plus the
// per-shard telemetry hook when enabled. The same scatterSet algorithm
// runs over remote clients in the Coordinator (shard_client.go).
func (ss *ShardedSearcher) newScatterSet(views []shardView, m *index.ShardMap) *scatterSet {
	clients := make([]shardClient, len(views))
	for i := range views {
		clients[i] = localShard{views[i]}
	}
	sc := &scatterSet{clients: clients, m: m, metric: ss.metric, dim: ss.dim}
	if p := ss.shardTel.Load(); p != nil {
		sts := *p
		sc.onStats = func(i int, st core.Stats) { sts[views[i].shard].observe(st) }
	}
	return sc
}

// reverseKNN is the scatter-gather RkNN query over a pinned read set —
// the generic algorithm of scatterSet.reverseKNN plus this engine's
// telemetry. qid >= 0 anchors the query at a member (q is then looked
// up); qid < 0 queries the arbitrary point q. op labels the query in the
// engine telemetry (batch members record per query here, unlike the
// unsharded batch, whose pool hides per-member timing; they also leave
// the latency histogram and the workload sketch to the batch call itself,
// matching the unsharded engine's semantics).
func (ss *ShardedSearcher) reverseKNN(ctx context.Context, sc *scatterSet, qid int, q []float64, k int, op string) ([]int, Stats, error) {
	tel := ss.tel.Load()
	var begin time.Time
	if tel != nil {
		begin = time.Now()
	}
	ids, st, resolvedQ, err := sc.reverseKNN(ctx, qid, q, k)
	if err != nil {
		return nil, Stats{}, err
	}
	if tel != nil {
		tel.countQueries(op, 1)
		d := time.Since(begin)
		at := begin.Add(d)
		if op != opBatch {
			tel.ops[op].window.Observe(d.Seconds(), at)
		}
		tel.observeStats(st, at)
		// Batch members skip the sketch like the unsharded engine: the
		// pool hides per-member timing, and one batch would flood the
		// top-K with its members' cells.
		if op != opBatch {
			tel.observeWorkload(op, k, resolvedQ, st, d, at)
		}
	}
	return ids, st, nil
}

// wrapShardErr prefixes shard-level errors with the facade's rknnd tag
// unless they already carry it.
func wrapShardErr(err error) error {
	return fmt.Errorf("rknnd: %w", err)
}

// KNN returns the k global forward nearest neighbors of an arbitrary point
// in ascending (distance, ID) order — the per-shard top-k lists k-way
// merged.
func (ss *ShardedSearcher) KNN(q []float64, k int) ([]Neighbor, error) {
	return ss.KNNContext(context.Background(), q, k)
}

// KNNContext is KNN with a context; a traced context records one
// "core.knn" root stage with per-shard "shard.scatter" children.
func (ss *ShardedSearcher) KNNContext(ctx context.Context, q []float64, k int) ([]Neighbor, error) {
	tel := ss.tel.Load()
	var begin time.Time
	if tel != nil {
		begin = time.Now()
	}
	ksp := trace.FromContext(ctx).Child("core.knn")
	if ksp != nil {
		ksp.SetStr("backend", string(ss.backend))
		ksp.SetInt("k", int64(k))
		ctx = trace.With(ctx, ksp)
		defer ksp.End()
	}
	if err := vecmath.ValidateFor(ss.metric, q); err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	if len(q) != ss.dim {
		return nil, fmt.Errorf("rknnd: query dimension %d, index dimension %d", len(q), ss.dim)
	}
	views, m := ss.pin()
	merged, err := ss.newScatterSet(views, m).knn(ctx, q, k)
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(merged))
	for i, nb := range merged {
		out[i] = Neighbor{ID: nb.ID, Dist: nb.Dist}
	}
	if tel != nil {
		tel.observeOp(opKNN, 1, begin)
	}
	return out, nil
}

// BatchReverseKNN answers many member queries concurrently on a worker
// pool (0 workers selects all cores; the pool is capped at the batch
// length and at GOMAXPROCS) and returns the per-query ID lists in input
// order. The first per-query error aborts the batch.
func (ss *ShardedSearcher) BatchReverseKNN(qids []int, k, workers int) ([][]int, error) {
	return ss.BatchReverseKNNContext(context.Background(), qids, k, workers)
}

// BatchReverseKNNContext is BatchReverseKNN with cancellation. The whole
// batch runs against one pinned set of shard snapshots, so its results are
// mutually consistent even while Insert/Delete run concurrently. The pool
// scaffolding is core.ForEach — the same clamps and cancellation contract
// as the single-engine batch.
func (ss *ShardedSearcher) BatchReverseKNNContext(ctx context.Context, qids []int, k, workers int) ([][]int, error) {
	tel := ss.tel.Load()
	var begin time.Time
	if tel != nil {
		begin = time.Now()
	}
	views, m := ss.pin()
	sc := ss.newScatterSet(views, m)
	out := make([][]int, len(qids))
	errs := make([]error, len(qids))
	err := core.ForEach(ctx, len(qids), workers, func(ctx context.Context, i int) error {
		ids, _, err := ss.reverseKNN(ctx, sc, qids[i], nil, k, opBatch)
		if err != nil {
			errs[i] = err
			return err
		}
		out[i] = ids
		return nil
	})
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		for i, e := range errs {
			if e != nil && !errors.Is(e, context.Canceled) {
				return nil, fmt.Errorf("rknnd: query %d: %w", qids[i], e)
			}
		}
		for i, e := range errs {
			if e != nil {
				return nil, fmt.Errorf("rknnd: query %d: %w", qids[i], e)
			}
		}
		return nil, fmt.Errorf("rknnd: %w", err) // invalid arguments (negative workers)
	}
	if tel != nil {
		// Members already counted themselves in reverseKNN; the batch call
		// contributes the single latency observation.
		tel.observeLatency(opBatch, begin)
	}
	return out, nil
}

// Insert adds a point to its hash-assigned shard and returns its new
// global ID. Requires a dynamic back-end (BackendCoverTree, BackendScan,
// BackendLSH). The shard map is published before the shard snapshot, so a
// concurrent query either sees neither or can translate everything it sees
// (an ID caught in that window answers as not-found until the insert
// completes).
func (ss *ShardedSearcher) Insert(p []float64) (int, error) {
	return ss.InsertContext(context.Background(), p)
}

// InsertContext is Insert with a context; a traced context records a
// "facade.apply" span covering the lock, shard-map clone, and shard
// mutation (WAL spans nest beneath it on a durable engine).
func (ss *ShardedSearcher) InsertContext(ctx context.Context, p []float64) (int, error) {
	tel := ss.tel.Load()
	var begin time.Time
	if tel != nil {
		begin = time.Now()
	}
	asp := trace.FromContext(ctx).Child("facade.apply")
	if asp != nil {
		asp.SetStr("op", "insert")
		ctx = trace.With(ctx, asp)
		defer asp.End()
	}
	g, err := ss.applyInsert(ctx, p)
	if tel != nil && err == nil {
		tel.observeOp(opInsert, 1, begin)
	}
	return g, err
}

func (ss *ShardedSearcher) applyInsert(ctx context.Context, p []float64) (int, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if !ss.dynamic {
		return 0, errors.New("rknnd: back-end does not support insertion")
	}
	if ss.broken != nil {
		return 0, ss.broken
	}
	if err := vecmath.ValidateFor(ss.metric, p); err != nil {
		return 0, fmt.Errorf("rknnd: %w", err)
	}
	if len(p) != ss.dim {
		return 0, fmt.Errorf("rknnd: point dimension %d, index dimension %d", len(p), ss.dim)
	}
	m := ss.smap.Load()
	m2 := m.Clone()
	g, s, l := m2.Assign()
	ss.smap.Store(m2)

	eng := ss.slots[s].eng.Load()
	if eng == nil {
		neweng, err := ss.createShard(ctx, s, p)
		if err != nil {
			ss.smap.Store(m) // the assignment never took effect
			return 0, err
		}
		ss.slots[s].eng.Store(neweng)
		return g, nil
	}
	local, applied, err := ss.insertShard(ctx, s, eng, p)
	if !applied {
		ss.smap.Store(m)
		return 0, err
	}
	if local != l {
		// The shard engine and the map disagree on the local ID — a broken
		// invariant that would silently corrupt every future translation.
		panic(fmt.Sprintf("rknnd: shard %d assigned local id %d, shard map expected %d", s, local, l))
	}
	if err != nil {
		// Applied in memory but not durably logged (WAL failure): the map
		// entry must stay, matching the visible in-memory state.
		return g, err
	}
	return g, nil
}

// Delete removes the dataset member with the given global ID, reporting
// whether it was present. Requires a dynamic back-end. The shard map keeps
// the ID forever (tombstones live in the shard index), so global IDs are
// never reused.
func (ss *ShardedSearcher) Delete(global int) (bool, error) {
	return ss.DeleteContext(context.Background(), global)
}

// DeleteContext is Delete with a context, traced like InsertContext.
func (ss *ShardedSearcher) DeleteContext(ctx context.Context, global int) (bool, error) {
	tel := ss.tel.Load()
	var begin time.Time
	if tel != nil {
		begin = time.Now()
	}
	asp := trace.FromContext(ctx).Child("facade.apply")
	if asp != nil {
		asp.SetStr("op", "delete")
		ctx = trace.With(ctx, asp)
		defer asp.End()
	}
	applied, err := ss.applyDelete(ctx, global)
	if tel != nil && applied && err == nil {
		tel.observeOp(opDelete, 1, begin)
	}
	return applied, err
}

func (ss *ShardedSearcher) applyDelete(ctx context.Context, global int) (bool, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if !ss.dynamic {
		return false, errors.New("rknnd: back-end does not support deletion")
	}
	if ss.broken != nil {
		return false, ss.broken
	}
	m := ss.smap.Load()
	s, l, ok := m.Locate(global)
	if !ok {
		return false, nil
	}
	eng := ss.slots[s].eng.Load()
	if eng == nil {
		return false, nil
	}
	return ss.deleteShard(ctx, s, eng, l)
}

// plainInsert routes an applied mutation to an in-memory shard engine.
func (ss *ShardedSearcher) plainInsert(ctx context.Context, shard int, eng *Searcher, p []float64) (int, bool, error) {
	id, err := eng.InsertContext(ctx, p)
	if err != nil {
		return 0, false, err
	}
	return id, true, nil
}

// plainCreate builds a fresh single-point shard engine for a shard that
// was empty until now.
func (ss *ShardedSearcher) plainCreate(_ context.Context, shard int, p []float64) (*Searcher, error) {
	ix, err := harness.BuildBackend(string(ss.backend), [][]float64{vecmath.Clone(p)}, ss.metric)
	if err != nil {
		return nil, fmt.Errorf("rknnd: shard %d: %w", shard, err)
	}
	return ss.newShardEngine(ix), nil
}

// plainDelete routes a deletion to an in-memory shard engine.
func (ss *ShardedSearcher) plainDelete(ctx context.Context, shard int, eng *Searcher, local int) (bool, error) {
	return eng.DeleteContext(ctx, local)
}

// InsertBatch adds many points in one write step: one shard-map clone, one
// lock acquisition, and per involved shard one overlay clone (and, on a
// durable engine, one WAL append with at most one fsync) for the whole
// batch. IDs are returned in input order. The batch is atomic in the common
// case; a failure applying one shard's group after the map is published (a
// disk fault mid-batch) leaves the other groups visible, returns the IDs
// with the error, and — when a group could not be applied in memory at all
// — permanently poisons the write path rather than let the shard map's
// local-ID accounting diverge from the engines (reads stay correct; the
// orphaned IDs answer as not-found).
func (ss *ShardedSearcher) InsertBatch(points [][]float64) ([]int, error) {
	return ss.InsertBatchContext(context.Background(), points)
}

// InsertBatchContext is InsertBatch with a context, traced like
// InsertContext with the batch size attached.
func (ss *ShardedSearcher) InsertBatchContext(ctx context.Context, points [][]float64) ([]int, error) {
	if len(points) == 0 {
		return nil, nil
	}
	tel := ss.tel.Load()
	var begin time.Time
	if tel != nil {
		begin = time.Now()
	}
	asp := trace.FromContext(ctx).Child("facade.apply")
	if asp != nil {
		asp.SetStr("op", "insert_batch")
		asp.SetInt("points", int64(len(points)))
		ctx = trace.With(ctx, asp)
		defer asp.End()
	}
	ids, err := ss.applyInsertBatch(ctx, points)
	if tel != nil && err == nil {
		tel.countQueries(opInsert, len(ids))
		tel.observeLatency(opInsert, begin)
	}
	return ids, err
}

func (ss *ShardedSearcher) applyInsertBatch(ctx context.Context, points [][]float64) ([]int, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if !ss.dynamic {
		return nil, errors.New("rknnd: back-end does not support insertion")
	}
	if ss.broken != nil {
		return nil, ss.broken
	}
	for i, p := range points {
		if err := vecmath.ValidateFor(ss.metric, p); err != nil {
			return nil, fmt.Errorf("rknnd: batch point %d: %w", i, err)
		}
		if len(p) != ss.dim {
			return nil, fmt.Errorf("rknnd: batch point %d: dimension %d, index dimension %d", i, len(p), ss.dim)
		}
	}
	// The shard of every batch member is a pure function of the current
	// global count, so the involved shards are known — and preflighted —
	// before any ID is assigned.
	m := ss.smap.Load()
	members := make(map[int][]int, len(ss.slots)) // shard -> batch indexes, in order
	for i := range points {
		s := index.ShardOf(m.Len()+i, ss.Shards())
		members[s] = append(members[s], i)
	}
	if ss.preflightInsert != nil {
		shards := make([]int, 0, len(members))
		for s := range members {
			shards = append(shards, s)
		}
		if err := ss.preflightInsert(shards); err != nil {
			return nil, err
		}
	}

	m2 := m.Clone()
	ids := make([]int, len(points))
	locals := make([]int, len(points))
	for i := range points {
		g, s, l := m2.Assign()
		if s != index.ShardOf(g, ss.Shards()) {
			panic(fmt.Sprintf("rknnd: shard map assigned id %d to shard %d, hash expected %d", g, s, index.ShardOf(g, ss.Shards())))
		}
		ids[i], locals[i] = g, l
	}
	ss.smap.Store(m2)

	var firstErr error
	fail := func(shard int, err error, applied bool) {
		if firstErr == nil {
			firstErr = fmt.Errorf("rknnd: batch shard %d: %w", shard, err)
		}
		if !applied {
			// The map now names IDs no engine holds; a later insert to this
			// shard would receive a local ID the map has already spent.
			// Refuse all future writes instead of corrupting translations.
			ss.broken = fmt.Errorf("rknnd: writes disabled: batch left shard %d inconsistent: %w", shard, err)
		}
	}
	for shard := 0; shard < len(ss.slots); shard++ {
		idx := members[shard]
		if len(idx) == 0 {
			continue
		}
		pts := make([][]float64, len(idx))
		for j, i := range idx {
			pts[j] = points[i]
		}
		eng := ss.slots[shard].eng.Load()
		if eng == nil {
			neweng, err := ss.createShardBatch(ctx, shard, pts)
			if err != nil {
				fail(shard, err, false)
				continue
			}
			ss.slots[shard].eng.Store(neweng)
			continue
		}
		got, applied, err := ss.insertShardBatch(ctx, shard, eng, pts)
		if !applied {
			fail(shard, err, false)
			continue
		}
		for j, i := range idx {
			if got[j] != locals[i] {
				panic(fmt.Sprintf("rknnd: shard %d assigned local id %d, shard map expected %d", shard, got[j], locals[i]))
			}
		}
		if err != nil {
			fail(shard, err, true) // applied but not durably logged
		}
	}
	if firstErr != nil {
		return ids, firstErr
	}
	return ids, nil
}

// plainInsertBatch routes a batch to an in-memory shard engine: one overlay
// clone for the whole group.
func (ss *ShardedSearcher) plainInsertBatch(ctx context.Context, shard int, eng *Searcher, pts [][]float64) ([]int, bool, error) {
	ids, err := eng.InsertBatchContext(ctx, pts)
	if err != nil {
		return nil, false, err
	}
	return ids, true, nil
}

// plainCreateBatch builds a fresh shard engine for a shard that was empty
// until now, holding the whole group.
func (ss *ShardedSearcher) plainCreateBatch(_ context.Context, shard int, pts [][]float64) (*Searcher, error) {
	cp := make([][]float64, len(pts))
	for i, p := range pts {
		cp[i] = vecmath.Clone(p)
	}
	ix, err := harness.BuildBackend(string(ss.backend), cp, ss.metric)
	if err != nil {
		return nil, fmt.Errorf("rknnd: shard %d: %w", shard, err)
	}
	return ss.newShardEngine(ix), nil
}
