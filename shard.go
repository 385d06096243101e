package repro

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vecmath"
)

// This file is the sharded face of the engine: a ShardedSearcher
// hash-partitions the dataset across S shards, each an independent
// copy-on-write Searcher, and answers every query over all of them at once.
//
// A reverse query is the unsharded algorithm, run once: the k-way merge of
// the shards' forward neighbor streams under the (distance, global ID)
// order is the neighbor stream of the whole dataset, which is all the
// paper's algorithm asks of its index, so one core.Querier runs over the
// merge (shard_client.go) and returns what a Searcher over the same points
// returns — answer and work counters, at every scale parameter. Forward kNN
// merges directly: the global top-k is the top-k of the per-shard top-k
// lists. See DESIGN.md, "Sharded scatter-gather".

// ShardInfo describes one shard of a ShardedSearcher for monitoring.
type ShardInfo struct {
	// Shard is the shard number in [0, Shards()).
	Shard int `json:"shard"`
	// Points is the number of live points the shard currently holds.
	Points int `json:"points"`
	// Queries counts scatter-gather visits this shard has served.
	Queries int64 `json:"queries"`
}

// shardWriter is the write side of one shard: the shard's *Searcher itself
// in memory, its *DurableSearcher on disk — which is all that distinguishes
// a durable sharded engine's write path from an in-memory one. nil IDs from
// InsertBatchContext mean nothing was applied; IDs beside an error mean the
// points are applied in memory but not logged (see DurableSearcher.Insert).
type shardWriter interface {
	InsertBatchContext(ctx context.Context, points [][]float64) ([]int, error)
	DeleteContext(ctx context.Context, id int) (bool, error)
}

// shardSlot is the engine holder of one shard. The engine pointer is nil
// until the first point lands on the shard (hash partitioning can leave
// shards empty on small datasets) and is published atomically so queries
// never lock; w is the same shard's write side, set with it and guarded by
// the ShardedSearcher's mu.
type shardSlot struct {
	eng     atomic.Pointer[Searcher]
	queries atomic.Int64
	w       shardWriter
}

// points returns the live points the shard holds (0 before its first).
func (sl *shardSlot) points() int {
	if eng := sl.eng.Load(); eng != nil {
		return eng.Len()
	}
	return 0
}

// writable reports why the slot's store can take no write — closed, or
// poisoned by an earlier log failure. An in-memory shard, and a shard not
// yet populated (its store opens with its first points), are writable.
func (sl *shardSlot) writable() error {
	d, ok := sl.w.(*DurableSearcher)
	if !ok {
		return nil
	}
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.usable()
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
// Results are deterministic and do not depend on the shard count: every
// shard streams in (distance, ID) order, so the merged stream — and with it
// every step of the algorithm — is the unsharded engine's. The metamorphic
// conformance suite pins it (shard_conformance_test.go).
type ShardedSearcher struct {
	engineConfig // shared by every shard engine
	metric       Metric
	dim          int
	dynamic      bool

	slots []*shardSlot
	smap  atomic.Pointer[index.ShardMap]
	mu    sync.Mutex // serializes Insert/Delete across the map and all shards

	// broken permanently poisons the write path after a half-applied write
	// left global IDs in the shard map that no engine ever received (see
	// applyInsertBatch). Reads stay correct forever — such IDs answer as
	// not-found — but further writes to any shard would corrupt the map's
	// local-ID accounting, so they are all refused. Guarded by mu.
	broken error

	// openStore, set by the durable wrapper, opens the on-disk store of a
	// shard engine built for a shard's first points and returns it as the
	// slot's writer. nil: shards live in memory and write to their engine.
	// Called under mu.
	openStore func(shard int, eng *Searcher) (shardWriter, error)

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
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := vecmath.ValidateAllFor(cfg.metric, points); err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	if err := cfg.resolveScale(nil, points); err != nil {
		return nil, err
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
		engineConfig: cfg.engineConfig,
		metric:       cfg.metric,
		dim:          len(points[0]),
		slots:        make([]*shardSlot, shards),
	}
	for s, part := range parts {
		ss.slots[s] = &shardSlot{}
		if len(part) == 0 {
			continue
		}
		eng, err := ss.newShardEngine(part)
		if err != nil {
			return nil, err
		}
		ss.slots[s].eng.Store(eng)
		ss.slots[s].w = eng
	}
	ss.dynamic = ss.shardsDynamic()
	ss.smap.Store(m)
	if cfg.reg != nil {
		ss.EnableTelemetry(cfg.reg)
	}
	return ss, nil
}

// newShardEngine builds a shard engine over points carrying the sharded
// engine's configuration — deliberately without any scale estimation — and
// its trace ring and compaction histogram.
func (ss *ShardedSearcher) newShardEngine(points [][]float64) (*Searcher, error) {
	ix, err := ss.buildIndex(points, ss.metric)
	if err != nil {
		return nil, err
	}
	s := newSearcher(ss.engineConfig, ix)
	s.traceRing.Store(ss.traceRing.Load())
	s.compactHist.Store(ss.compactHist.Load())
	return s, nil
}

// shardsDynamic reports whether the populated shards take writes (all
// shards share one back-end, so the first decides).
func (ss *ShardedSearcher) shardsDynamic() bool {
	for _, slot := range ss.slots {
		if eng := slot.eng.Load(); eng != nil {
			_, ok := eng.snap.Load().ix.(index.Cloner)
			return ok
		}
	}
	return false
}

// Shards returns the shard count.
func (ss *ShardedSearcher) Shards() int { return len(ss.slots) }

// Scale returns the scale parameter t in effect on every shard (0 when
// adaptive).
func (ss *ShardedSearcher) Scale() float64 { return ss.scale }

// Backend returns the forward-index back-end of the shards.
func (ss *ShardedSearcher) Backend() Backend { return ss.backend }

// Approximate reports whether the shards run in the approximate regime
// (BackendLSH); see Searcher.Approximate. The merge loses nothing the shards
// stream, so the approximation is exactly the shards' own.
func (ss *ShardedSearcher) Approximate() bool { return ss.backend == BackendLSH }

// Dim returns the dimensionality of the indexed points.
func (ss *ShardedSearcher) Dim() int { return ss.dim }

// Len returns the number of live points across all shards.
func (ss *ShardedSearcher) Len() int {
	n := 0
	for _, slot := range ss.slots {
		n += slot.points()
	}
	return n
}

// ShardStats reports per-shard size and traffic counters, the monitoring
// surface behind the server's /statsz shards section.
func (ss *ShardedSearcher) ShardStats() []ShardInfo {
	out := make([]ShardInfo, len(ss.slots))
	for i, slot := range ss.slots {
		out[i] = ShardInfo{Shard: i, Points: slot.points(), Queries: slot.queries.Load()}
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

// shardView is one shard pinned for the duration of a query: the immutable
// index generation the query will read. Pinning all views up front gives a
// cross-shard read set that updates cannot perturb mid-query.
type shardView struct {
	shard int
	slot  *shardSlot
	ix    index.Index
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
		if ix := eng.snap.Load().ix; ix.Len() > 0 {
			vs = append(vs, shardView{shard: i, slot: slot, ix: ix})
		}
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
// span, the query records one "core.rknn" with its scan, filter and verify
// stages, and beneath it one "shard.scatter" per shard covering that shard's
// neighbor stream; an untraced context costs one nil check per layer.
func (ss *ShardedSearcher) ReverseKNNContext(ctx context.Context, qid, k int) ([]int, error) {
	views, m := ss.pinCtx(ctx)
	ids, _, err := ss.reverseKNN(ctx, ss.newScatterSet(views, m), qid, nil, k, opRkNN)
	return ids, err
}

// ReverseKNNStats is ReverseKNN with the per-query work counters — those of
// the one algorithm run over the merged shard streams, equal to a Searcher's
// over the same points.
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

// newScatterSet wraps a pinned read set in the transport-independent query
// layer: one localShard client per pinned view, plus the per-shard
// instruments when telemetry is enabled. The same scatterSet code runs over
// remote clients in the Coordinator (shard_client.go).
func (ss *ShardedSearcher) newScatterSet(views []shardView, m *index.ShardMap) *scatterSet {
	sc := &scatterSet{engineConfig: ss.engineConfig, clients: make([]shardClient, len(views)), m: m, metric: ss.metric, dim: ss.dim}
	for i := range views {
		sc.clients[i] = localShard{&views[i]}
		sc.n += views[i].ix.Len()
	}
	if p := ss.shardTel.Load(); p != nil {
		sc.tel = *p
	}
	return sc
}

// reverseKNN is the RkNN query over a pinned read set — scatterSet.reverseKNN
// plus this engine's telemetry. qid >= 0 anchors the query at a member (q is then looked
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
	out, err := ss.newScatterSet(ss.pin()).knn(ctx, q, k)
	if tel != nil && err == nil {
		tel.observeOp(opKNN, 1, begin)
	}
	return out, err
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
// mutually consistent even while Insert/Delete run concurrently; see
// batchByID for the pool and the error precedence.
func (ss *ShardedSearcher) BatchReverseKNNContext(ctx context.Context, qids []int, k, workers int) ([][]int, error) {
	tel := ss.tel.Load()
	var begin time.Time
	if tel != nil {
		begin = time.Now()
	}
	sc := ss.newScatterSet(ss.pin())
	out, err := batchByID(ctx, qids, workers, func(ctx context.Context, qid int) ([]int, error) {
		ids, _, err := ss.reverseKNN(ctx, sc, qid, nil, k, opBatch)
		return ids, err
	})
	if tel != nil && err == nil {
		// Members already counted themselves in reverseKNN; the batch call
		// contributes the single latency observation.
		tel.observeLatency(opBatch, begin)
	}
	return out, err
}

// Insert adds a point to its hash-assigned shard and returns its new
// global ID. Requires a dynamic back-end (BackendCoverTree, BackendScan,
// BackendLSH). The shard map is published before the shard snapshot, so a
// concurrent query either sees neither or can translate everything it sees
// (an ID caught in that window answers as not-found until the insert
// completes). On a durable engine a log failure returns the ID beside the
// error: the point is applied in memory but not logged (see InsertBatch).
func (ss *ShardedSearcher) Insert(p []float64) (int, error) {
	return ss.InsertContext(context.Background(), p)
}

// InsertContext is Insert with a context: the one-point form of
// InsertBatchContext.
func (ss *ShardedSearcher) InsertContext(ctx context.Context, p []float64) (int, error) {
	return firstID(ss.InsertBatchContext(ctx, [][]float64{p}))
}

// Delete removes the dataset member with the given global ID, reporting
// whether it was present. Requires a dynamic back-end. The shard map keeps
// the ID forever (tombstones live in the shard index), so global IDs are
// never reused.
func (ss *ShardedSearcher) Delete(global int) (bool, error) {
	return ss.DeleteContext(context.Background(), global)
}

// DeleteContext is Delete with a context, traced like InsertBatchContext.
func (ss *ShardedSearcher) DeleteContext(ctx context.Context, global int) (bool, error) {
	tel := ss.tel.Load()
	var begin time.Time
	if tel != nil {
		begin = time.Now()
	}
	asp := trace.FromContext(ctx).Child("facade.apply")
	if asp != nil {
		asp.SetStr("op", opDelete)
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
	s, l, ok := ss.smap.Load().Locate(global)
	if !ok || ss.slots[s].w == nil {
		return false, nil
	}
	return ss.slots[s].w.DeleteContext(ctx, l)
}

// InsertBatch adds many points in one write step: one shard-map clone, one
// lock acquisition, and per involved shard one overlay clone (and, on a
// durable engine, one WAL append with at most one fsync) for the whole
// batch. IDs are returned in input order. A write that returns no IDs left
// nothing applied. A failure after some shard's group became visible (a
// disk fault mid-batch) leaves the applied groups visible and returns the
// IDs with the error; see applyInsertBatch for when that also poisons the
// write path.
func (ss *ShardedSearcher) InsertBatch(points [][]float64) ([]int, error) {
	return ss.InsertBatchContext(context.Background(), points)
}

// InsertBatchContext is InsertBatch with a context; a traced context
// records a "facade.apply" span covering the lock, shard-map clone, and
// shard mutations (each shard's own apply span, and the WAL spans of a
// durable engine, nest beneath it).
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
		asp.SetStr("op", opInsert)
		asp.SetInt("members", int64(len(points)))
		ctx = trace.With(ctx, asp)
		defer asp.End()
	}
	ids, err := ss.applyInsertBatch(ctx, points)
	if tel != nil && err == nil {
		tel.observeOp(opInsert, len(ids), begin)
	}
	return ids, err
}

// applyInsertBatch is the one insert path. The map is published with the
// new IDs first, then each involved shard's group goes through its slot's
// writer. A group can fail two ways. Applied in memory but not logged (a
// durable writer's log failure): its IDs stand, matching the visible state,
// and only that shard's store refuses from then on. Refused un-applied:
// if no group of this call is visible yet, the previous map is restored and
// the write never happened — always the case for a one-shard write, so a
// single insert is all-or-nothing; otherwise the map already names IDs no
// engine holds, and the engine poisons its write path (broken) rather than
// let the map's local-ID accounting diverge from the engines (reads stay
// correct; the orphaned IDs answer as not-found).
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
			return nil, fmt.Errorf("rknnd: point %d: %w", i, err)
		}
		if len(p) != ss.dim {
			return nil, fmt.Errorf("rknnd: point %d: dimension %d, index dimension %d", i, len(p), ss.dim)
		}
	}
	// The shard of every member is a pure function of the current global
	// count, so the involved shards are known — and their stores checked —
	// before any ID is assigned: a closed or poisoned store rejects the
	// whole write cleanly instead of tearing it.
	m := ss.smap.Load()
	groups := make([][]int, len(ss.slots)) // shard -> positions in points, in order
	for i := range points {
		s := index.ShardOf(m.Len()+i, len(ss.slots))
		groups[s] = append(groups[s], i)
	}
	for s, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		if err := ss.slots[s].writable(); err != nil {
			return nil, fmt.Errorf("rknnd: shard %d: %w", s, err)
		}
	}

	m2 := m.Clone()
	ids := make([]int, len(points))
	locals := make([]int, len(points))
	for i := range points {
		g, s, l := m2.Assign()
		if s != index.ShardOf(g, len(ss.slots)) {
			panic(fmt.Sprintf("rknnd: shard map assigned id %d to shard %d, hash expected %d", g, s, index.ShardOf(g, len(ss.slots))))
		}
		ids[i], locals[i] = g, l
	}
	ss.smap.Store(m2)

	var firstErr error
	visible := false // a group of this call has reached its shard engine
	for shard, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		pts := make([][]float64, len(idx))
		for j, i := range idx {
			pts[j] = points[i]
		}
		got, err := ss.insertGroup(ctx, shard, pts)
		if err != nil {
			err = fmt.Errorf("rknnd: shard %d: %w", shard, err)
			if firstErr == nil {
				firstErr = err
			}
		}
		if got == nil {
			if !visible {
				ss.smap.Store(m) // the assignment never took effect
				return nil, err
			}
			ss.broken = fmt.Errorf("rknnd: writes disabled: a write left shard %d without ids the shard map assigned: %w", shard, err)
			continue
		}
		visible = true
		for j, i := range idx {
			if got[j] != locals[i] {
				// The shard engine and the map disagree on a local ID — a
				// broken invariant that would silently corrupt every future
				// translation.
				panic(fmt.Sprintf("rknnd: shard %d assigned local id %d, shard map expected %d", shard, got[j], locals[i]))
			}
		}
	}
	return ids, firstErr
}

// insertGroup applies one shard's group of an insert through the slot's
// writer and returns the local IDs it assigned; nil IDs mean the group was
// refused un-applied. The first group to land on an empty shard builds its
// engine (over copies: the index retains its rows) and, on a durable
// engine, opens the shard's store, whose initial snapshot carries the
// points — no WAL record needed.
func (ss *ShardedSearcher) insertGroup(ctx context.Context, shard int, pts [][]float64) ([]int, error) {
	slot := ss.slots[shard]
	if slot.w != nil {
		return slot.w.InsertBatchContext(ctx, pts)
	}
	locals := make([]int, len(pts))
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		locals[i], rows[i] = i, vecmath.Clone(p)
	}
	eng, err := ss.newShardEngine(rows)
	if err != nil {
		return nil, err
	}
	var w shardWriter = eng
	if ss.openStore != nil {
		if w, err = ss.openStore(shard, eng); err != nil {
			return nil, err
		}
	}
	slot.w = w
	slot.eng.Store(eng)
	return locals, nil
}
