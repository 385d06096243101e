package repro

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// This file is the engine's public query and write surface, written once.
// The paper's algorithm is one query over a forward neighbor stream, and an
// update costs only what the forward index charges for it (Section 4), so
// what differs between engines is small: how a consistent read set is pinned
// and answered from — a Searcher's snapshot, a sharded engine's scatter set —
// and how a write is applied under the engine's lock. That is the engine
// interface; everything else — the eight ReverseKNN forms, the batch, forward
// kNN, the writes, their spans and their telemetry — is surface's, which
// Searcher and shardedCore (and through it ShardedSearcher and Coordinator)
// embed. See DESIGN.md, "One engine surface".

// engine is what one kind of engine supplies to the surface.
type engine interface {
	// pin returns the read set one query, or one batch, runs against. sp is
	// the operation's facade.pin span for the engine to annotate (nil when
	// untraced).
	pin(sp *trace.Span) readSet
	// applyInsertBatch applies an insert under the engine's own lock and
	// returns the new IDs in input order; an ID list beside an error means
	// applied but not logged (see InsertBatch). An empty batch checks that
	// the engine can take a write and applies nothing.
	applyInsertBatch(ctx context.Context, points [][]float64) ([]int, error)
	// applyDelete deletes a member under the engine's own lock, reporting
	// whether it was present.
	applyDelete(ctx context.Context, id int) (bool, error)
}

// readSet is one pinned, consistent view of the dataset. Its errors carry no
// "rknnd: " prefix; the surface adds it.
type readSet interface {
	// reverseKNN answers one RkNN query: at member qid when q is nil, at the
	// arbitrary point q otherwise (qid is then -1). It also returns the query
	// point, for the workload sketch.
	reverseKNN(ctx context.Context, qid int, q []float64, k int) ([]int, Stats, []float64, error)
	// knn answers forward kNN in ascending (distance, ID) order. A traced ctx
	// carries the core.knn span.
	knn(ctx context.Context, q []float64, k int) ([]Neighbor, error)
}

// surface is the public query and write surface of every engine.
type surface struct {
	engineConfig
	telemetryBinding
	eng engine
	bg  *background
}

// background is where an engine's work without a request — compaction
// folds — reports: a trace ring (EnableTracing) and the fold-duration
// histogram (EnableTelemetry). The shard engines of a ShardedSearcher share
// the sharded engine's, so one binding reaches every shard, present or
// populated later.
type background struct {
	ring        atomic.Pointer[trace.Ring]
	compactHist atomic.Pointer[telemetry.Histogram]
}

// EnableTracing points the engine at a trace ring: background work that has
// no request context records its own root traces there ("compact", one per
// fold, on every shard of a sharded engine). Request traces are the
// caller's — the HTTP server creates and retains them; pass its ring here so
// both kinds land side by side — and the engine only adds spans to whatever
// trace the context carries, ring or no ring. A Coordinator folds nothing, so on it the ring
// only waits. Safe to call while queries are in flight.
func (e *surface) EnableTracing(ring *trace.Ring) { e.bg.ring.Store(ring) }

// Scale returns the scale parameter t in effect, or 0 when t adapts online
// per query (WithAdaptiveScale).
func (e *surface) Scale() float64 { return e.scale }

// Backend returns the forward-index back-end the engine was built (or
// restored) with.
func (e *surface) Backend() Backend { return e.backend }

// Approximate reports whether queries run in the approximate regime: the
// back-end streams candidate rankings that may miss true neighbors
// (BackendLSH), so results are not guaranteed exact at any scale parameter.
// A sharded merge loses nothing its shards stream, so the approximation is
// exactly theirs. Exact back-ends return false.
func (e *surface) Approximate() bool { return e.backend == BackendLSH }

// ReverseKNN returns the IDs of the dataset members that have member qid
// among their k nearest neighbors, sorted ascending. The member itself is
// excluded.
func (e *surface) ReverseKNN(qid, k int) ([]int, error) {
	return e.ReverseKNNContext(context.Background(), qid, k)
}

// ReverseKNNContext is ReverseKNN with a context. When ctx carries a trace
// span (internal/trace), the query records facade.pin, then one core.rknn
// with its scan, filter and verify stages (on a sharded engine with one
// shard.scatter per shard beneath it); an untraced context costs one nil
// check per layer.
func (e *surface) ReverseKNNContext(ctx context.Context, qid, k int) ([]int, error) {
	ids, _, err := e.reverseKNN(ctx, opRkNN, qid, nil, k)
	return ids, err
}

// ReverseKNNPoint answers the query for an arbitrary point, which need not
// be a dataset member.
func (e *surface) ReverseKNNPoint(q []float64, k int) ([]int, error) {
	return e.ReverseKNNPointContext(context.Background(), q, k)
}

// ReverseKNNPointContext is ReverseKNNPoint with a context, traced like
// ReverseKNNContext.
func (e *surface) ReverseKNNPointContext(ctx context.Context, q []float64, k int) ([]int, error) {
	ids, _, err := e.reverseKNN(ctx, opRkNNPoint, -1, q, k)
	return ids, err
}

// ReverseKNNStats is ReverseKNN with the per-query work counters — on every
// engine those of the one algorithm run, so a sharded engine reports what a
// Searcher over the same points does.
func (e *surface) ReverseKNNStats(qid, k int) ([]int, Stats, error) {
	return e.ReverseKNNStatsContext(context.Background(), qid, k)
}

// ReverseKNNStatsContext is ReverseKNNStats with a context, traced like
// ReverseKNNContext.
func (e *surface) ReverseKNNStatsContext(ctx context.Context, qid, k int) ([]int, Stats, error) {
	return e.reverseKNN(ctx, opRkNN, qid, nil, k)
}

// ReverseKNNPointStats is ReverseKNNPoint with the per-query work counters.
func (e *surface) ReverseKNNPointStats(q []float64, k int) ([]int, Stats, error) {
	return e.ReverseKNNPointStatsContext(context.Background(), q, k)
}

// ReverseKNNPointStatsContext is ReverseKNNPointStats with a context,
// traced like ReverseKNNContext.
func (e *surface) ReverseKNNPointStatsContext(ctx context.Context, q []float64, k int) ([]int, Stats, error) {
	return e.reverseKNN(ctx, opRkNNPoint, -1, q, k)
}

// reverseKNN is every single reverse query: pin, answer, observe.
func (e *surface) reverseKNN(ctx context.Context, op string, qid int, q []float64, k int) ([]int, Stats, error) {
	tel, begin := e.telBegin()
	ids, st, q, err := e.pinTraced(ctx, op, 0).reverseKNN(ctx, qid, q, k)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("rknnd: %w", err)
	}
	if tel != nil {
		tel.observeQuery(op, k, q, st, begin)
	}
	return ids, st, nil
}

// pinTraced pins the engine's read set under a facade.pin span when ctx is
// traced.
func (e *surface) pinTraced(ctx context.Context, op string, members int) readSet {
	psp := trace.FromContext(ctx).Child("facade.pin")
	rs := e.eng.pin(psp)
	if psp != nil {
		psp.SetStr("backend", string(e.backend))
		psp.SetStr("op", op)
		if op == opBatch {
			psp.SetInt("members", int64(members))
		}
		if e.scale > 0 {
			psp.SetFloat("scale", e.scale)
		}
		psp.End()
	}
	return rs
}

// BatchReverseKNN answers many member queries concurrently on a worker pool
// (0 workers selects all cores; the pool is capped at the batch length and
// at GOMAXPROCS) and returns the per-query ID lists in input order.
func (e *surface) BatchReverseKNN(qids []int, k, workers int) ([][]int, error) {
	return e.BatchReverseKNNContext(context.Background(), qids, k, workers)
}

// BatchReverseKNNContext is BatchReverseKNN with cancellation. The whole
// batch runs against one pinned read set, so its results are mutually
// consistent even while Insert/Delete run concurrently (a daemon behind a
// Coordinator answers each call from its current snapshot — DESIGN.md,
// "Distributed serving"). Every member runs: a member's error is data, not a
// reason to stop the pool, and the batch reports the failing member that
// comes first in input order. Only ctx stops the batch: the pool stops
// dispatching, drains its in-flight queries, and returns ctx's error.
// Members that succeeded count in telemetry either way.
func (e *surface) BatchReverseKNNContext(ctx context.Context, qids []int, k, workers int) ([][]int, error) {
	tel, begin := e.telBegin()
	rs := e.pinTraced(ctx, opBatch, len(qids))
	out := make([][]int, len(qids))
	errs := make([]error, len(qids))
	err := core.ForEach(ctx, len(qids), workers, func(ctx context.Context, i int) {
		ids, st, _, err := rs.reverseKNN(ctx, qids[i], nil, k)
		out[i], errs[i] = ids, err
		if err == nil && tel != nil {
			tel.observeQuery(opBatch, k, nil, st, begin)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	if tel != nil {
		tel.observeLatency(opBatch, begin)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rknnd: query %d: %w", qids[i], err)
		}
	}
	return out, nil
}

// KNN returns the k forward nearest neighbors of an arbitrary point as
// (id, distance) pairs in ascending (distance, ID) order — the ordinary
// similarity query, exposed because reverse-neighbor applications almost
// always need it too.
func (e *surface) KNN(q []float64, k int) ([]Neighbor, error) {
	return e.KNNContext(context.Background(), q, k)
}

// KNNContext is KNN with a context; a traced request records the forward
// search as one "core.knn" span (on a sharded engine with one shard.scatter
// per shard beneath it).
func (e *surface) KNNContext(ctx context.Context, q []float64, k int) ([]Neighbor, error) {
	tel, begin := e.telBegin()
	ksp := trace.FromContext(ctx).Child("core.knn")
	if ksp != nil {
		ksp.SetStr("backend", string(e.backend))
		ksp.SetInt("k", int64(k))
		ctx = trace.With(ctx, ksp)
		defer ksp.End()
	}
	out, err := e.eng.pin(nil).knn(ctx, q, k)
	if err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	if tel != nil {
		at := tel.observeOp(opKNN, 1, begin)
		// Forward queries carry no pruning stats, but they are traffic with
		// a region: the sketch sees them with zeroed accumulators.
		tel.observeWorkload(opKNN, k, q, Stats{}, at.Sub(begin), at)
	}
	return out, nil
}

// Insert adds a point and returns its new ID: the one-point form of
// InsertBatchContext.
func (e *surface) Insert(p []float64) (int, error) {
	return e.InsertContext(context.Background(), p)
}

// InsertContext is Insert with a context.
func (e *surface) InsertContext(ctx context.Context, p []float64) (int, error) {
	return firstID(e.InsertBatchContext(ctx, [][]float64{p}))
}

// firstID unwraps the one-point form of a batch insert. The ID is passed on
// beside an error too: that is how an engine with a store reports a point
// applied in memory but not logged.
func firstID(ids []int, err error) (int, error) {
	if len(ids) == 0 {
		return 0, err
	}
	return ids[0], err
}

// InsertBatch adds many points in one write step and returns their IDs in
// input order. IDs are stable and dense in insertion order. A write that
// returns no IDs left nothing applied. IDs beside an error were applied in
// memory but not logged — the points stay visible until restart, and the
// store refuses further writes — or, on a sharded engine whose shards ended
// the write differently, the engine refuses every later write until a
// restart re-reads its shards (DESIGN.md, "Sharded scatter-gather"). An
// empty batch applies nothing but still fails on a closed or poisoned store.
//
// A Searcher applies the batch with one lock acquisition, one overlay clone
// that shares the base and the delta (WithCompactionThreshold bounds the
// delta a background compaction folds), one snapshot publication and, with
// a store attached (NewDurable, Open), one write-ahead append with at most
// one fsync; the batch is atomic. A sharded engine publishes its shard map
// first and then sends each involved shard its group, so a concurrent query
// either sees none of a point or can translate all of it.
func (e *surface) InsertBatch(points [][]float64) ([]int, error) {
	return e.InsertBatchContext(context.Background(), points)
}

// InsertBatchContext is InsertBatch with a context; a traced context
// records one "facade.apply" span around the whole write, with the WAL
// spans of a store, a shard engine's own apply span or a daemon's
// remote.call beneath it.
func (e *surface) InsertBatchContext(ctx context.Context, points [][]float64) ([]int, error) {
	tel, begin := e.telBegin()
	asp := trace.FromContext(ctx).Child("facade.apply")
	if asp != nil {
		asp.SetStr("op", opInsert)
		asp.SetInt("members", int64(len(points)))
		ctx = trace.With(ctx, asp)
		defer asp.End()
	}
	ids, err := e.eng.applyInsertBatch(ctx, points)
	if tel != nil && err == nil && len(ids) > 0 {
		tel.observeOp(opInsert, len(ids), begin)
	}
	return ids, err
}

// Delete removes a dataset member, reporting whether it was present; deletes
// that change nothing are not logged. IDs are never reused. The write
// discipline and error contract are Insert's.
func (e *surface) Delete(id int) (bool, error) {
	return e.DeleteContext(context.Background(), id)
}

// DeleteContext is Delete with a context, traced like InsertBatchContext.
func (e *surface) DeleteContext(ctx context.Context, id int) (bool, error) {
	tel, begin := e.telBegin()
	asp := trace.FromContext(ctx).Child("facade.apply")
	if asp != nil {
		asp.SetStr("op", opDelete)
		ctx = trace.With(ctx, asp)
		defer asp.End()
	}
	applied, err := e.eng.applyDelete(ctx, id)
	if tel != nil && applied && err == nil {
		tel.observeOp(opDelete, 1, begin)
	}
	return applied, err
}
