package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/trace"
	"repro/internal/vecmath"
)

// This file makes "a shard" an interface instead of a struct: the
// scatter-gather algorithm of shard.go talks to shardClient, and the two
// implementations — localShard over a pinned in-process snapshot (below)
// and remoteShard over HTTP (shard_remote.go) — answer the same five
// calls. The exact-merge argument in shard.go never mentions where a
// shard's index lives, so the algorithm is written once here and a
// Coordinator over networked daemons returns byte-identical answers to a
// ShardedSearcher over goroutines (cluster conformance suite,
// internal/server/cluster_test.go).
//
// All IDs crossing the interface are shard-local; the scatterSet owns the
// ShardMap and is the only layer that translates. Verification is batched
// per shard (Points and CountBatch take slices) so a remote shard costs a
// constant number of round trips per query, not one per candidate — and
// what comes back per candidate is one small integer, not a neighbor list:
// no IDs cross the interface during verification, so there is nothing to
// translate and nothing to merge.

// knnProbe is one forward-kNN probe: the probe point, the rank, and the
// local member ID to exclude (-1 for none).
type knnProbe struct {
	q    []float64
	k    int
	skip int
}

// shardClient is one shard of a scatter set. Implementations answer
// against a single consistent view of their shard: localShard pins one
// snapshot for the lifetime of the scatter set; a remote daemon answers
// each call from one snapshot (per-call consistency — see DESIGN.md,
// "Distributed serving", for what that weakens under concurrent writes).
type shardClient interface {
	// Shard is this client's shard number in the coordinate system of the
	// scatter set's ShardMap.
	Shard() int
	// CountQuery records one scatter visit in the shard's traffic counter.
	CountQuery()
	// ReverseKNNByID answers a member RkNN query anchored at a local ID,
	// returning local result IDs and the shard's work counters.
	ReverseKNNByID(ctx context.Context, local, k int) ([]int, core.Stats, error)
	// ReverseKNNByPoint answers the query for an external point.
	ReverseKNNByPoint(ctx context.Context, q []float64, k int) ([]int, core.Stats, error)
	// Points resolves local member IDs to coordinates; a nil row marks an
	// ID with no live point (deleted, or an insert still in flight).
	Points(ctx context.Context, locals []int) ([][]float64, error)
	// KNNBatch answers forward-kNN probes (local result IDs), all against
	// one consistent view of the shard.
	KNNBatch(ctx context.Context, probes []knnProbe) ([][]index.Neighbor, error)
	// CountBatch answers verification probes (Skip is a local member ID),
	// one count per probe in probe order, all against one consistent view
	// of the shard.
	CountBatch(ctx context.Context, probes []CountCloserQuery) ([]int, error)
}

// livePoint fetches local ID l from a pinned index view, or nil when the
// view holds no live point under l: a tombstone, or an ID the shard map
// published ahead of the engine snapshot (the in-flight insert window).
func livePoint(ix index.Index, l int) []float64 {
	if l < 0 {
		return nil
	}
	if lv, ok := ix.(index.Liveness); ok {
		if l >= lv.IDSpan() || !lv.Live(l) {
			return nil
		}
	} else if l >= ix.Len() {
		return nil
	}
	return ix.Point(l)
}

// localShard adapts one pinned shard view to shardClient — the in-process
// implementation, and the zero-overhead baseline: every method body is
// what shard.go inlined before the interface existed.
type localShard struct {
	v shardView
}

func (l localShard) Shard() int  { return l.v.shard }
func (l localShard) CountQuery() { l.v.slot.queries.Add(1) }

func (l localShard) ReverseKNNByID(ctx context.Context, local, k int) ([]int, core.Stats, error) {
	qr, err := l.v.sn.querier(l.v.eng, k)
	if err != nil {
		return nil, core.Stats{}, err
	}
	res, err := qr.ByIDCtx(ctx, local)
	if err != nil {
		return nil, core.Stats{}, err
	}
	return res.IDs, res.Stats, nil
}

func (l localShard) ReverseKNNByPoint(ctx context.Context, q []float64, k int) ([]int, core.Stats, error) {
	qr, err := l.v.sn.querier(l.v.eng, k)
	if err != nil {
		return nil, core.Stats{}, err
	}
	res, err := qr.ByPointCtx(ctx, q)
	if err != nil {
		return nil, core.Stats{}, err
	}
	return res.IDs, res.Stats, nil
}

func (l localShard) Points(_ context.Context, locals []int) ([][]float64, error) {
	rows := make([][]float64, len(locals))
	for i, lid := range locals {
		rows[i] = livePoint(l.v.sn.ix, lid)
	}
	return rows, nil
}

func (l localShard) KNNBatch(_ context.Context, probes []knnProbe) ([][]index.Neighbor, error) {
	out := make([][]index.Neighbor, len(probes))
	for i, p := range probes {
		out[i] = l.v.sn.ix.KNN(p.q, p.k, p.skip)
	}
	return out, nil
}

func (l localShard) CountBatch(_ context.Context, probes []CountCloserQuery) ([]int, error) {
	out := make([]int, len(probes))
	for i, p := range probes {
		out[i] = l.v.sn.ix.CountCloser(p.Point, p.Radius, p.Limit, p.Skip, nil)
	}
	return out, nil
}

// scatterSet is a pinned set of shard clients plus the shard map that
// translates their local IDs — everything the transport-independent
// scatter-gather needs. ShardedSearcher builds one per pin over
// localShards; Coordinator builds one per query over remoteShards.
type scatterSet struct {
	clients []shardClient
	m       *index.ShardMap
	metric  Metric
	dim     int
	backend Backend // labels the spans this layer opens
	// onStats, when set, receives each scatter visit's work counters after
	// a successful scatter (i indexes clients) — the per-shard telemetry
	// hook.
	onStats func(i int, st core.Stats)
}

// reverseKNN is the scatter-gather RkNN query. A nil q anchors the query
// at member qid (resolved from its home shard — qid may be any integer;
// out-of-range values fail like the unsharded engine's); a non-nil q
// queries that arbitrary point (qid is then ignored, pass -1). Returns the
// merged global IDs, the aggregated work counters, and the resolved query
// point (for workload telemetry).
func (sc *scatterSet) reverseKNN(ctx context.Context, qid int, q []float64, k int) ([]int, Stats, []float64, error) {
	if k <= 0 {
		return nil, Stats{}, nil, fmt.Errorf("rknnd: core: K must be positive, got %d", k)
	}
	homeLocal, home := -1, -1
	if q == nil {
		s, l, ok := sc.m.Locate(qid)
		if !ok {
			return nil, Stats{}, nil, fmt.Errorf("rknnd: core: query id %d out of range [0,%d)", qid, sc.m.Len())
		}
		homeLocal = l
		for i, c := range sc.clients {
			if c.Shard() == s {
				home = i
				break
			}
		}
		if home < 0 {
			// The member's shard pinned empty (or unpublished): every copy
			// of the point this read set can see is gone.
			return nil, Stats{}, nil, fmt.Errorf("rknnd: core: query id %d: %w", qid, ErrDeleted)
		}
		rows, err := sc.clients[home].Points(ctx, []int{l})
		if err != nil {
			return nil, Stats{}, nil, wrapShardErr(err)
		}
		if len(rows) != 1 || rows[0] == nil {
			return nil, Stats{}, nil, fmt.Errorf("rknnd: core: query id %d: %w", qid, ErrDeleted)
		}
		q = rows[0]
	} else {
		if err := vecmath.ValidateFor(sc.metric, q); err != nil {
			return nil, Stats{}, nil, fmt.Errorf("rknnd: %w", err)
		}
		if len(q) != sc.dim {
			return nil, Stats{}, nil, fmt.Errorf("rknnd: query dimension %d, index dimension %d", len(q), sc.dim)
		}
	}

	// Scatter: per-shard RkNN. The member's home shard runs a member query
	// (self-exclusion applies there); every other shard sees q as an
	// external point.
	type shardResult struct {
		globals []int // translated, ascending
		stats   core.Stats
	}
	results := make([]shardResult, len(sc.clients))
	qsp := trace.FromContext(ctx)
	err := core.Gather(ctx, len(sc.clients), func(ctx context.Context, i int) error {
		c := sc.clients[i]
		c.CountQuery()
		// One scatter span per shard; the shard's stage spans (core stages
		// in-process, remote.call hops over the network) nest beneath it.
		// Child/With are nil-safe, so the untraced path pays a single
		// pointer comparison here.
		ssp := qsp.Child("shard.scatter")
		if ssp != nil {
			ssp.SetInt("shard", int64(c.Shard()))
			ctx = trace.With(ctx, ssp)
			defer ssp.End()
		}
		var (
			locals []int
			st     core.Stats
			err    error
		)
		if i == home {
			locals, st, err = c.ReverseKNNByID(ctx, homeLocal, k)
		} else {
			locals, st, err = c.ReverseKNNByPoint(ctx, q, k)
		}
		if err != nil {
			return err
		}
		globals := make([]int, len(locals))
		for j, l := range locals {
			g, ok := sc.m.Global(c.Shard(), l)
			if !ok {
				return fmt.Errorf("shard %d returned unmapped local id %d", c.Shard(), l)
			}
			globals[j] = g
		}
		if ssp != nil {
			ssp.SetInt("results", int64(len(locals)))
		}
		results[i] = shardResult{globals: globals, stats: st}
		return nil
	})
	if err != nil {
		return nil, Stats{}, nil, wrapShardErr(err)
	}
	if sc.onStats != nil {
		for i, r := range results {
			sc.onStats(i, r.stats)
		}
	}

	stats := Stats{Omega: math.Inf(1)}
	lists := make([][]int, len(results))
	for i, r := range results {
		lists[i] = r.globals
		stats.ScanDepth += r.stats.ScanDepth
		stats.FilterSize += r.stats.FilterSize
		stats.Excluded += r.stats.Excluded
		stats.LazyAccepts += r.stats.LazyAccepts
		stats.LazyRejects += r.stats.LazyRejects
		stats.Verified += r.stats.Verified
		stats.DistanceComps += r.stats.DistanceComps
		if r.stats.Omega < stats.Omega {
			stats.Omega = r.stats.Omega
		}
	}

	// One populated shard holds the entire dataset, so its answer is
	// definitionally the global answer — the same algorithm an unsharded
	// engine runs. Verification below is only the cross-shard merge step;
	// skipping it here makes a single-shard set byte-identical to a
	// Searcher (and avoids one count pass per candidate).
	if len(results) == 1 {
		return results[0].globals, stats, q, nil
	}
	msp := qsp.Child("shard.merge")
	candidates := core.MergeIDs(lists, nil)
	mctx := ctx
	if msp != nil {
		mctx = trace.With(ctx, msp)
	}
	ids, err := sc.verify(mctx, candidates, q, k)
	if err != nil {
		msp.End()
		return nil, Stats{}, nil, err
	}
	stats.Verified += len(candidates)
	stats.DistanceComps += int64(len(candidates))
	if msp != nil {
		msp.SetInt("candidates", int64(len(candidates)))
		msp.SetInt("results", int64(len(ids)))
		msp.End()
	}
	return ids, stats, q, nil
}

// verify runs the refinement test d_k(x) >= d(q,x) for every candidate x
// against the union of all shards, as a count: x is a global reverse
// neighbor iff fewer than k points of the whole dataset lie strictly closer
// to x than q does, and over a disjoint partition that number is the sum of
// the per-shard counts. Each shard counts no further than k — a shard
// reporting k settles the candidate on its own, and below k the count is
// exact — so the sum is < k exactly when the true total is. The per-shard
// work is batched — one Points fetch per home shard, one CountBatch per
// shard over all candidates — so a remote shard costs O(1) round trips per
// query and answers with one integer per candidate.
//
// A candidate whose home shard no longer holds it (a nil Points row: it was
// deleted between that shard's RkNN call and its Points call, the per-RPC
// consistency window of remote shards) is dropped — a deleted point is
// nobody's reverse neighbor.
func (sc *scatterSet) verify(ctx context.Context, candidates []int, q []float64, k int) ([]int, error) {
	n := len(candidates)
	if n == 0 {
		return []int{}, nil
	}
	clientByShard := make(map[int]int, len(sc.clients))
	for i, c := range sc.clients {
		clientByShard[c.Shard()] = i
	}
	homeOf := make([]int, n) // client index of the candidate's home shard
	localOf := make([]int, n)
	groups := make(map[int][]int, len(sc.clients)) // client index -> candidate positions
	for j, g := range candidates {
		s, l, ok := sc.m.Locate(g)
		if !ok {
			return nil, fmt.Errorf("rknnd: candidate id %d not in shard map", g)
		}
		ci, ok := clientByShard[s]
		if !ok {
			return nil, fmt.Errorf("rknnd: candidate id %d has no pinned shard", g)
		}
		homeOf[j], localOf[j] = ci, l
		groups[ci] = append(groups[ci], j)
	}

	// Resolve every candidate's coordinates, one batched fetch per home
	// shard.
	px := make([][]float64, n)
	involved := make([]int, 0, len(groups))
	for ci := range groups {
		involved = append(involved, ci)
	}
	err := core.Gather(ctx, len(involved), func(ctx context.Context, gi int) error {
		ci := involved[gi]
		pos := groups[ci]
		locals := make([]int, len(pos))
		for t, j := range pos {
			locals[t] = localOf[j]
		}
		rows, err := sc.clients[ci].Points(ctx, locals)
		if err != nil {
			return err
		}
		if len(rows) != len(pos) {
			return fmt.Errorf("shard %d returned %d points for %d ids", sc.clients[ci].Shard(), len(rows), len(pos))
		}
		for t, j := range pos {
			px[j] = rows[t]
		}
		return nil
	})
	if err != nil {
		return nil, wrapShardErr(err)
	}

	// One probe per candidate still alive, shared by every shard up to the
	// self-exclusion on the candidate's home shard.
	alive := make([]int, 0, n) // candidate positions with a live point
	probes := make([]CountCloserQuery, 0, n)
	for j := range candidates {
		if px[j] == nil {
			continue
		}
		alive = append(alive, j)
		probes = append(probes, CountCloserQuery{Point: px[j], Radius: sc.metric.Distance(q, px[j]), Limit: k, Skip: -1})
	}
	if len(probes) == 0 {
		return []int{}, nil
	}
	counts := make([][]int, len(sc.clients))
	err = core.Gather(ctx, len(sc.clients), func(ctx context.Context, i int) error {
		c := sc.clients[i]
		mine := slices.Clone(probes)
		for t, j := range alive {
			if homeOf[j] == i {
				mine[t].Skip = localOf[j]
			}
		}
		res, err := c.CountBatch(ctx, mine)
		if err != nil {
			return err
		}
		if len(res) != len(mine) {
			return fmt.Errorf("shard %d returned %d counts for %d probes", c.Shard(), len(res), len(mine))
		}
		counts[i] = res
		return nil
	})
	if err != nil {
		return nil, wrapShardErr(err)
	}

	ids := make([]int, 0, len(alive))
	for t, j := range alive {
		closer := 0
		for i := range sc.clients {
			closer += counts[i][t]
		}
		if closer < k {
			ids = append(ids, candidates[j])
		}
	}
	return ids, nil
}

// knn is the scatter-gather forward-kNN query: per-shard top-k lists,
// k-way merged to global top-k in ascending (distance, ID) order. A traced
// context records one "core.knn" stage with a "shard.scatter" child per
// shard.
func (sc *scatterSet) knn(ctx context.Context, q []float64, k int) ([]Neighbor, error) {
	sp := trace.FromContext(ctx).Child("core.knn")
	if sp != nil {
		sp.SetStr("backend", string(sc.backend))
		sp.SetInt("k", int64(k))
		defer sp.End()
	}
	if err := vecmath.ValidateFor(sc.metric, q); err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	if len(q) != sc.dim {
		return nil, fmt.Errorf("rknnd: query dimension %d, index dimension %d", len(q), sc.dim)
	}
	lists := make([][]index.Neighbor, len(sc.clients))
	err := core.Gather(ctx, len(sc.clients), func(ctx context.Context, i int) error {
		c := sc.clients[i]
		c.CountQuery()
		ssp := sp.Child("shard.scatter")
		if ssp != nil {
			ssp.SetInt("shard", int64(c.Shard()))
			ctx = trace.With(ctx, ssp)
			defer ssp.End()
		}
		res, err := c.KNNBatch(ctx, []knnProbe{{q: q, k: k, skip: -1}})
		if err != nil {
			return err
		}
		if len(res) != 1 {
			return fmt.Errorf("shard %d returned %d knn lists for 1 probe", c.Shard(), len(res))
		}
		tr := make([]index.Neighbor, len(res[0]))
		for j, nb := range res[0] {
			g, ok := sc.m.Global(c.Shard(), nb.ID)
			if !ok {
				return fmt.Errorf("shard %d returned unmapped local id %d", c.Shard(), nb.ID)
			}
			tr[j] = index.Neighbor{ID: g, Dist: nb.Dist}
		}
		lists[i] = tr
		return nil
	})
	if err != nil {
		return nil, wrapShardErr(err)
	}
	merged := core.MergeKNN(lists, k, nil)
	out := make([]Neighbor, len(merged))
	for i, nb := range merged {
		out[i] = Neighbor{ID: nb.ID, Dist: nb.Dist}
	}
	return out, nil
}

// batchByID answers many member queries concurrently over one scatter set —
// so the results are mutually consistent even while writes run — on
// core.ForEach's worker pool (the same clamps and cancellation contract as
// the single-engine batch). query answers one member; the engine that owns
// the set wraps its telemetry around scatterSet.reverseKNN there. A failed
// batch reports, in order of precedence: the context's own error, the first
// member (in input order) that failed for a reason other than the pool
// cancelling it, any failed member, the pool's argument error.
func batchByID(ctx context.Context, qids []int, workers int, query func(ctx context.Context, qid int) ([]int, error)) ([][]int, error) {
	out := make([][]int, len(qids))
	errs := make([]error, len(qids))
	err := core.ForEach(ctx, len(qids), workers, func(ctx context.Context, i int) error {
		out[i], errs[i] = query(ctx, qids[i])
		return errs[i]
	})
	if err == nil {
		return out, nil
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	for _, skipCancelled := range []bool{true, false} {
		for i, e := range errs {
			if e != nil && !(skipCancelled && errors.Is(e, context.Canceled)) {
				return nil, fmt.Errorf("rknnd: query %d: %w", qids[i], e)
			}
		}
	}
	return nil, fmt.Errorf("rknnd: %w", err) // invalid arguments (negative workers)
}
