package repro

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/trace"
)

// This file makes the read side of "a shard" an interface and the set of
// shards an index: shardClient has two implementations — a Searcher's pinned
// snapshot, in process (below), and remoteShard over HTTP (shard_remote.go) —
// and fedIndex federates any set of them into the one
// structure the paper's algorithm asks for (Section 4: incremental forward
// nearest-neighbor search). A k-way merge of the shards' neighbor streams
// under the (distance, global ID) order IS the neighbor stream of the whole
// dataset, so a sharded RkNN query is core.Querier — the algorithm a Searcher
// runs — over that merge: one expanding search, one filter set, one
// refinement, with the rank cap and the ω test in global rank as the paper
// states them. Nothing here knows where a shard lives, so a Coordinator over
// networked daemons executes the same steps as a ShardedSearcher over
// goroutines, and both as an unsharded Searcher: same answer, same Stats, at
// every scale parameter.
//
// All IDs crossing shardClient are shard-local; fedIndex owns the ShardMap
// and is the only layer that translates. Local IDs grow in global insertion
// order within a shard, so a shard's (distance, local ID) order is the
// (distance, global ID) order restricted to it.

// shardClient is the pinned read set of one shard (shard.pin). Implementations
// answer against a single consistent view of their shard: an in-process
// snapshot is one for the lifetime of the scatter set; a remote daemon answers
// each call from one snapshot (per-call consistency — see DESIGN.md,
// "Distributed serving", for what that weakens under concurrent writes).
type shardClient interface {
	// Neighbors opens the shard's forward neighbor stream from q, local
	// member skip excluded (-1 for none). expect is how many rows the caller
	// expects to pull — a remote shard sizes its first fetch by it; ctx
	// bounds every fetch the stream makes.
	Neighbors(ctx context.Context, q []float64, skip, expect int) shardStream
	// Member resolves a local member ID to its coordinates, nil when the ID
	// has no live point (deleted, or an insert still in flight).
	Member(ctx context.Context, local int) ([]float64, error)
	// KNN returns the shard's k nearest members to q (local IDs) in
	// ascending (distance, ID) order.
	KNN(ctx context.Context, q []float64, k int) ([]index.Neighbor, error)
	// CountBatch answers verification probes (Skip is a local member ID),
	// one count per probe in probe order, all against one consistent view
	// of the shard.
	CountBatch(ctx context.Context, probes []CountCloserQuery) ([]int, error)
}

// shardStream is one shard's forward neighbor stream from a fixed point: a
// cursor in ascending (distance, local ID) order whose Next also reports
// exhausted when the stream failed, which Err tells apart.
type shardStream interface {
	index.Cursor
	// Point returns the coordinates of a member Next has returned, valid
	// until release.
	Point(local int) []float64
	Err() error
	// release ends the stream's life, after Close and after the last read of
	// a coordinate it returned: whatever storage it holds may be recycled.
	release()
}

// livePoint fetches local ID l from a pinned index view, or nil when the
// view holds no live point under l: a tombstone, or an ID the shard map
// published ahead of the engine snapshot (the in-flight insert window).
func livePoint(ix *index.Overlay, l int) []float64 {
	if !ix.Live(l) {
		return nil
	}
	return ix.Point(l)
}

// A Searcher's snapshot is the in-process shardClient: every method body is a
// direct call on the pinned index. (Boxing the pointer in the interface
// allocates nothing.) The federation counts on its index in turn
// (fedIndex.CountCloserBatch), so CountBatch serves only a snapshot read
// through a wrapper.

func (sn *snapshot) Neighbors(_ context.Context, q []float64, skip, _ int) shardStream {
	s := localStreams.Get().(*localStream)
	s.Cursor, s.ix = sn.ix.NewCursor(q, skip), sn.ix
	return s
}

// localStream is the pinned snapshot's own cursor, beside the index whose
// Point resolves the rows it returns. It cannot fail. Streams are recycled
// (localStreams), so opening one allocates nothing.
type localStream struct {
	index.Cursor
	ix *index.Overlay
}

var localStreams = sync.Pool{New: func() any { return new(localStream) }}

func (s *localStream) Point(local int) []float64 { return s.ix.Point(local) }
func (*localStream) Err() error                  { return nil }

// release: the rows are the pinned snapshot's own; the stream holds none of
// them, nor the snapshot, once recycled.
func (s *localStream) release() { *s = localStream{}; localStreams.Put(s) }

func (sn *snapshot) Member(_ context.Context, local int) ([]float64, error) {
	return livePoint(sn.ix, local), nil
}

func (sn *snapshot) KNN(_ context.Context, q []float64, k int) ([]index.Neighbor, error) {
	return sn.ix.KNN(q, k, -1), nil
}

func (sn *snapshot) CountBatch(_ context.Context, probes []CountCloserQuery) ([]int, error) {
	out := make([]int, len(probes))
	for i, p := range probes {
		out[i] = sn.ix.CountCloser(p.Point, p.Radius, p.Limit, p.Skip, nil)
	}
	return out, nil
}

// pinnedShard is one member of a scatter set: a shard's pinned read set, the
// shard's number in the coordinate system of the set's ShardMap, the shard's
// scatter-visit counter, and the shard's live points and position in the
// set's clients (-1 when it pinned empty).
type pinnedShard struct {
	shardClient
	shard     int
	visits    *atomic.Int64
	live, pos int
}

// scatterSet is a pinned set of shard clients plus the shard map that
// translates their local IDs and the engine configuration their queries run
// under — everything a transport-independent query needs. shardedCore.pin
// builds one whenever a shard has published since the last, and every query
// and batch pinned in between shares it: nothing in it changes once built.
type scatterSet struct {
	engineConfig
	clients []pinnedShard // the non-empty shards, ascending shard number
	m       *index.ShardMap
	metric  Metric
	dim     int
	n       int // live points across the clients
	// tel, when set, holds the per-shard instruments indexed by shard number.
	tel *[]*shardTelemetry
	// pins is what every shard pinned, by shard number: the set's identity,
	// which shardedCore.pin compares.
	pins []pinnedShard
	feds *sync.Pool // the engine's recycled *fedIndex
}

// inProcess reports whether every client of the set is an in-process
// snapshot: its streams fetch nothing ahead, and its count round runs in turn
// on the query's goroutine.
func (sc *scatterSet) inProcess() bool {
	return !slices.ContainsFunc(sc.clients, func(c pinnedShard) bool { _, ok := c.shardClient.(*snapshot); return !ok })
}

// reverseKNN implements readSet: the engine's core.Querier over the
// federated index of the set. A member qid may be any integer (out-of-range
// values fail like the unsharded engine's). The work counters are those of
// the one algorithm run, identical to an unsharded engine's on the same data.
func (sc *scatterSet) reverseKNN(ctx context.Context, qid int, q []float64, k int) ([]int, Stats, []float64, error) {
	if !sc.inProcess() {
		// Remote streams fetch ahead on their own goroutines; cancelling on
		// return stops whatever the query no longer needs. (In-process ones
		// read no context, so a nil one stays nil.)
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(cmp.Or(ctx, context.Background()))
		defer cancel()
	}
	f := sc.feds.Get().(*fedIndex)
	defer f.recycle(sc.feds)
	f.sc, f.ctx, f.k, f.qid, f.home = sc, ctx, k, -1, -1
	// The Querier holds nothing of a query or a read set but f itself, so a
	// recycled one serves its rank; an empty set builds one, to fail as core
	// does.
	var res core.Result
	var err error
	if f.qr == nil || f.qr.Params().K != k || sc.n == 0 {
		f.qr, err = sc.newQuerier(f, k)
	}
	switch {
	case err != nil:
	case q == nil:
		res, err = f.qr.ByIDCtx(ctx, qid)
		q = f.q
	default:
		res, err = f.qr.ByPointCtx(ctx, q)
	}
	// A shard that failed mid-query voids whatever core computed.
	if err = cmp.Or(f.err, err); err != nil {
		return nil, Stats{}, nil, err
	}
	return res.IDs, fromCore(res.Stats), q, nil
}

// fedIndex is the federated index of one query over a scatter set: the
// core.Source whose cursor is the k-way merge of the shards' neighbor
// streams, whose points resolve through the shard map, and whose refinement
// count is the sum of the shards' bounded counts. IDs on this side are
// global. It serves one query at a time, on one goroutine, because the
// streams it opens do; a shard failure is latched in err (the index contract
// has no error returns) and voids the query. Between queries it waits in its
// engine's pool with its Querier and the arrays of its heads and counts, and
// nothing else (recycle).
type fedIndex struct {
	sc  *scatterSet
	ctx context.Context
	k   int
	// The member the query is anchored at, once Live has resolved it: its
	// global ID, client position, local ID and coordinates. qid and home are
	// -1 for a point query.
	qid, home, homeLocal int
	q                    []float64

	heads  []fedHead // one per client, same order; set by NewCursor
	err    error
	qr     *core.Querier // the rank-qr.Params().K algorithm over this federation
	counts []int         // the last count round's answer
}

// recycle ends the query: it feeds the query's per-shard work into the
// shard instruments (one scatter visit and the rows pulled from each shard's
// stream), releases the streams — core has returned, so nothing reads a
// streamed coordinate any more; not sooner, for refinement reads candidates'
// coordinates after the cursor is closed, and a caller's cancel can fire
// while it does — and puts f back in pool holding no row, snapshot, shard or
// context.
func (f *fedIndex) recycle(pool *sync.Pool) {
	for i, h := range f.heads {
		if f.sc.tel != nil {
			t := (*f.sc.tel)[f.sc.clients[i].shard]
			t.scatter.Inc()
			t.pulled.Add(int64(h.pulled))
		}
		h.stream.release()
	}
	clear(f.heads)
	*f = fedIndex{heads: f.heads[:0], qr: f.qr, counts: f.counts[:0]}
	pool.Put(f)
}

// fedHead is one shard's stream and what the merge knows of its next row.
type fedHead struct {
	stream shardStream
	span   *trace.Span    // the stream's shard.scatter span while it is open, traced queries only
	nb     index.Neighbor // the next row under its global ID, when state is headReady
	state  headState
	pulled int // rows the merge has read from the stream
}

// headState says what the merge knows about a stream's next row.
type headState uint8

const (
	headWanted headState = iota // the head was consumed (or never read): pull before comparing
	headReady                   // nb holds the stream's next row
	headDry                     // the stream is exhausted
)

func (f *fedIndex) Len() int       { return f.sc.n }
func (f *fedIndex) Dim() int       { return f.sc.dim }
func (f *fedIndex) Metric() Metric { return f.sc.metric }

// IDSpan and Live are index.Liveness, which core validates a member query
// by — so an unassigned or deleted member fails with core's own errors. Live
// also resolves the member from its home shard: core asks about exactly one
// ID, the query's, just before it reads its point and opens the cursor that
// must exclude it.
func (f *fedIndex) IDSpan() int { return f.sc.m.Len() }

func (f *fedIndex) Live(id int) bool {
	home, l := f.locate(id)
	if home < 0 {
		// Never assigned, or the member's shard pinned empty (or
		// unpublished): every copy of the point this read set can see is gone.
		return false
	}
	p, err := f.sc.clients[home].Member(f.ctx, l)
	if f.fail(err); p == nil {
		return false
	}
	f.qid, f.home, f.homeLocal, f.q = id, home, l, p
	return true
}

// locate places a global ID in the set: the position in clients of its
// shard and its local ID there; position -1 when the map does not know the
// ID or its shard pinned empty.
func (f *fedIndex) locate(id int) (int, int) {
	if s, l, ok := f.sc.m.Locate(id); ok {
		return f.sc.pins[s].pos, l
	}
	return -1, -1
}

// fail latches the first shard error (nil is none).
func (f *fedIndex) fail(err error) {
	if f.err == nil {
		f.err = err
	}
}

// Point returns the coordinates of the query member or of a member the
// cursor has returned, from the stream of its home shard.
func (f *fedIndex) Point(id int) []float64 {
	if id == f.qid {
		return f.q
	}
	pos, l := f.locate(id)
	return f.heads[pos].stream.Point(l)
}

// NewCursor opens every shard's stream and merges them. skipID is the query
// member or -1; it is excluded on its home shard, where alone it lives.
func (f *fedIndex) NewCursor(q []float64, skipID int) index.Cursor {
	return f.NewCursorCtx(f.ctx, q, skipID)
}

// NewCursorCtx is NewCursor for a traced query (ctx carries core's span):
// each stream gets a "shard.scatter" span that stays open while the stream
// is read, with a remote shard's remote.call per chunk beneath it.
func (f *fedIndex) NewCursorCtx(ctx context.Context, q []float64, skipID int) index.Cursor {
	sc := f.sc
	sp := trace.FromContext(ctx)
	expect := core.ShardRows(sc.n, len(sc.clients), f.k, sc.scale)
	f.heads = slices.Grow(f.heads[:0], len(sc.clients))[:len(sc.clients)]
	for i, cl := range sc.clients {
		cl.visits.Add(1)
		sctx := ctx
		if sp != nil {
			f.heads[i].span = sp.Child("shard.scatter")
			f.heads[i].span.SetInt("shard", int64(cl.shard))
			sctx = trace.With(ctx, f.heads[i].span)
		}
		skip := -1
		if i == f.home && skipID >= 0 {
			skip = f.homeLocal
		}
		f.heads[i].stream = cl.Neighbors(sctx, q, skip, expect)
	}
	return (*fedCursor)(f)
}

// fedCursor is the k-way merge of a fedIndex's shard streams under the
// (distance, global ID) order — the one cursor of its one query, hence the
// same object under another method set. A consumed head is refilled only
// when the next row is asked for, so a scan that stops never pulls — over a
// network, never fetches — a row it does not look at. The minimum is found
// by a linear pass: shard counts are small, and the pass is a handful of
// comparisons beside the distance computation every returned row costs.
type fedCursor fedIndex

func (c *fedCursor) Next() (index.Neighbor, bool) {
	best := -1
	for i := range c.heads {
		h := &c.heads[i]
		if h.state == headWanted {
			c.pull(i)
		}
		if h.state != headReady {
			continue
		}
		if best < 0 || index.Before(h.nb, c.heads[best].nb) {
			best = i
		}
	}
	if best < 0 || c.err != nil {
		return index.Neighbor{}, false
	}
	c.heads[best].state = headWanted
	return c.heads[best].nb, true
}

// pull reads stream i's next row into its head, translated to its global ID.
// A row the query's shard map does not know was inserted after the query
// loaded the map — a remote shard answers each chunk from its current
// snapshot — and is passed over: the query answers over the IDs it pinned.
func (c *fedCursor) pull(i int) {
	h := &c.heads[i]
	for {
		nb, ok := h.stream.Next()
		if !ok {
			h.state = headDry
			(*fedIndex)(c).fail(h.stream.Err())
			return
		}
		h.pulled++
		if g, ok := c.sc.m.Global(c.sc.clients[i].shard, nb.ID); ok {
			h.nb, h.state = index.Neighbor{ID: g, Dist: nb.Dist}, headReady
			return
		}
	}
}

// Close closes the streams, and their spans, once core's scan is over.
func (c *fedCursor) Close() {
	for i := range c.heads {
		h := &c.heads[i]
		h.stream.Close()
		h.span.SetInt("pulled", int64(h.pulled))
		h.span.End()
		h.span = nil
	}
}

// CountCloser is the one-candidate form of CountCloserBatch. The federation
// holds no tombstones of its own, so dead must be nil.
func (f *fedIndex) CountCloser(q []float64, r float64, limit, skipID int, _ *index.Tombstones) int {
	return f.CountCloserBatch(f.ctx, []index.CountQuery{{Point: q, Radius: r, Limit: limit, Skip: skipID}})[0]
}

// CountCloserBatch implements index.BatchCounter: the number of points of
// the whole dataset strictly closer to each probe point than its radius is
// the sum of the shards' counts, because the shards partition the dataset,
// and Skip (a global member ID) is excluded on the member's home shard. On
// in-process shards the round runs in turn on the query's goroutine, each
// shard asked only what the earlier ones left unsettled (core.CountInTurn);
// on remote ones one CountBatch per shard carries all probes at once, so a
// round costs one round trip (core.CountGathered). The answer is the same.
func (f *fedIndex) CountCloserBatch(ctx context.Context, qs []index.CountQuery) []int {
	sc := f.sc
	f.counts = slices.Grow(f.counts[:0], len(qs))[:len(qs)]
	out := f.counts
	if sc.inProcess() {
		core.CountInTurn(out, qs, len(sc.clients), f.locate, func(i int, q index.CountQuery) int {
			if sc.tel != nil {
				(*sc.tel)[sc.clients[i].shard].probes.Inc()
			}
			return sc.clients[i].shardClient.(*snapshot).ix.CountCloser(q.Point, q.Radius, q.Limit, q.Skip, nil)
		})
		return out
	}
	// A failed round settles nothing, and the latched error voids the query.
	f.fail(core.CountGathered(ctx, out, qs, len(sc.clients), f.locate, func(ctx context.Context, i int, mine []index.CountQuery) ([]int, error) {
		c := sc.clients[i]
		res, err := c.CountBatch(ctx, mine)
		if err == nil && len(res) != len(mine) {
			err = fmt.Errorf("shard %d returned %d counts for %d probes", c.shard, len(res), len(mine))
		}
		if err == nil && sc.tel != nil {
			(*sc.tel)[c.shard].probes.Add(int64(len(mine)))
		}
		return res, err
	}))
	return out
}

// knn implements readSet: the scatter-gather forward-kNN query, per-shard
// top-k lists k-way merged to global top-k in ascending (distance, ID)
// order, with a "shard.scatter" span per shard under a traced ctx's
// core.knn.
func (sc *scatterSet) knn(ctx context.Context, q []float64, k int) ([]Neighbor, error) {
	sp := trace.FromContext(ctx)
	if err := checkQuery(sc.metric, sc.dim, q); err != nil {
		return nil, err
	}
	lists := make([][]index.Neighbor, len(sc.clients))
	err := core.Gather(ctx, len(sc.clients), func(ctx context.Context, i int) error {
		c := sc.clients[i]
		c.visits.Add(1)
		ssp := sp.Child("shard.scatter")
		if ssp != nil {
			ssp.SetInt("shard", int64(c.shard))
			ctx = trace.With(ctx, ssp)
			defer ssp.End()
		}
		nn, err := c.KNN(ctx, q, k)
		if err != nil {
			return err
		}
		for j := range nn { // the list is the call's own: translate in place
			g, ok := sc.m.Global(c.shard, nn[j].ID)
			if !ok {
				return fmt.Errorf("shard %d returned unmapped local id %d", c.shard, nn[j].ID)
			}
			nn[j].ID = g
		}
		lists[i] = nn
		return nil
	})
	if err != nil {
		return nil, err
	}
	return core.MergeKNN(lists, k, nil), nil
}
