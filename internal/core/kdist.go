package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/index"
)

// This file is the k-distance table: the refinement question of Algorithm 1
// answered ahead of time, once per snapshot and rank. Whether a point v is a
// reverse k-nearest neighbor of q depends on q only through d(q,v): v is one
// iff kdist_k(v) ≥ d(q,v), kdist_k(v) being v's distance to its k-th nearest
// other member. That is the predicate verify answers with a bounded count, on
// the same ties: a point exactly at d(q,v) is not strictly closer, so a
// boundary tie accepts either way. The RdNN-Tree baseline stores the same
// table; the paper's point is that RDT needs no such precomputation, not that
// a serving engine must refuse one its query stream pays for. So the first
// queries at a rank run Algorithm 1 as it stands, and only a snapshot that has
// served enough of them fills the table, off the query path (Engines). Once
// it is complete a query is one call to the index (index.TableReverser),
// which needs no kNN order: every x ≠ q with d(q,x) ≤ kd[x] is the exact
// answer at any t. See DESIGN.md, "The k-distance table".

// fillBlock is the number of consecutive IDs one fill task covers.
const fillBlock = 64

// plusFloor is the fewest queries at one rank that start an RDT+ engine's
// fill. It is not a traffic estimate: by cost alone a table pays for itself
// at n/8 queries (fillTrigger). It exists because the table changes an RDT+
// engine's answers — the exact answer drops the false positives RDT+'s lazy
// accepts let through — while a sharded engine, a coordinator or a bare
// Querier over the same rows keeps RDT+'s. The benchmark's topology check
// holds the default (RDT+) Searcher to single-shard and bare-querier answers
// ID for ID on a toy dataset (n = 300, a few dozen queries), and the floor
// keeps it inside that check until the check holds a filled one to the
// oracle instead (ROADMAP). A plain-RDT engine has no floor: it has no false
// positive to drop, and its answers gain only the reverse neighbors
// Algorithm 1 misses at a t below the data's MaxGED.
const plusFloor = 1024

// fillTrigger is the number of served queries at which qr's rank starts its
// fill: n/8 (ski rental: a query costs about eight forward kNN searches and
// a fill one per point, so n/8 queries cost about what the fill does), and
// at least plusFloor under RDT+.
func fillTrigger(qr *Querier) int64 {
	t := max(qr.ix.Len()/8, 1)
	if qr.params.Plus {
		t = max(t, plusFloor)
	}
	return int64(t)
}

// kdTable is one complete table and what answers by it: kd[id] =
// kdist_k(id) over one snapshot's ID span (+Inf for a row with fewer than k
// other live members, −Inf for an ID that is not live, so no comparison
// accepts it), the index's pruning bounds over kd, and the index itself.
type kdTable struct {
	kd, bound []float64
	walk      index.TableReverser
}

// fillKDist computes kd for rank k over src on every core, fillBlock IDs a
// task. Each row drives one cursor from its own point for k steps — the
// cursor a query opens, recycled by the back-end — so the fill allocates the
// table and little more. It returns ctx's error once ctx is cancelled.
func fillKDist(ctx context.Context, src Source, k int) ([]float64, error) {
	span := src.Len()
	lv, _ := src.(index.Liveness)
	if lv != nil {
		span = lv.IDSpan()
	}
	kd := make([]float64, span)
	err := ForEach(ctx, (span+fillBlock-1)/fillBlock, 0, func(ctx context.Context, b int) {
		for id := b * fillBlock; id < min(span, (b+1)*fillBlock) && ctx.Err() == nil; id++ {
			if lv == nil || lv.Live(id) {
				kd[id] = kthDistance(src, id, k)
			} else {
				kd[id] = math.Inf(-1)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return kd, nil
}

// kthDistance is member id's distance to its k-th nearest other member, or
// +Inf when fewer than k others exist.
func kthDistance(src Source, id, k int) float64 {
	c := src.NewCursor(src.Point(id), id)
	defer c.Close()
	d := math.Inf(1)
	for i := 0; i < k; i++ {
		nb, ok := c.Next()
		if !ok {
			return math.Inf(1)
		}
		d = nb.Dist
	}
	return d
}

// errNoWalk refuses a fill over a source that cannot answer by a table.
var errNoWalk = errors.New("core: the source has no k-distance table walk")

// fillTable fills the Querier's k-distance table over its source, computes
// the source's pruning bounds over it, and publishes both in one store; from
// then on every query is answered by the table. A cancelled fill publishes
// nothing, and a source that is no index.TableReverser is never filled.
func (qr *Querier) fillTable(ctx context.Context) error {
	walk, ok := qr.ix.(index.TableReverser)
	if !ok {
		return errNoWalk
	}
	kd, err := fillKDist(ctx, qr.ix, qr.params.K)
	if err != nil {
		return err
	}
	bound, ok := walk.TableBounds(kd)
	if !ok {
		return errNoWalk
	}
	qr.table.Store(&kdTable{kd: kd, bound: bound, walk: walk})
	return nil
}

// Engines is one snapshot's query engines: one Querier per rank k, built on
// first use and shared by every query against the snapshot, each beside the
// count of queries it has served. Once a rank has served fillTrigger queries,
// Engines fills that Querier's k-distance table on a goroutine of the
// engine's FillGroup, which runs one fill at a time. Stop cancels the
// snapshot's fills when it is replaced. Engines is safe for concurrent use.
type Engines struct {
	build func(k int) (*Querier, error)
	fills *FillGroup // nil: never fill (an approximate source overstates kdist)
	byK   sync.Map   // k int -> *served

	mu      sync.Mutex // guards what follows; taken after fills.mu
	stopped bool
	ctx     context.Context // every fill of this snapshot; nil until the first
	cancel  context.CancelFunc
}

// served is one rank's Querier and the queries it has answered.
type served struct {
	qr      *Querier
	trigger int64
	n       atomic.Int64
	started atomic.Bool
}

// NewEngines returns an empty memo whose Queriers build calls construct.
// fills is the engine's FillGroup, or nil for a source whose cursor is not
// exact: its k-th neighbor may lie beyond the true one, so a table would
// accept rows Algorithm 1 would not.
func NewEngines(build func(k int) (*Querier, error), fills *FillGroup) *Engines {
	return &Engines{build: build, fills: fills}
}

// Querier returns the memoized engine for rank k, building it on first use,
// without counting a query.
func (e *Engines) Querier(k int) (*Querier, error) {
	en, err := e.entry(k)
	if err != nil {
		return nil, err
	}
	return en.qr, nil
}

// Serve returns the memoized engine for rank k and counts one served query
// toward its fill.
func (e *Engines) Serve(k int) (*Querier, error) {
	en, err := e.entry(k)
	if err != nil {
		return nil, err
	}
	if e.fills != nil && !en.started.Load() && en.n.Add(1) >= en.trigger && !e.fills.busy.Load() {
		e.startFill(en)
	}
	return en.qr, nil
}

func (e *Engines) entry(k int) (*served, error) {
	if en, ok := e.byK.Load(k); ok {
		return en.(*served), nil
	}
	qr, err := e.build(k)
	if err != nil {
		return nil, err
	}
	en, _ := e.byK.LoadOrStore(k, &served{qr: qr, trigger: fillTrigger(qr)})
	return en.(*served), nil
}

// startFill runs en's fill on a goroutine of the engine's FillGroup, under
// the snapshot's context, unless the snapshot is stopped, the group closed
// or already running a fill — one at a time, on every core. A rank turned
// away keeps its count and tries again on its next query.
func (e *Engines) startFill(en *served) {
	g := e.fills
	g.mu.Lock()
	defer g.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if g.closed || e.stopped {
		en.started.Store(true) // for good: nothing fills here again
	}
	if g.busy.Load() || en.started.Load() {
		return
	}
	if g.ctx == nil {
		g.ctx, g.cancel = context.WithCancel(context.Background())
	}
	if e.ctx == nil {
		e.ctx, e.cancel = context.WithCancel(g.ctx)
	}
	en.started.Store(true)
	g.busy.Store(true)
	g.wg.Add(1)
	go func(ctx context.Context) {
		defer g.wg.Done()
		_ = en.qr.fillTable(ctx) // cancelled: the snapshot is gone, nothing to publish
		g.busy.Store(false)
	}(e.ctx)
}

// Stop cancels the snapshot's fills, running or yet to start. Queries keep
// being served, by Algorithm 1 at every rank whose table was not complete.
func (e *Engines) Stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stopped = true
	if e.cancel != nil {
		e.cancel()
	}
}

// FillGroup is the k-distance fills of one engine across its snapshots.
// Close cancels every fill, returns once none runs, and no fill starts after
// it. The zero value is ready.
type FillGroup struct {
	mu     sync.Mutex
	closed bool
	busy   atomic.Bool     // a fill is running: set under mu, cleared by the fill
	ctx    context.Context // parent of every snapshot's fill context; nil until the first
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Close cancels the group's fills and waits for them to return.
func (g *FillGroup) Close() {
	g.mu.Lock()
	g.closed = true
	if g.cancel != nil {
		g.cancel()
	}
	g.mu.Unlock()
	g.wg.Wait()
}
