package repro

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/index"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vecmath"
)

// This file is the sharded engine, written once. The paper asks of its
// auxiliary structure only incremental forward-NN search, and says updates
// cost nothing "other than those due to changes made to the auxiliary
// forward kNN index" (Section 4) — so a sharded engine is a set of neighbor
// streams plus a set of writers, and where a shard lives is a transport
// detail. shardedCore owns everything that does not depend on it — the shard
// map, the write lock and poison state, the per-shard telemetry, scatter-set
// assembly and the one write path — over shards it knows only through the
// shard interface, and embeds the query and write surface every engine
// shares (surface.go). A ShardedSearcher (below) is the core over in-process
// shards, each a copy-on-write Searcher; a Coordinator (coordinator.go) is
// the core over shard daemons.
//
// A reverse query is the unsharded algorithm, run once: the k-way merge of
// the shards' forward neighbor streams under the (distance, global ID)
// order is the neighbor stream of the whole dataset, so one core.Querier
// runs over the merge (shard_client.go) and returns what a Searcher over the
// same points returns — answer and work counters, at every scale parameter.
// Forward kNN merges directly: the global top-k is the top-k of the
// per-shard top-k lists. See DESIGN.md, "Sharded scatter-gather".

// ShardInfo describes one shard of a sharded engine for monitoring.
type ShardInfo struct {
	// Shard is the shard number in [0, Shards()).
	Shard int `json:"shard"`
	// Points is the number of live points the shard currently holds.
	Points int `json:"points"`
	// Queries counts scatter-gather visits this shard has served.
	Queries int64 `json:"queries"`
}

// shardWriter is the write side of one shard, in the shard's local IDs. An
// insert ends one of three ways, and the write path acts on which:
//
//   - IDs: the points are applied. An error beside them means applied in
//     memory but not logged (see InsertBatch).
//   - No IDs and an ordinary error: refused un-applied — a local engine's
//     validation error, a daemon's well-formed 4xx, a request that never left.
//   - No IDs and an error that wraps errOutcomeUnknown: the shard may or may
//     not hold the points (a transport failure, timeout or 5xx once the
//     request may have left).
type shardWriter interface {
	InsertBatchContext(ctx context.Context, points [][]float64) ([]int, error)
	DeleteContext(ctx context.Context, id int) (bool, error)
}

// errOutcomeUnknown marks a shard write that may or may not have been
// applied; see shardWriter.
var errOutcomeUnknown = errors.New("write outcome unknown")

// shard is one shard of a sharded engine: a read side that pins, a write
// side, and nothing that says where the shard lives. *shardSlot implements
// it over an in-process Searcher, *remoteShard (shard_remote.go) over a
// daemon.
type shard interface {
	// pin returns the shard's current read set — what one query, or one
	// batch, reads it through — and the number of live points in it.
	pin() (shardClient, int)
	shardWriter
	// writable reports why the shard can take no write right now, nil when it
	// can; an insert checks every involved shard before assigning any ID.
	writable() error
}

// shardedCore is the engine a ShardedSearcher and a Coordinator share.
//
// Global IDs are stable and dense in insertion order, exactly like Searcher
// IDs, and are mapped to (shard, local) placements by an immutable
// index.ShardMap published copy-on-write. Writers publish the map before the
// shard write and readers pin the shards before the map, so the map a query
// holds covers every local ID its read set can surface.
//
// Results are deterministic and do not depend on the shard count or the
// transport: every shard streams in (distance, ID) order, so the merged
// stream — and with it every step of the algorithm — is the unsharded
// engine's. The metamorphic conformance suites pin it
// (shard_conformance_test.go, internal/server/cluster_test.go).
type shardedCore struct {
	surface // its engineConfig is every shard's: the core runs their algorithm itself
	metric  Metric
	dim     int

	shards []shard
	visits []atomic.Int64 // scatter visits per shard (ShardInfo.Queries)
	smap   atomic.Pointer[index.ShardMap]
	mu     sync.Mutex // serializes Insert/Delete across the map and all shards

	// broken permanently poisons the write path once the shard map may name
	// IDs a shard does not hold (see applyInsertBatch). Reads keep answering —
	// an ID no shard holds answers as not-found — but further writes would
	// let the map's local-ID accounting diverge from the shards', so they are
	// all refused until a restart re-reads the shards' ID spans. Guarded by mu.
	broken error

	// shardTel holds the per-shard query instruments when telemetry is
	// enabled; nil when disabled. Published atomically, like every read-path
	// structure here.
	shardTel atomic.Pointer[[]*shardTelemetry]

	// pinned is the read set pin built last, which every pin shares until a
	// shard publishes; feds recycles the federated index of its queries.
	pinned atomic.Pointer[scatterSet]
	feds   sync.Pool
}

// init binds the core to its shards; the caller publishes the shard map.
func (e *shardedCore) init(cfg engineConfig, metric Metric, dim int, shards []shard) {
	e.engineConfig, e.eng, e.bg, e.metric, e.dim = cfg, e, new(background), metric, dim
	e.shards, e.visits = shards, make([]atomic.Int64, len(shards))
	e.feds.New = func() any { return new(fedIndex) }
}

// assemble binds the core to S described shards — the daemons a Coordinator
// fronts, or the shard stores OpenSharded reopens, where a shard that never
// held a point has no store and no description (nil) — and publishes the
// shard map. It is the one rule under which the sharded engine's answer is
// the paper's: every shard holds its place in an S-shard cluster, reports
// counts a shard map can name (0 ≤ points ≤ id span, spans summing to at
// most math.MaxInt32), names a back-end this engine builds (never the
// retired ones — an old daemon on "lsh" answers approximately), and runs the
// first described shard's algorithm over the same data shape; then the map
// replayed from the summed spans must hand each shard exactly the span it
// reports. Every check runs before the replay.
func (e *shardedCore) assemble(descs []*ShardDescription, shards []shard) error {
	var ref *ShardDescription
	refShard, total := 0, 0
	spans := make([]int, len(descs)) // 0 for a shard with no description
	for i, d := range descs {
		if d == nil {
			continue
		}
		if err := backend.Check(string(d.Backend)); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		switch {
		case d.Shards != len(descs):
			return fmt.Errorf("shard %d daemon serves a %d-shard cluster, coordinator configured for %d", i, d.Shards, len(descs))
		case d.Shard != i:
			return fmt.Errorf("daemon at position %d serves shard %d (order -shard flags by shard number)", i, d.Shard)
		case d.Points < 0 || d.Points > d.IDSpan:
			return fmt.Errorf("shard %d reports %d live points over an id span of %d", i, d.Points, d.IDSpan)
		case d.IDSpan > math.MaxInt32-total:
			return fmt.Errorf("shard %d: the id spans sum past %d, the most ids a shard map can name", i, math.MaxInt32)
		}
		spans[i], total = d.IDSpan, total+d.IDSpan
		if ref == nil {
			ref, refShard = d, i
		}
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"dimension", d.Dim, ref.Dim}, {"scale", d.Scale, ref.Scale},
			{"plus", d.Plus, ref.Plus}, {"margin", d.Margin, ref.Margin},
			{"back-end", d.Backend, ref.Backend},
			{"metric id", d.MetricID, ref.MetricID}, {"metric parameter", d.MetricParam, ref.MetricParam},
		} {
			if f.got != f.want {
				return fmt.Errorf("shard %d %s %v, shard %d %s %v", i, f.name, f.got, refShard, f.name, f.want)
			}
		}
	}
	if ref == nil {
		return errors.New("no shard is described")
	}
	metric, err := vecmath.MetricFromID(vecmath.MetricID(ref.MetricID), ref.MetricParam)
	if err != nil {
		return err
	}
	// A shard reports scale 0 exactly when it adapts t per query.
	e.init(engineConfig{scale: ref.Scale, adaptive: ref.Scale == 0, plus: ref.Plus, margin: ref.Margin, backend: ref.Backend},
		metric, ref.Dim, shards)
	m, err := index.RebuildShardMap(len(descs), total)
	if err != nil {
		return err
	}
	for i, span := range spans {
		if want := m.ShardLen(i); want != span {
			return fmt.Errorf("shard %d holds %d ids, the shard map over %d ids expects %d — the shards are inconsistent (a shard or its store was lost or truncated, the shards were partitioned under another rule or dataset, or an OS crash under a relaxed -wal-sync policy lost log tails unevenly across shards; restore the affected shard)",
				i, span, total, want)
		}
	}
	e.smap.Store(m)
	return nil
}

// Shards returns the shard count.
func (e *shardedCore) Shards() int { return len(e.shards) }

// Dim returns the dimensionality of the indexed points.
func (e *shardedCore) Dim() int { return e.dim }

// Len returns the number of live points across all shards.
func (e *shardedCore) Len() int {
	n := 0
	for _, sh := range e.shards {
		_, live := sh.pin()
		n += live
	}
	return n
}

// IDSpan returns the number of global IDs ever assigned, which the shard
// map tracks exactly (deletes never shrink it); see Searcher.IDSpan.
func (e *shardedCore) IDSpan() int { return e.smap.Load().Len() }

// ShardStats reports per-shard size and traffic counters, the monitoring
// surface behind the server's /statsz shards section.
func (e *shardedCore) ShardStats() []ShardInfo {
	out := make([]ShardInfo, len(e.shards))
	for i, sh := range e.shards {
		_, live := sh.pin()
		out[i] = ShardInfo{Shard: i, Points: live, Queries: e.visits[i].Load()}
	}
	return out
}

// pin captures a consistent read set as a scatter set: the read set of every
// non-empty shard first, then the map. Writers publish in the opposite order
// (map, then shard), so the map here covers every ID the read sets can
// surface. A pin that finds every shard, the map and the instruments as the
// last set built them would build that set again, so it returns that set:
// between two publications every query shares one. (A replaced set stays
// reachable until the next pin replaces it in turn.)
func (e *shardedCore) pin(sp *trace.Span) readSet {
	sc := e.pinned.Load()
	if sc == nil || !sc.current(e) {
		sc = &scatterSet{engineConfig: e.engineConfig, clients: make([]pinnedShard, 0, len(e.shards)), metric: e.metric, dim: e.dim,
			pins: make([]pinnedShard, len(e.shards)), feds: &e.feds}
		for i, sh := range e.shards {
			c, live := sh.pin()
			sc.pins[i] = pinnedShard{shardClient: c, shard: i, visits: &e.visits[i], live: live, pos: -1}
			if live > 0 {
				sc.pins[i].pos = len(sc.clients)
				sc.clients = append(sc.clients, sc.pins[i])
				sc.n += live
			}
		}
		sc.m, sc.tel = e.smap.Load(), e.shardTel.Load()
		e.pinned.Store(sc)
	}
	sp.SetInt("shards_pinned", int64(len(sc.clients)))
	return sc
}

// current re-pins every shard, then the map, in pin's order, and reports
// whether they are what sc holds.
func (sc *scatterSet) current(e *shardedCore) bool {
	for i, sh := range e.shards {
		if c, live := sh.pin(); c != sc.pins[i].shardClient || live != sc.pins[i].live {
			return false
		}
	}
	return e.smap.Load() == sc.m && e.shardTel.Load() == sc.tel
}

// applyDelete deletes a member on its shard. The shard map keeps the ID
// forever (tombstones live in the shard index), so global IDs are never
// reused.
func (e *shardedCore) applyDelete(ctx context.Context, global int) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.broken != nil {
		return false, e.broken
	}
	s, l, ok := e.smap.Load().Locate(global)
	if !ok {
		return false, nil
	}
	applied, err := e.shards[s].DeleteContext(ctx, l)
	if err != nil {
		err = fmt.Errorf("rknnd: shard %d: %w", s, err)
	}
	return applied, err
}

// applyInsertBatch is the one insert path. The map is published with the
// new IDs first, then each involved shard's group goes through the shard's
// writer, whose three outcomes (see shardWriter) decide what happens next.
// Applied — possibly in memory but not logged: the IDs stand, matching the
// visible state, and only that shard's store refuses from then on. Refused
// un-applied: if no group of this call is visible yet, the previous map is
// restored and the write never happened — always the case for a one-shard
// write, so a cleanly refused single insert is all-or-nothing; otherwise the
// map already names IDs no shard holds. Outcome unknown — which includes a
// shard acknowledging local IDs other than the ones the map predicted: the
// map may name IDs the shard does not hold, or the shard rows the map does
// not name. In both of the last cases the engine poisons its write path
// (broken) rather than let the map's local-ID accounting diverge from the
// shards'; the map stays published, so reads keep translating whatever did
// land (an ID no shard holds answers as not-found).
func (e *shardedCore) applyInsertBatch(ctx context.Context, points [][]float64) ([]int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.broken != nil {
		return nil, e.broken
	}
	if err := checkPoints(e.metric, e.dim, points); err != nil {
		return nil, err
	}
	// The shard of every member is a pure function of the current global
	// count, so the involved shards are known — and asked whether they can
	// take a write — before any ID is assigned: a closed or poisoned store
	// rejects the whole write cleanly instead of tearing it. An empty batch
	// involves every shard in the question and writes nothing.
	m := e.smap.Load()
	groups := make([][]int, len(e.shards)) // shard -> positions in points, in order
	for i := range points {
		s := index.ShardOf(m.Len()+i, len(e.shards))
		groups[s] = append(groups[s], i)
	}
	for s, idx := range groups {
		if len(idx) == 0 && len(points) > 0 {
			continue
		}
		if err := e.shards[s].writable(); err != nil {
			return nil, fmt.Errorf("rknnd: shard %d: %w", s, err)
		}
	}
	if len(points) == 0 {
		return nil, nil
	}

	m2 := m.Clone()
	ids := make([]int, len(points))
	locals := make([]int, len(points))
	for i := range points {
		g, s, l := m2.Assign()
		if s != index.ShardOf(g, len(e.shards)) {
			panic(fmt.Sprintf("rknnd: shard map assigned id %d to shard %d, hash expected %d", g, s, index.ShardOf(g, len(e.shards))))
		}
		ids[i], locals[i] = g, l
	}
	e.smap.Store(m2)

	var firstErr error
	visible := false // a group of this call has reached its shard
	for s, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		pts := make([][]float64, len(idx))
		for j, i := range idx {
			pts[j] = points[i]
		}
		got, err := e.shards[s].InsertBatchContext(ctx, pts)
		if got != nil && !assignedAs(got, locals, idx) {
			// The shard and the map disagree on a local ID: every future
			// translation on this shard would be silently wrong.
			got, err = nil, fmt.Errorf("%w: the shard applied it under local ids %v, the shard map expected %d onwards", errOutcomeUnknown, got, locals[idx[0]])
		}
		if err != nil {
			err = fmt.Errorf("rknnd: shard %d: %w", s, err)
			if firstErr == nil {
				firstErr = err
			}
		}
		if got != nil {
			visible = true
			continue
		}
		if !visible && !errors.Is(err, errOutcomeUnknown) {
			e.smap.Store(m) // the assignment never took effect
			return nil, err
		}
		e.broken = fmt.Errorf("rknnd: writes disabled: the shard map may name ids a shard does not hold: %w", err)
	}
	return ids, firstErr
}

// assignedAs reports whether a shard assigned the group at positions idx
// exactly the local IDs the map predicted for it.
func assignedAs(got, locals, idx []int) bool {
	if len(got) != len(idx) {
		return false
	}
	for j, i := range idx {
		if got[j] != locals[i] {
			return false
		}
	}
	return true
}

// enableTelemetry registers the engine-level metric families and the
// per-shard stream, probe and size instruments on reg. grid calibrates the
// workload sketch's region cells; nil leaves it with op/k signatures.
func (e *shardedCore) enableTelemetry(reg *telemetry.Registry, grid *queryGrid) {
	sts := make([]*shardTelemetry, len(e.shards))
	for i, sh := range e.shards {
		sts[i] = newShardTelemetry(reg, i, func() int { _, live := sh.pin(); return live })
	}
	e.shardTel.Store(&sts)
	t := newEngineTelemetry(reg, string(e.backend))
	t.grid = grid
	t.workload = telemetry.NewWorkload(0)
	e.tel.Store(t)
}

// ShardedSearcher answers reverse k-nearest neighbor queries over a
// dataset hash-partitioned across S in-process shards: the sharded engine
// (shardedCore, whose methods it promotes) over shards that are each an
// independent copy-on-write Searcher. The concurrency contract matches
// Searcher: unrestricted concurrent queries racing Insert/Delete, with every
// per-shard read served from one frozen snapshot.
type ShardedSearcher struct {
	shardedCore
	slots []*shardSlot // the core's shards, concretely typed

	// dir is the sharded store attached by NewDurableSharded or OpenSharded
	// (shard_persist.go) — every populated shard's engine then holds its own
	// store under it, and a shard populated later creates one with walOpts —
	// or "" on an in-memory engine. closed says Close ran. Guarded by mu.
	dir     string
	walOpts []StoreOption
	closed  bool
}

// shardSlot is the in-process shard: the engine holder of one shard of a
// ShardedSearcher. The engine pointer is nil until the first point lands on
// the shard (hash partitioning can leave shards empty on small datasets) and
// is published atomically so queries never lock. The engine is the shard's
// write side too: whether its writes are logged is whether it holds a store.
type shardSlot struct {
	ss    *ShardedSearcher
	shard int
	eng   atomic.Pointer[Searcher]
}

// pin pins the engine's current snapshot, which is its own shardClient.
func (sl *shardSlot) pin() (shardClient, int) {
	eng := sl.eng.Load()
	if eng == nil {
		return nil, 0
	}
	sn := eng.snap.Load()
	return sn, sn.ix.Len()
}

// writable reports why the slot's store can take no write — closed, or
// poisoned by an earlier log failure. An in-memory shard, and a shard not
// yet populated (its store is created with its first points), are writable.
func (sl *shardSlot) writable() error {
	if eng := sl.eng.Load(); eng != nil {
		h := eng.durable.Load()
		if err := h.begin(); err != nil {
			return err
		}
		h.end()
	}
	return nil
}

// InsertBatchContext applies one group of an insert to the slot's engine.
// The first group to land on an empty shard builds the engine (over copies:
// the index retains its rows) and, under a sharded store, creates the shard's
// store, whose initial snapshot carries the points — no WAL record needed.
func (sl *shardSlot) InsertBatchContext(ctx context.Context, pts [][]float64) ([]int, error) {
	if eng := sl.eng.Load(); eng != nil {
		return eng.InsertBatchContext(ctx, pts)
	}
	locals := make([]int, len(pts))
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		locals[i], rows[i] = i, vecmath.Clone(p)
	}
	eng, err := sl.ss.newShardEngine(rows)
	if err != nil {
		return nil, err
	}
	if sl.ss.dir != "" {
		if err := sl.ss.createShardStore(sl.shard, eng); err != nil {
			return nil, err
		}
	}
	sl.eng.Store(eng)
	return locals, nil
}

// DeleteContext deletes a local ID; a shard that never held a point holds
// none to delete.
func (sl *shardSlot) DeleteContext(ctx context.Context, local int) (bool, error) {
	if eng := sl.eng.Load(); eng != nil {
		return eng.DeleteContext(ctx, local)
	}
	return false, nil
}

// newShardedSearcher returns a ShardedSearcher of empty slots and the slots
// as shards; the caller binds the core to them (init or assemble), fills
// them and publishes the shard map.
func newShardedSearcher(shards int) (*ShardedSearcher, []shard) {
	ss := &ShardedSearcher{slots: make([]*shardSlot, shards)}
	of := make([]shard, shards)
	for i := range ss.slots {
		ss.slots[i] = &shardSlot{ss: ss, shard: i}
		of[i] = ss.slots[i]
	}
	return ss, of
}

// NewSharded partitions points across the given number of shards and
// returns a ShardedSearcher. The options are those of New; when the scale
// parameter is estimated, it is estimated once over the full dataset (not
// per shard), so a ShardedSearcher and a Searcher over the same points use
// the same t. The points slice is retained by reference and must not be
// mutated afterwards; the engine never writes into it, nor into its
// capacity past its length.
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

	m, parts, err := index.Partition(points, shards)
	if err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}

	ss, of := newShardedSearcher(shards)
	ss.init(cfg.engineConfig, cfg.metric, len(points[0]), of)
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		eng, err := ss.newShardEngine(part)
		if err != nil {
			return nil, err
		}
		ss.slots[s].eng.Store(eng)
	}
	ss.smap.Store(m)
	return ss, nil
}

// engines iterates the engines of the populated shards, by shard number.
func (ss *ShardedSearcher) engines() iter.Seq2[int, *Searcher] {
	return func(yield func(int, *Searcher) bool) {
		for i, slot := range ss.slots {
			if eng := slot.eng.Load(); eng != nil && !yield(i, eng) {
				return
			}
		}
	}
}

// newShardEngine builds a shard engine over points carrying the sharded
// engine's configuration — deliberately without any scale estimation — and
// reporting its folds where the sharded engine does.
func (ss *ShardedSearcher) newShardEngine(points [][]float64) (*Searcher, error) {
	ix, err := ss.buildIndex(points, ss.metric)
	if err != nil {
		return nil, err
	}
	s := newSearcher(ss.engineConfig, ix)
	s.sharded, s.bg = true, ss.bg
	return s, nil
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
	// A shard engine not built yet, or a snapshot that trails the map: the
	// in-flight window.
	if eng := ss.slots[s].eng.Load(); eng != nil {
		if ix := eng.snap.Load().ix; l < ix.IDSpan() {
			return ix.Point(l)
		}
	}
	return nil
}

// MemberPoints is the sharded form of Searcher.MemberPoints: IDs are
// global, rows come from one pinned cross-shard read set (snapshots first,
// then the map, like every query).
func (ss *ShardedSearcher) MemberPoints(ids ...int) [][]float64 {
	f := &fedIndex{sc: ss.pin(nil).(*scatterSet)}
	rows := make([][]float64, len(ids))
	for i, g := range ids {
		if f.Live(g) {
			rows[i] = f.q
		}
	}
	return rows
}

// MemtableLen returns the delta-overlay memtable rows awaiting compaction,
// summed across shards.
func (ss *ShardedSearcher) MemtableLen() int {
	n := 0
	for _, eng := range ss.engines() {
		n += eng.MemtableLen()
	}
	return n
}

// Compactions returns the delta-overlay compactions performed, summed
// across shards.
func (ss *ShardedSearcher) Compactions() int64 {
	var n int64
	for _, eng := range ss.engines() {
		n += eng.Compactions()
	}
	return n
}
