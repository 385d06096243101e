package index

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/internal/vecmath"
)

// Overlay is an LSM-style delta layer over an immutable base index: recent
// inserts live in an append-only memtable, deletions in a tombstone set, and
// every query merges the two with the base on the fly under the (distance,
// ID) total order. It exists so the facade's copy-on-write writers never
// touch the base: Clone copies nothing (the memtable is shared by the
// claimed-length rule, the tombstone set until a clone deletes), and
// threading the delta into the base moves into Fold, paid once per
// compaction instead of once per write — by a base whose own Clone shares
// structure (the cover tree), in proportion to the delta, not to n.
//
// ID discipline: the base owns IDs [0, baseSpan); memtable row i is ID
// baseSpan+i. IDs are never reused and rows are never removed (a deleted
// memtable row is tombstoned in place), so Fold re-inserting the rows into a
// base clone reproduces exactly the IDs the overlay already handed out.
//
// An Overlay mutated through Insert/Delete is not safe for concurrent use
// (like every Dynamic); the facade's discipline — clone, mutate the clone,
// publish atomically — keeps published overlays immutable and therefore
// safe for any number of readers.
type Overlay struct {
	base     Cloner // immutable while this overlay is reachable by readers
	baseSpan int    // IDs below this resolve in base
	rows     Table[[]float64]
	tomb     Tombstones // deleted IDs, both base- and memtable-region
	alive    int
	dim      int
	metric   vecmath.Metric
	dist     vecmath.DistanceFunc // resolved kernel; falls back to metric.Distance
}

var _ Dynamic = (*Overlay)(nil)

// baseClones counts base-index clones performed by Fold across the process
// — one per compaction, whatever the base charges for it. The write-path
// tests pin that N inserts below the compaction threshold perform zero of
// them.
var baseClones atomic.Int64

// BaseClones returns the process-lifetime count of base-index clones (one
// per Fold).
func BaseClones() int64 { return baseClones.Load() }

// NewOverlay wraps base, which must be a Cloner — every serving back-end
// is — in an empty delta overlay; it panics on any other Index. The base is
// retained by reference and must not be mutated afterwards.
func NewOverlay(base Index) *Overlay {
	return &Overlay{
		base:     base.(Cloner),
		baseSpan: base.IDSpan(),
		alive:    base.Len(),
		dim:      base.Dim(),
		metric:   base.Metric(),
		dist:     vecmath.KernelFor(base.Metric()),
	}
}

// Base returns the immutable base index under the delta.
func (o *Overlay) Base() Index { return o.base }

// MemtableLen returns the number of memtable rows (including tombstoned
// ones — they still occupy IDs and are re-inserted by Fold).
func (o *Overlay) MemtableLen() int { return len(o.rows.Rows) }

// Pending returns the total delta size — memtable rows plus tombstones —
// the quantity the facade's compaction threshold watches.
func (o *Overlay) Pending() int { return len(o.rows.Rows) + o.tomb.Len() }

// Dirty reports whether the overlay carries any delta at all.
func (o *Overlay) Dirty() bool { return o.Pending() > 0 }

// Len implements Index; deleted points are excluded.
func (o *Overlay) Len() int { return o.alive }

// Dim implements Index.
func (o *Overlay) Dim() int { return o.dim }

// Metric implements Index.
func (o *Overlay) Metric() vecmath.Metric { return o.metric }

// IDSpan implements Liveness.
func (o *Overlay) IDSpan() int { return o.baseSpan + len(o.rows.Rows) }

// Live implements Liveness. A base-region ID is also asked of the base,
// which may carry tombstones of its own from a previous Fold.
func (o *Overlay) Live(id int) bool {
	if id < 0 || id >= o.IDSpan() || o.tomb.Has(id) {
		return false
	}
	return id >= o.baseSpan || o.base.Live(id)
}

// Point implements Index. Like the back-ends, it keeps returning the
// coordinates of tombstoned IDs and panics on IDs never assigned.
func (o *Overlay) Point(id int) []float64 {
	if id < o.baseSpan {
		return o.base.Point(id)
	}
	return o.rows.Rows[id-o.baseSpan]
}

// Insert implements Dynamic: an O(1) memtable append.
func (o *Overlay) Insert(p []float64) (int, error) {
	if err := vecmath.ValidateRowFor(o.metric, o.dim, p); err != nil {
		return 0, err
	}
	o.rows.Append(p)
	o.alive++
	return o.baseSpan + len(o.rows.Rows) - 1, nil
}

// Delete implements Dynamic: an O(1) tombstone. Memtable rows stay in place
// (their IDs are never reused); base points are hidden from every query
// without touching the shared base. An overlay that shares its tombstone set
// copies it before the first deletion (Tombstones).
func (o *Overlay) Delete(id int) bool {
	if !o.Live(id) {
		return false
	}
	o.tomb.Add(id)
	o.alive--
	return true
}

// Clone copies the overlay in O(1): the base is shared, the memtable is
// shared by the claimed-length rule (Table) and the tombstone set until one
// side deletes. Mutating either side afterwards is never observable through
// the other, so the facade's clone-then-swap writers keep their discipline
// — and since they are serialized and each clones the latest published
// overlay, every insert appends in place. Clone may run beside readers and
// other Clones of o, not beside a mutation of it.
func (o *Overlay) Clone() *Overlay {
	c := &Overlay{
		base:     o.base,
		baseSpan: o.baseSpan,
		rows:     o.rows,
		alive:    o.alive,
		dim:      o.dim,
		metric:   o.metric,
		dist:     o.dist,
	}
	o.tomb.cloneInto(&c.tomb)
	return c
}

// Fold threads the delta into the base, the work the per-write path leaves
// undone: it clones the base (whatever that costs the back-end — nothing for
// a cover tree, whose insertions then copy the paths they change), re-inserts
// the memtable rows (verifying each lands on the ID the overlay assigned),
// applies the tombstones in ascending ID order, and returns the folded index
// — a fresh base for a rebased overlay. Neither the receiver nor its base is
// modified, so a frozen overlay can be folded off-lock while readers query
// it and writers keep appending to its clones.
func (o *Overlay) Fold() (Cloner, error) {
	baseClones.Add(1)
	next := o.base.Clone()
	for i, p := range o.rows.Rows {
		id, err := next.Insert(p)
		if err != nil {
			return nil, fmt.Errorf("index: folding memtable row %d: %w", i, err)
		}
		if id != o.baseSpan+i {
			return nil, fmt.Errorf("index: folded row landed on id %d, overlay assigned %d", id, o.baseSpan+i)
		}
	}
	for _, id := range o.tomb.Sorted() {
		if !next.Delete(id) {
			return nil, fmt.Errorf("index: folded tombstone %d not deletable", id)
		}
	}
	return next, nil
}

// Rebase returns a fresh overlay over folded (the result of frozen.Fold())
// carrying only the delta the receiver accumulated after frozen was
// captured. It relies on the clone discipline's invariants: frozen was
// cloned from the same lineage as the receiver, so frozen.rows is a prefix
// of o.rows and frozen.tomb a subset of o.tomb.
func (o *Overlay) Rebase(frozen *Overlay, folded Cloner) *Overlay {
	span := frozen.baseSpan + len(frozen.rows.Rows)
	rows := slices.Clone(o.rows.Rows[len(frozen.rows.Rows):]) // its own array: a Table's claim covers a whole one
	next := &Overlay{
		base:     folded,
		baseSpan: span,
		rows:     TableOf(rows),
		alive:    o.alive,
		dim:      o.dim,
		metric:   o.metric,
		dist:     o.dist,
	}
	for _, id := range o.tomb.Sorted() {
		if frozen.tomb.Has(id) {
			continue // already applied to folded
		}
		next.tomb.Add(id)
	}
	return next
}

// baseSkip translates the caller's skipID for the base index: base queries
// can only be asked to skip base-region IDs.
func (o *Overlay) baseSkip(skipID int) int {
	if skipID >= 0 && skipID < o.baseSpan {
		return skipID
	}
	return -1
}

// memNeighbors fills buf[:0] with the live memtable rows as (distance, ID)
// pairs in ascending (distance, ID) order — the memtable half of every
// merge. A clean overlay gets buf back empty.
func (o *Overlay) memNeighbors(buf []Neighbor, q []float64, skipID int) []Neighbor {
	buf = buf[:0]
	for i, p := range o.rows.Rows {
		id := o.baseSpan + i
		if id == skipID || o.tomb.Has(id) {
			continue
		}
		buf = append(buf, Neighbor{ID: id, Dist: o.dist(q, p)})
	}
	slices.SortFunc(buf, func(a, b Neighbor) int {
		if Before(a, b) {
			return -1
		}
		return 1 // IDs are unique, so no two rows tie
	})
	return buf
}

// overlayCursorPool recycles merge cursors together with their memtable
// buffers: a cursor goes back at Close (every opener closes, see Cursor), so
// a dirty read sorts its memtable into memory the last one left behind. A
// buffer holds distances and IDs only, so the pool pins no row.
var overlayCursorPool = sync.Pool{New: func() any { return new(overlayCursor) }}

// openCursor takes a cursor from the pool, sorts the memtable into its
// buffer and points it at base, a cursor of the base (timed, when traced).
func (o *Overlay) openCursor(base Cursor, q []float64, skipID int) *overlayCursor {
	c := overlayCursorPool.Get().(*overlayCursor)
	c.open, c.base, c.tomb, c.baseEnd = true, base, &o.tomb, false
	c.mem = o.memNeighbors(c.mem, q, skipID)
	return c
}

// NewCursor implements Index: the base cursor filtered through the
// tombstones, two-way merged with the sorted memtable. Base wins distance
// ties, which is exactly ascending-ID order: every base ID is below every
// memtable ID.
func (o *Overlay) NewCursor(q []float64, skipID int) Cursor {
	return o.openCursor(o.base.NewCursor(q, o.baseSkip(skipID)), q, skipID)
}

// NewCursorCtx is NewCursor for traced queries: when ctx carries a span,
// the returned cursor splits the merge cost into "overlay.base" (time
// spent driving the base index's expanding search, items pulled and
// served) and "overlay.memtable" (rows scanned/sorted, items served)
// child spans, emitted when the scan loop closes the cursor. An untraced
// ctx falls back to the plain cursor.
func (o *Overlay) NewCursorCtx(ctx context.Context, q []float64, skipID int) Cursor {
	sp := trace.FromContext(ctx)
	if sp == nil {
		return o.NewCursor(q, skipID)
	}
	tb := &timedCursor{Cursor: o.base.NewCursor(q, o.baseSkip(skipID))}
	memStart := time.Now()
	c := o.openCursor(tb, q, skipID)
	memDur := time.Since(memStart)
	return &tracedOverlayCursor{
		overlayCursor: c,
		sp:            sp,
		tb:            tb,
		start:         memStart,
		memDur:        memDur,
		memRows:       len(o.rows.Rows),
		tombs:         o.tomb.Len(),
	}
}

// timedCursor wraps a base cursor, accumulating the wall time and item
// count of its Next calls.
type timedCursor struct {
	Cursor
	dur time.Duration
	n   int
}

func (t *timedCursor) Next() (Neighbor, bool) {
	t0 := time.Now()
	n, ok := t.Cursor.Next()
	t.dur += time.Since(t0)
	if ok {
		t.n++
	}
	return n, ok
}

// tracedOverlayCursor is an overlayCursor that attributes every served
// neighbor to its source and reports both halves as spans.
type tracedOverlayCursor struct {
	*overlayCursor
	sp             *trace.Span
	tb             *timedCursor
	start          time.Time
	memDur         time.Duration
	memRows, tombs int
	servedBase     int
	servedMem      int
}

func (c *tracedOverlayCursor) Next() (Neighbor, bool) {
	if c.sp == nil {
		return Neighbor{}, false // closed: the merge cursor beneath is the pool's
	}
	before := c.memAt
	n, ok := c.overlayCursor.Next()
	if ok {
		if c.memAt > before {
			c.servedMem++
		} else {
			c.servedBase++
		}
	}
	return n, ok
}

// Close closes the cursor beneath and emits the accumulated base/memtable
// split as retro-dated spans under the query's trace. Called by the scan loop
// after the expanding search terminates.
func (c *tracedOverlayCursor) Close() {
	if c.sp == nil {
		return // closed already: the spans are out
	}
	c.overlayCursor.Close()
	bsp := c.sp.ChildAt("overlay.base", c.start)
	bsp.SetInt("pulled", int64(c.tb.n))
	bsp.SetInt("served", int64(c.servedBase))
	bsp.SetInt("tombstones", int64(c.tombs))
	bsp.EndWithDuration(c.tb.dur)
	msp := c.sp.ChildAt("overlay.memtable", c.start)
	msp.SetInt("rows", int64(c.memRows))
	msp.SetInt("served", int64(c.servedMem))
	msp.EndWithDuration(c.memDur)
	c.sp = nil
}

type overlayCursor struct {
	open    bool // false once closed: the pool, or the next query, owns it
	base    Cursor
	tomb    *Tombstones
	mem     []Neighbor
	memAt   int
	pending Neighbor // next live base neighbor, when buffered
	havePnd bool
	baseEnd bool
}

func (c *overlayCursor) Next() (Neighbor, bool) {
	if !c.havePnd && !c.baseEnd {
		for {
			n, ok := c.base.Next()
			if !ok {
				c.baseEnd = true
				break
			}
			if c.tomb.Has(n.ID) {
				continue
			}
			c.pending, c.havePnd = n, true
			break
		}
	}
	memOK := c.memAt < len(c.mem)
	switch {
	case c.havePnd && memOK:
		if Before(c.pending, c.mem[c.memAt]) {
			c.havePnd = false
			return c.pending, true
		}
		c.memAt++
		return c.mem[c.memAt-1], true
	case c.havePnd:
		c.havePnd = false
		return c.pending, true
	case memOK:
		c.memAt++
		return c.mem[c.memAt-1], true
	}
	return Neighbor{}, false
}

// Close implements Cursor: it closes the base cursor and returns this one,
// emptied but for its buffer's capacity, to the pool. Until it is reopened
// its Next reports exhausted; a second Close finds it closed.
func (c *overlayCursor) Close() {
	if !c.open {
		return
	}
	c.base.Close()
	*c = overlayCursor{mem: c.mem[:0], baseEnd: true}
	overlayCursorPool.Put(c)
}

// KNN implements Index: the first k neighbors of the merge cursor every
// scan reads. k is first clamped to the live count: no answer is longer, and
// a caller's huge k must not size a buffer.
func (o *Overlay) KNN(q []float64, k int, skipID int) []Neighbor {
	if k <= 0 {
		return nil
	}
	return Collect(o.NewCursor(q, skipID), min(k, o.alive))
}

// TableBounds implements TableReverser through the base; the memtable is
// scanned and needs none.
func (o *Overlay) TableBounds(kd []float64) []float64 { return o.base.TableBounds(kd) }

// ReverseByTable implements TableReverser: the base's walk, then one pass
// over the memtable rows. The table holds −Inf at every tombstone, so no
// comparison accepts one.
func (o *Overlay) ReverseByTable(q []float64, skipID int, kd, bounds []float64, out []int) []int {
	out = o.base.ReverseByTable(q, o.baseSkip(skipID), kd, bounds, out)
	for i, p := range o.rows.Rows {
		if id := o.baseSpan + i; id != skipID && o.dist(q, p) <= kd[id] {
			out = append(out, id)
		}
	}
	return out
}

// CountCloser implements Index. A count cannot be filtered after the fact,
// so the base is handed the overlay's tombstones together with the caller's
// own dead set and excludes them while it counts; the memtable rows are
// scanned in place — no distances sorted, no lists merged — until limit is
// reached.
func (o *Overlay) CountCloser(q []float64, r float64, limit, skipID int, dead *Tombstones) int {
	if limit <= 0 {
		return 0
	}
	n := o.base.CountCloser(q, r, limit, o.baseSkip(skipID), o.tomb.union(dead))
	for i, p := range o.rows.Rows {
		if n >= limit {
			break
		}
		id := o.baseSpan + i
		if id == skipID || o.tomb.Has(id) || dead.Has(id) {
			continue
		}
		if o.dist(q, p) < r {
			n++
		}
	}
	return n
}
