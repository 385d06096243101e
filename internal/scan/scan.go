// Package scan implements the sequential-scan similarity-search back-end: a
// flat array of points with no preprocessing at all.
//
// The paper (Section 7.1) uses sequential scan as the forward-kNN back-end
// for its highest-dimensional datasets (MNIST, Imagenet), where tree indexes
// lose their pruning power to the curse of dimensionality. Scan is also the
// reference implementation against which every other back-end in this module
// is tested.
//
// The index holds the caller's rows, as every back-end does (index.RowsOf):
// no copy, so a dataset laid out contiguously (dataset.Compact, a restored
// snapshot) is scanned in the order it sits in memory. Two optimizations keep
// the flat scan at hardware speed without changing a single result bit
// (DESIGN.md "Distance kernels and quantized filtering"): distances go
// through vecmath's direct kernels instead of the Metric interface; and an
// optional 8-bit scalar-quantization pre-filter (EnableQuantFilter) screens
// rows against the current search bound with code-level and float32-level
// lower bounds, so only rows that could possibly enter the result pay the
// exact float64 kernel. Both lower-bound tiers are sound, so screening only
// skips rows the bounded search would have discarded anyway.
package scan

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/index"
	"repro/internal/pqueue"
	"repro/internal/vecmath"
)

// quantKind selects the lower-bound domain of the quantized filter for the
// metric in effect.
type quantKind uint8

const (
	quantL2   quantKind = iota // rooted L2 results, squared LUT contributions
	quantSqL2                  // squared L2 results, squared LUT contributions
	quantL1                    // additive absolute contributions
	quantLinf                  // max-combined contributions
)

// quantSlack is the relative safety margin on every screening comparison:
// a row is skipped only when its lower bound exceeds the search bound by
// this factor. It is ~7 orders of magnitude above accumulated float64
// rounding for any realistic dimensionality, which is what lets the skip
// rule claim byte-identical results, and far below any distance gap the
// filter could usefully exploit.
const quantSlack = 1e-9

// quantKindFor reports the filter domain for m, or ok=false when the metric
// has no sound quantized lower bound (Angular, Minkowski, custom metrics).
func quantKindFor(m vecmath.Metric) (quantKind, bool) {
	switch m.(type) {
	case vecmath.Euclidean:
		return quantL2, true
	case vecmath.SquaredEuclidean:
		return quantSqL2, true
	case vecmath.Manhattan:
		return quantL1, true
	case vecmath.Chebyshev:
		return quantLinf, true
	}
	return 0, false
}

// FilterStats carries the quantized filter's admission counters. One
// FilterStats is shared by every clone in an index lineage (Clone copies
// the codes, not the counters), so the totals are monotone across
// compaction folds — the property the telemetry counter contract needs.
type FilterStats struct {
	admitted atomic.Int64
	screened atomic.Int64
}

// Counts returns the lifetime totals: rows that reached the exact kernel
// while the filter was consulted, and rows the lower bounds screened out.
func (s *FilterStats) Counts() (admitted, screened int64) {
	return s.admitted.Load(), s.screened.Load()
}

// quantFilter is the screening tier: one byte per (row, dimension) plus a
// float32 shadow block. codes and blk grow with Insert and are copied by
// Clone; cb and stats are shared across the lineage (cb is immutable).
type quantFilter struct {
	cb    *vecmath.Codebook
	kind  quantKind
	codes []uint8
	blk   *vecmath.Block
	stats *FilterStats
}

func (f *quantFilter) clone() *quantFilter {
	return &quantFilter{
		cb:    f.cb,
		kind:  f.kind,
		codes: append([]uint8(nil), f.codes...),
		blk:   f.blk.Clone(),
		stats: f.stats,
	}
}

func (f *quantFilter) appendRow(p []float64) {
	dim := f.cb.Dim()
	n := len(f.codes)
	f.codes = append(f.codes, make([]uint8, dim)...)
	f.cb.Encode(p, f.codes[n:])
	f.blk.Append(p)
}

// Index is a brute-force sequential scan over the rows its index.RowStore
// holds. It implements index.Index and index.Dynamic. The zero value is not
// usable; construct with New.
type Index struct {
	index.RowStore
	filter *quantFilter // nil until EnableQuantFilter
}

var (
	_ index.Cloner        = (*Index)(nil)
	_ index.QuantFiltered = (*Index)(nil)
)

// New builds a scan index over points in O(1) beyond validation: the points
// slice is retained by reference (index.RowsOf) and never written.
func New(points [][]float64, metric vecmath.Metric) (*Index, error) {
	ix := new(Index)
	if err := ix.Init(points, metric); err != nil {
		return nil, err
	}
	return ix, nil
}

// EnableQuantFilter implements index.QuantFiltered: it attaches the 8-bit
// screening tier, training a fresh codebook over the current rows when cb
// is nil (a restore passes the persisted codebook so screening bounds match
// the original build exactly). It fails for metrics without a sound
// coordinate-interval lower bound.
func (ix *Index) EnableQuantFilter(cb *vecmath.Codebook) error {
	kind, ok := quantKindFor(ix.Metric())
	if !ok {
		return errors.New("scan: quantized filter does not support metric " + ix.Metric().Name())
	}
	if cb == nil {
		cb = vecmath.TrainCodebook(ix.Rows())
	}
	if cb.Dim() != ix.Dim() {
		return vecmath.CheckDims(make([]float64, cb.Dim()), ix.Point(0))
	}
	f := &quantFilter{
		cb:    cb,
		kind:  kind,
		codes: make([]uint8, 0, ix.IDSpan()*ix.Dim()),
		blk:   vecmath.NewEmptyBlock(ix.Dim()),
		stats: &FilterStats{},
	}
	for _, p := range ix.Rows() {
		f.appendRow(p)
	}
	ix.filter = f
	return nil
}

// QuantCodebook implements index.QuantFiltered.
func (ix *Index) QuantCodebook() *vecmath.Codebook {
	if ix.filter == nil {
		return nil
	}
	return ix.filter.cb
}

// QuantFilterStats implements index.QuantFiltered.
func (ix *Index) QuantFilterStats() (admitted, screened int64) {
	if ix.filter == nil {
		return 0, 0
	}
	return ix.filter.stats.Counts()
}

// Insert implements index.Dynamic: the row it is given is appended to the
// ID→row table, retained by reference like New's.
func (ix *Index) Insert(p []float64) (int, error) {
	id, err := ix.Append(p)
	if err == nil && ix.filter != nil {
		ix.filter.appendRow(p)
	}
	return id, err
}

// Clone implements index.Cloner. The rows and tombstones are shared by the
// store's rule (index.RowStore.CloneInto), so either side may insert and
// delete afterwards and neither sees the other's writes; the quantized
// filter's codes and float32 block are copied.
func (ix *Index) Clone() index.Dynamic {
	cl := new(Index)
	ix.CloneInto(&cl.RowStore)
	if ix.filter != nil {
		cl.filter = ix.filter.clone()
	}
	return cl
}

// cursorChunk is how many rows one call of the one-vs-many kernel measures.
const cursorChunk = 128

// chunkPool recycles the kernel's output space: the kernel is called
// through a func value, so a local array handed to it would be moved to the
// heap on every call.
var chunkPool = sync.Pool{New: func() any { return new([cursorChunk]float64) }}

// measureRows calls visit with the ID and distance from q of every row the
// query does not exclude, in ID order, until visit returns false. Rows go
// to the one-vs-many kernel cursorChunk at a time and excluded rows are
// dropped after it has run, so member queries and indexes holding
// tombstones run the same kernel as everything else.
func (ix *Index) measureRows(q []float64, skipID int, dead *index.Tombstones, visit func(id int, d float64) bool) {
	dists := chunkPool.Get().(*[cursorChunk]float64)
	defer chunkPool.Put(dists)
	all := ix.Rows()
	for lo := 0; lo < len(all); lo += cursorChunk {
		rows := all[lo:min(lo+cursorChunk, len(all))]
		ix.Batch(q, rows, dists[:])
		for j, d := range dists[:len(rows)] {
			id := lo + j
			if ix.Skip(id, skipID) || dead.Has(id) {
				continue
			}
			if !visit(id, d) {
				return
			}
		}
	}
}

// eachRow is measureRows for the bounded searches: with the quantized
// filter enabled, rows go one at a time and each is first screened against
// bound() — the search bound in the metric's result domain, or false while
// there is none yet, as for a KNN heap that is not full — so only rows that
// could beat it pay the exact kernel. A screened row is one the caller
// would have discarded, so the rows it sees decide the same result.
func (ix *Index) eachRow(q []float64, skipID int, dead *index.Tombstones, bound func() (float64, bool), visit func(id int, d float64) bool) {
	if ix.filter == nil {
		ix.measureRows(q, skipID, dead, visit)
		return
	}
	qq, release := ix.newQuantQuery(q)
	defer release()
	var admitted, screened int64
	defer func() {
		qq.f.stats.admitted.Add(admitted)
		qq.f.stats.screened.Add(screened)
	}()
	for id, p := range ix.Rows() {
		if ix.Skip(id, skipID) || dead.Has(id) {
			continue
		}
		// Rows measured while there is no bound never consult the screen,
		// so they count toward neither admitted nor screened — the counters
		// cover only rows the filter actually ruled on.
		if b, ok := bound(); ok {
			if qq.screened(id, b) {
				screened++
				continue
			}
			admitted++
		}
		if !visit(id, ix.Dist(q, p)) {
			return
		}
	}
}

// NewCursor implements index.Index. Every row's distance is computed up
// front (measureRows). The order is resolved lazily: one O(n) heapify here,
// one O(log n) pop per Next, since RDT reads at most 2^t·k neighbors of the
// n — in the strict (distance, ID) order of pqueue.NewNearest. The n-entry
// item array is the cursor's, and Close hands the cursor with it to the
// next query.
func (ix *Index) NewCursor(q []float64, skipID int) index.Cursor {
	c := cursorPool.Get().(*cursor)
	if cap(c.items) < ix.IDSpan() {
		c.items = make([]pqueue.Item[int], 0, ix.IDSpan())
	}
	items := c.items[:0]
	ix.measureRows(q, skipID, nil, func(id int, d float64) bool {
		items = append(items, pqueue.Item[int]{Priority: d, Value: id})
		return true
	})
	c.items = items
	c.ready.Heapify(items)
	c.open = true
	return c
}

// cursor is a heap of (distance, ID) pairs over an item array that outlives
// the query: the pairs are plain numbers, so a pooled cursor references no
// index, query or row.
type cursor struct {
	ready *pqueue.Min[int]
	items []pqueue.Item[int] // the array ready orders, kept for the next query
	open  bool
}

var cursorPool = sync.Pool{New: func() any { return &cursor{ready: pqueue.NewNearest(0)} }}

func (c *cursor) Next() (index.Neighbor, bool) {
	it, ok := c.ready.Pop()
	return index.Neighbor{ID: it.Value, Dist: it.Priority}, ok
}

// Close implements index.Cursor: the stream ends here and the cursor goes
// back to the pool, once.
func (c *cursor) Close() {
	if !c.open {
		return
	}
	c.open = false
	c.ready.Heapify(nil)
	cursorPool.Put(c)
}

// KNN implements index.Index with a bounded max-heap, avoiding the full sort
// of NewCursor. With the quantized filter enabled, rows are screened against
// the heap bound with sound lower bounds before paying the exact kernel;
// because the loop only offers a row when d < bound, skipping a row whose
// lower bound clears the bound (with quantSlack margin) can never change the
// heap's contents, so the results are byte-identical either way.
func (ix *Index) KNN(q []float64, k int, skipID int) []index.Neighbor {
	if k <= 0 {
		return nil
	}
	top := pqueue.NewTopK[int](max(1, min(k, ix.Len()))) // never k slots for k > n
	ix.eachRow(q, skipID, nil, top.Bound, func(id int, d float64) bool {
		if bound, full := top.Bound(); !full || d < bound {
			top.Offer(d, id)
		}
		return true
	})
	items := top.Sorted()
	out := make([]index.Neighbor, len(items))
	for i, it := range items {
		out[i] = index.Neighbor{ID: it.Value, Dist: it.Priority}
	}
	return out
}

// quantQuery holds the per-query screening state shared by the filtered
// KNN and CountCloser loops. Tier 1 screens through a per-query
// lookup table rather than codebook arithmetic: one table load per
// dimension is ~7× cheaper than re-deriving the cell interval, and the
// dim×256-entry build cost amortizes over the whole row scan (tables are
// pooled so steady-state queries allocate nothing).
type quantQuery struct {
	f      *quantFilter
	dim    int
	tab    []float64
	q32    []float32
	qslack float64
}

// lutPool recycles screening tables across queries. Entries are pooled at
// whatever size their index needed; a Get that comes back too small for
// the current dimensionality is dropped and reallocated.
var lutPool sync.Pool

func (ix *Index) newQuantQuery(q []float64) (*quantQuery, func()) {
	f := ix.filter
	q32, qslack := vecmath.Quantize32(q)
	need := ix.Dim() * 256
	var tab []float64
	if v := lutPool.Get(); v != nil {
		if t := v.([]float64); cap(t) >= need {
			tab = t[:need]
		}
	}
	if tab == nil {
		tab = make([]float64, need)
	}
	squared := f.kind == quantL2 || f.kind == quantSqL2
	f.cb.BuildLUT(q, squared, tab)
	qq := &quantQuery{f: f, dim: ix.Dim(), tab: tab, q32: q32, qslack: qslack}
	return qq, func() { lutPool.Put(tab) } //nolint:staticcheck // slice header boxing is fine here
}

// screened reports whether row id provably cannot beat bound (the current
// heap bound or count radius, in the metric's result domain). Tier 1 is the
// code-level LUT bound; rows surviving it are re-screened by the tighter
// float32 block bound (tier 2). Both tiers under-estimate the exact
// distance, and the quantSlack margin absorbs their own float64 rounding,
// so a screened row could never have been offered by the exact loop.
func (qq *quantQuery) screened(id int, bound float64) bool {
	stop := bound * (1 + quantSlack)
	codes := qq.f.codes[id*qq.dim : (id+1)*qq.dim]
	blk := qq.f.blk
	switch qq.f.kind {
	case quantL2:
		if vecmath.LUTScreenSum(qq.tab, codes, stop*stop) > stop*stop {
			return true
		}
		lb := blk.LowerBound(id, math.Sqrt(blk.SquaredL2(id, qq.q32)), qq.qslack)
		return lb > stop
	case quantSqL2:
		if vecmath.LUTScreenSum(qq.tab, codes, stop) > stop {
			return true
		}
		lb := blk.LowerBound(id, math.Sqrt(blk.SquaredL2(id, qq.q32)), qq.qslack)
		return lb > 0 && lb*lb > stop
	case quantL1:
		if vecmath.LUTScreenSum(qq.tab, codes, stop) > stop {
			return true
		}
		return blk.LowerBound(id, blk.L1(id, qq.q32), qq.qslack) > stop
	default: // quantLinf
		if vecmath.LUTLowerBoundMax(qq.tab, codes, stop) > stop {
			return true
		}
		return blk.LowerBound(id, blk.Linf(id, qq.q32), qq.qslack) > stop
	}
}

// radius is the screening bound of a search with a fixed radius r.
func radius(r float64) func() (float64, bool) {
	return func() (float64, bool) { return r, true }
}

// CountCloser implements index.Index: a row loop with a strict comparison
// and an exit at limit. The quantized filter screens against the fixed
// radius r — a row is skipped only when its lower bound clears r by
// quantSlack, so rows at or below r always reach the exact kernel.
func (ix *Index) CountCloser(q []float64, r float64, limit, skipID int, dead *index.Tombstones) int {
	if limit <= 0 {
		return 0
	}
	count := 0
	ix.eachRow(q, skipID, dead, radius(r), func(_ int, d float64) bool {
		if d < r {
			count++
		}
		return count < limit
	})
	return count
}
