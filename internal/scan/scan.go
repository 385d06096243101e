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
// snapshot) is scanned in the order it sits in memory. Distances go through
// vecmath's direct kernels instead of the Metric interface, eight rows a pass
// where the metric has a batch kernel (DESIGN.md "Distance kernels"), without
// changing a single result bit.
package scan

import (
	"sync"

	"repro/internal/index"
	"repro/internal/pqueue"
	"repro/internal/vecmath"
)

// Index is a brute-force sequential scan over the rows its index.RowStore
// holds. It implements index.Index and index.Dynamic. The zero value is not
// usable; construct with New.
type Index struct {
	index.RowStore
}

var _ index.Cloner = (*Index)(nil)

// New builds a scan index over points in O(1) beyond validation: the points
// slice is retained by reference (index.RowsOf) and never written.
func New(points [][]float64, metric vecmath.Metric) (*Index, error) {
	ix := new(Index)
	if err := ix.Init(points, metric); err != nil {
		return nil, err
	}
	return ix, nil
}

// Insert implements index.Dynamic: the row it is given is appended to the
// ID→row table, retained by reference like New's.
func (ix *Index) Insert(p []float64) (int, error) {
	return ix.Append(p)
}

// Clone implements index.Cloner. The rows and tombstones are shared by the
// store's rule (index.RowStore.CloneInto), so either side may insert and
// delete afterwards and neither sees the other's writes.
func (ix *Index) Clone() index.Dynamic {
	cl := new(Index)
	ix.CloneInto(&cl.RowStore)
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
// of NewCursor.
func (ix *Index) KNN(q []float64, k int, skipID int) []index.Neighbor {
	if k <= 0 {
		return nil
	}
	top := pqueue.NewTopK[int](max(1, min(k, ix.Len()))) // never k slots for k > n
	ix.measureRows(q, skipID, nil, func(id int, d float64) bool {
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

// TableBounds implements index.TableReverser: a scan prunes nothing.
func (ix *Index) TableBounds([]float64) ([]float64, bool) { return nil, true }

// ReverseByTable implements index.TableReverser: one row loop, each row
// decided by one comparison with its table entry.
func (ix *Index) ReverseByTable(q []float64, skipID int, kd, _ []float64, out []int) []int {
	ix.measureRows(q, skipID, nil, func(id int, d float64) bool {
		if d <= kd[id] {
			out = append(out, id)
		}
		return true
	})
	return out
}

// CountCloser implements index.Index: a row loop with a strict comparison
// and an exit at limit.
func (ix *Index) CountCloser(q []float64, r float64, limit, skipID int, dead *index.Tombstones) int {
	if limit <= 0 {
		return 0
	}
	count := 0
	ix.measureRows(q, skipID, dead, func(_ int, d float64) bool {
		if d < r {
			count++
		}
		return count < limit
	})
	return count
}
