// Package kdtree implements a bucketed k-d tree with incremental
// nearest-neighbor traversal, batch kNN and range queries.
//
// The k-d tree serves as an additional low-dimensional back-end for RDT's
// forward search (the ablation benches compare it against the cover tree and
// sequential scan). It requires a metric that can lower-bound distances to
// axis-aligned boxes (vecmath.BoxDistancer), so it supports the Lp family
// but not arbitrary metrics.
package kdtree

import (
	"errors"
	"sort"

	"repro/internal/index"
	"repro/internal/pqueue"
	"repro/internal/vecmath"
)

// leafSize is the bucket capacity below which splitting stops. Small enough
// to keep pruning effective, large enough to amortize traversal overhead.
const leafSize = 16

type node struct {
	// Interior nodes split on dimension dim at value split.
	dim   int
	split float64
	left  *node
	right *node
	// Leaves hold point IDs directly.
	ids []int
	// lo/hi is the tight bounding box of all points in the subtree.
	lo, hi []float64
}

func (n *node) isLeaf() bool { return n.left == nil }

// Tree is an immutable k-d tree over a point set. It implements index.Index
// and is safe for concurrent readers.
type Tree struct {
	points [][]float64
	metric vecmath.Metric
	boxer  vecmath.BoxDistancer
	dim    int
	root   *node
}

var _ index.Index = (*Tree)(nil)

// New builds a k-d tree over points. The metric must implement
// vecmath.BoxDistancer.
func New(points [][]float64, metric vecmath.Metric) (*Tree, error) {
	if metric == nil {
		return nil, errors.New("kdtree: nil metric")
	}
	boxer, ok := metric.(vecmath.BoxDistancer)
	if !ok {
		return nil, errors.New("kdtree: metric cannot bound box distances; use covertree or scan")
	}
	if err := vecmath.ValidateAllFor(metric, points); err != nil {
		return nil, err
	}
	t := &Tree{points: points, metric: metric, boxer: boxer, dim: len(points[0])}
	ids := make([]int, len(points))
	for i := range ids {
		ids[i] = i
	}
	t.root = t.build(ids)
	return t, nil
}

// Builder constructs k-d trees; it implements index.Builder.
type Builder struct{}

// Build implements index.Builder.
func (Builder) Build(points [][]float64, metric vecmath.Metric) (index.Index, error) {
	return New(points, metric)
}

// Name implements index.Builder.
func (Builder) Name() string { return "kdtree" }

func (t *Tree) build(ids []int) *node {
	n := &node{lo: make([]float64, t.dim), hi: make([]float64, t.dim)}
	copy(n.lo, t.points[ids[0]])
	copy(n.hi, t.points[ids[0]])
	for _, id := range ids[1:] {
		p := t.points[id]
		for j := 0; j < t.dim; j++ {
			if p[j] < n.lo[j] {
				n.lo[j] = p[j]
			}
			if p[j] > n.hi[j] {
				n.hi[j] = p[j]
			}
		}
	}
	if len(ids) <= leafSize {
		n.ids = ids
		return n
	}
	// Split at the median of the widest dimension.
	widest, width := 0, n.hi[0]-n.lo[0]
	for j := 1; j < t.dim; j++ {
		if w := n.hi[j] - n.lo[j]; w > width {
			widest, width = j, w
		}
	}
	if width == 0 {
		// All points coincide; keep them in one (oversized) leaf.
		n.ids = ids
		return n
	}
	n.dim = widest
	sort.Slice(ids, func(a, b int) bool {
		return t.points[ids[a]][widest] < t.points[ids[b]][widest]
	})
	mid := len(ids) / 2
	// Shift the cut so equal keys never straddle the boundary, which
	// would otherwise recurse forever on heavily duplicated data. Walk up
	// first; if the upper half is one equal run, walk down instead (the
	// positive width guarantees a strictly smaller key exists below).
	for mid < len(ids) && t.points[ids[mid]][widest] == t.points[ids[mid-1]][widest] {
		mid++
	}
	if mid == len(ids) {
		mid = len(ids) / 2
		for mid > 0 && t.points[ids[mid]][widest] == t.points[ids[mid-1]][widest] {
			mid--
		}
	}
	n.split = t.points[ids[mid]][widest]
	n.left = t.build(ids[:mid])
	n.right = t.build(ids[mid:])
	return n
}

// Len implements index.Index.
func (t *Tree) Len() int { return len(t.points) }

// Dim implements index.Index.
func (t *Tree) Dim() int { return t.dim }

// Point implements index.Index.
func (t *Tree) Point(id int) []float64 { return t.points[id] }

// Metric implements index.Index.
func (t *Tree) Metric() vecmath.Metric { return t.metric }

// cursor interleaves a node frontier (keyed by box lower bound) with
// resolved points (keyed by exact distance); see covertree for the scheme.
type cursor struct {
	t      *Tree
	q      []float64
	skipID int
	nodes  *pqueue.Min[*node]
	ready  *pqueue.Min[int]
}

// NewCursor implements index.Index.
func (t *Tree) NewCursor(q []float64, skipID int) index.Cursor {
	c := &cursor{t: t, q: q, skipID: skipID,
		nodes: pqueue.NewMin[*node](64), ready: pqueue.NewNearest(64)}
	if t.root != nil {
		c.nodes.Push(t.boxer.BoxDistance(q, t.root.lo, t.root.hi), t.root)
	}
	return c
}

// Close implements index.Cursor; the cursor owns nothing that outlives it.
func (c *cursor) Close() {}

func (c *cursor) Next() (index.Neighbor, bool) {
	for {
		readyTop, hasReady := c.ready.Peek()
		nodeTop, hasNode := c.nodes.Peek()
		// Strict, so ties leave in ascending ID order (see covertree).
		if hasReady && (!hasNode || readyTop.Priority < nodeTop.Priority) {
			it, _ := c.ready.Pop()
			return index.Neighbor{ID: it.Value, Dist: it.Priority}, true
		}
		if !hasNode {
			return index.Neighbor{}, false
		}
		it, _ := c.nodes.Pop()
		n := it.Value
		if n.isLeaf() {
			for _, id := range n.ids {
				if id == c.skipID {
					continue
				}
				c.ready.Push(c.t.metric.Distance(c.q, c.t.points[id]), id)
			}
			continue
		}
		c.nodes.Push(c.t.boxer.BoxDistance(c.q, n.left.lo, n.left.hi), n.left)
		c.nodes.Push(c.t.boxer.BoxDistance(c.q, n.right.lo, n.right.hi), n.right)
	}
}

// KNN implements index.Index with best-first descent and bound pruning.
func (t *Tree) KNN(q []float64, k int, skipID int) []index.Neighbor {
	if k <= 0 || t.root == nil {
		return nil
	}
	top := pqueue.NewTopK[int](k)
	nodes := pqueue.NewMin[*node](64)
	nodes.Push(t.boxer.BoxDistance(q, t.root.lo, t.root.hi), t.root)
	for {
		it, ok := nodes.Pop()
		if !ok {
			break
		}
		if bound, full := top.Bound(); full && it.Priority > bound {
			break
		}
		n := it.Value
		if n.isLeaf() {
			for _, id := range n.ids {
				if id == skipID {
					continue
				}
				d := t.metric.Distance(q, t.points[id])
				if bound, full := top.Bound(); !full || d < bound {
					top.Offer(d, id)
				}
			}
			continue
		}
		bound, full := top.Bound()
		for _, child := range [2]*node{n.left, n.right} {
			lb := t.boxer.BoxDistance(q, child.lo, child.hi)
			if full && lb > bound {
				continue
			}
			nodes.Push(lb, child)
		}
	}
	items := top.Sorted()
	out := make([]index.Neighbor, len(items))
	for i, it := range items {
		out[i] = index.Neighbor{ID: it.Value, Dist: it.Priority}
	}
	return out
}

// Range implements index.Index.
func (t *Tree) Range(q []float64, r float64, skipID int) []index.Neighbor {
	var out []index.Neighbor
	t.forEachInRange(q, r, skipID, func(id int, d float64) {
		out = append(out, index.Neighbor{ID: id, Dist: d})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// CountRange implements index.Index.
func (t *Tree) CountRange(q []float64, r float64, skipID int) int {
	count := 0
	t.forEachInRange(q, r, skipID, func(int, float64) { count++ })
	return count
}

// CountCloser implements index.Index: a depth-first walk that enters a box
// unless its lower bound exceeds r (the rule Range prunes by) and returns
// the moment limit points are found.
func (t *Tree) CountCloser(q []float64, r float64, limit, skipID int, dead map[int]bool) int {
	if limit <= 0 || t.root == nil {
		return 0
	}
	return t.countCloser(t.root, q, r, limit, skipID, dead)
}

// countCloser returns min(limit, matches in n's subtree); limit is positive.
func (t *Tree) countCloser(n *node, q []float64, r float64, limit, skipID int, dead map[int]bool) int {
	if t.boxer.BoxDistance(q, n.lo, n.hi) > r {
		return 0
	}
	if !n.isLeaf() {
		count := t.countCloser(n.left, q, r, limit, skipID, dead)
		if count < limit {
			count += t.countCloser(n.right, q, r, limit-count, skipID, dead)
		}
		return count
	}
	count := 0
	for _, id := range n.ids {
		if id == skipID || dead[id] {
			continue
		}
		if t.metric.Distance(q, t.points[id]) < r {
			if count++; count == limit {
				break
			}
		}
	}
	return count
}

func (t *Tree) forEachInRange(q []float64, r float64, skipID int, emit func(id int, d float64)) {
	var visit func(n *node)
	visit = func(n *node) {
		if t.boxer.BoxDistance(q, n.lo, n.hi) > r {
			return
		}
		if n.isLeaf() {
			for _, id := range n.ids {
				if id == skipID {
					continue
				}
				if d := t.metric.Distance(q, t.points[id]); d <= r {
					emit(id, d)
				}
			}
			return
		}
		visit(n.left)
		visit(n.right)
	}
	if t.root != nil {
		visit(t.root)
	}
}
