// Package vptree implements a vantage-point tree (Yianilos 1993) with
// incremental nearest-neighbor traversal, batch kNN and range queries.
//
// Like the cover tree, the VP-tree needs only the metric axioms, making it a
// second general-metric back-end for RDT's forward search. Each interior
// node holds a vantage point and a median radius mu; the inner subtree holds
// points with d(vantage, ·) <= mu and the outer subtree the rest, so the
// triangle inequality yields the shell bounds |d(q,v) − mu| used for
// pruning.
package vptree

import (
	"errors"
	"math/rand"
	"sort"

	"repro/internal/index"
	"repro/internal/pqueue"
	"repro/internal/vecmath"
)

// leafSize is the bucket capacity below which splitting stops.
const leafSize = 12

type node struct {
	vantage int     // point ID of the vantage point (also a data point)
	mu      float64 // median distance separating inner from outer
	inner   *node
	outer   *node
	ids     []int // leaf bucket (nil for interior nodes)
}

func (n *node) isLeaf() bool { return n.ids != nil }

// Tree is an immutable vantage-point tree. It implements index.Index and is
// safe for concurrent readers.
type Tree struct {
	points [][]float64
	metric vecmath.Metric
	dim    int
	root   *node
}

var _ index.Index = (*Tree)(nil)

// New builds a VP-tree over points using a deterministic internal RNG for
// vantage selection. The metric must satisfy the triangle inequality.
func New(points [][]float64, metric vecmath.Metric) (*Tree, error) {
	if metric == nil {
		return nil, errors.New("vptree: nil metric")
	}
	if !metric.Metricity() {
		return nil, errors.New("vptree: metric must satisfy the triangle inequality")
	}
	if err := vecmath.ValidateAllFor(metric, points); err != nil {
		return nil, err
	}
	t := &Tree{points: points, metric: metric, dim: len(points[0])}
	ids := make([]int, len(points))
	for i := range ids {
		ids[i] = i
	}
	rng := rand.New(rand.NewSource(0x5eed))
	t.root = t.build(ids, rng)
	return t, nil
}

// Builder constructs VP-trees; it implements index.Builder.
type Builder struct{}

// Build implements index.Builder.
func (Builder) Build(points [][]float64, metric vecmath.Metric) (index.Index, error) {
	return New(points, metric)
}

// Name implements index.Builder.
func (Builder) Name() string { return "vptree" }

func (t *Tree) build(ids []int, rng *rand.Rand) *node {
	if len(ids) == 0 {
		return nil
	}
	if len(ids) <= leafSize {
		return &node{vantage: -1, ids: ids}
	}
	// Swap a random vantage to the front, then partition the rest around
	// the median distance to it.
	vi := rng.Intn(len(ids))
	ids[0], ids[vi] = ids[vi], ids[0]
	vantage := ids[0]
	rest := ids[1:]
	dists := make([]float64, len(rest))
	for i, id := range rest {
		dists[i] = t.metric.Distance(t.points[vantage], t.points[id])
	}
	order := make([]int, len(rest))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return dists[order[a]] < dists[order[b]] })
	mid := len(order) / 2
	mu := dists[order[mid]]
	var innerIDs, outerIDs []int
	for _, oi := range order {
		if dists[oi] <= mu {
			innerIDs = append(innerIDs, rest[oi])
		} else {
			outerIDs = append(outerIDs, rest[oi])
		}
	}
	if len(outerIDs) == 0 {
		// Everything ties at or below mu (duplicate-heavy data): avoid
		// an empty outer child by keeping a flat bucket.
		return &node{vantage: -1, ids: ids}
	}
	return &node{
		vantage: vantage,
		mu:      mu,
		inner:   t.build(innerIDs, rng),
		outer:   t.build(outerIDs, rng),
	}
}

// Len implements index.Index.
func (t *Tree) Len() int { return len(t.points) }

// Dim implements index.Index.
func (t *Tree) Dim() int { return t.dim }

// Point implements index.Index.
func (t *Tree) Point(id int) []float64 { return t.points[id] }

// Metric implements index.Index.
func (t *Tree) Metric() vecmath.Metric { return t.metric }

// frontierEntry carries the accumulated lower bound for a pending subtree.
type frontierEntry struct {
	n  *node
	lb float64
}

// childBounds returns the lower bounds valid for the inner and outer
// children of an interior node, given d = d(q, vantage) and the node's
// inherited bound.
func childBounds(inherited, d, mu float64) (inner, outer float64) {
	inner, outer = inherited, inherited
	if excess := d - mu; excess > inner {
		inner = excess // q is outside the inner ball by at least this
	}
	if gap := mu - d; gap > outer {
		outer = gap // q is inside the ball, mu − d below the shell
	}
	return inner, outer
}

// NewCursor implements index.Index using the two-heap scheme shared with the
// other tree back-ends.
func (t *Tree) NewCursor(q []float64, skipID int) index.Cursor {
	c := &cursor{t: t, q: q, skipID: skipID,
		nodes: pqueue.NewMin[frontierEntry](64), ready: pqueue.NewNearest(64)}
	if t.root != nil {
		c.nodes.Push(0, frontierEntry{n: t.root})
	}
	return c
}

type cursor struct {
	t      *Tree
	q      []float64
	skipID int
	nodes  *pqueue.Min[frontierEntry]
	ready  *pqueue.Min[int]
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
		e := it.Value
		if e.n.isLeaf() {
			for _, id := range e.n.ids {
				if id == c.skipID {
					continue
				}
				c.ready.Push(c.t.metric.Distance(c.q, c.t.points[id]), id)
			}
			continue
		}
		d := c.t.metric.Distance(c.q, c.t.points[e.n.vantage])
		if e.n.vantage != c.skipID {
			c.ready.Push(d, e.n.vantage)
		}
		innerLB, outerLB := childBounds(e.lb, d, e.n.mu)
		if e.n.inner != nil {
			c.nodes.Push(innerLB, frontierEntry{n: e.n.inner, lb: innerLB})
		}
		if e.n.outer != nil {
			c.nodes.Push(outerLB, frontierEntry{n: e.n.outer, lb: outerLB})
		}
	}
}

// KNN implements index.Index with best-first descent and bound pruning.
func (t *Tree) KNN(q []float64, k int, skipID int) []index.Neighbor {
	if k <= 0 || t.root == nil {
		return nil
	}
	top := pqueue.NewTopK[int](k)
	nodes := pqueue.NewMin[frontierEntry](64)
	nodes.Push(0, frontierEntry{n: t.root})
	for {
		it, ok := nodes.Pop()
		if !ok {
			break
		}
		if bound, full := top.Bound(); full && it.Priority > bound {
			break
		}
		e := it.Value
		if e.n.isLeaf() {
			for _, id := range e.n.ids {
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
		d := t.metric.Distance(q, t.points[e.n.vantage])
		if e.n.vantage != skipID {
			if bound, full := top.Bound(); !full || d < bound {
				top.Offer(d, e.n.vantage)
			}
		}
		innerLB, outerLB := childBounds(e.lb, d, e.n.mu)
		bound, full := top.Bound()
		if e.n.inner != nil && (!full || innerLB <= bound) {
			nodes.Push(innerLB, frontierEntry{n: e.n.inner, lb: innerLB})
		}
		if e.n.outer != nil && (!full || outerLB <= bound) {
			nodes.Push(outerLB, frontierEntry{n: e.n.outer, lb: outerLB})
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

// CountCloser implements index.Index: a depth-first walk that enters a shell
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
	count := 0
	if n.isLeaf() {
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
	d := t.metric.Distance(q, t.points[n.vantage])
	if d < r && n.vantage != skipID && !dead[n.vantage] {
		count++
	}
	if count < limit && n.inner != nil && d-n.mu <= r {
		count += t.countCloser(n.inner, q, r, limit-count, skipID, dead)
	}
	if count < limit && n.outer != nil && n.mu-d <= r {
		count += t.countCloser(n.outer, q, r, limit-count, skipID, dead)
	}
	return count
}

func (t *Tree) forEachInRange(q []float64, r float64, skipID int, emit func(id int, d float64)) {
	var visit func(n *node)
	visit = func(n *node) {
		if n == nil {
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
		d := t.metric.Distance(q, t.points[n.vantage])
		if d <= r && n.vantage != skipID {
			emit(n.vantage, d)
		}
		if d-n.mu <= r { // inner shell reachable
			visit(n.inner)
		}
		if n.mu-d <= r { // outer shell reachable
			visit(n.outer)
		}
	}
	visit(t.root)
}
