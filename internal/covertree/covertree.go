// Package covertree implements a simplified cover tree (Beygelzimer, Kakade,
// Langford 2006; simplified single-node-per-point variant following Izbicki
// and Shelton 2015) over an arbitrary metric, with incremental
// nearest-neighbor traversal, batch kNN, range queries, and dynamic insert
// and delete.
//
// The paper under reproduction uses the cover tree as the incremental
// forward-kNN back-end for its low- and medium-dimensional datasets
// (Section 7.1), precisely because the structure needs only metric
// properties — no coordinate-wise bounding geometry — and supports the
// expanding ring search RDT is built on.
//
// # Invariants
//
// Every node n at integer level ℓ(n) satisfies
//
//  1. covering: every child c has d(n, c) ≤ covdist(n) = 2^ℓ(n), and
//     ℓ(c) < ℓ(n);
//  2. bounding: MaxDist(n) is an upper bound on d(n, x) for every
//     descendant point x of n.
//
// Query correctness relies only on these two; the classic separation
// invariant is a performance property maintained heuristically by the
// insertion order (each point descends to its nearest covering child).
package covertree

import (
	"errors"
	"math"
	"sort"

	"repro/internal/index"
	"repro/internal/pqueue"
	"repro/internal/vecmath"
)

type node struct {
	id       int
	level    int
	maxDist  float64
	children []*node
}

func (n *node) covdist() float64 { return math.Exp2(float64(n.level)) }

// Tree is a cover tree. It implements index.Index and index.Dynamic.
// Readers may run concurrently; mutation requires external synchronization.
type Tree struct {
	points  [][]float64
	metric  vecmath.Metric
	dist    vecmath.DistanceFunc      // resolved kernel; falls back to metric.Distance
	batch   vecmath.BatchDistanceFunc // resolved one-vs-many kernel
	dim     int
	root    *node
	deleted map[int]bool
	alive   int
}

var _ index.Cloner = (*Tree)(nil)

// New builds a cover tree over points by repeated insertion. The points
// slice is retained by reference. The metric must satisfy the triangle
// inequality.
func New(points [][]float64, metric vecmath.Metric) (*Tree, error) {
	if metric == nil {
		return nil, errors.New("covertree: nil metric")
	}
	if !metric.Metricity() {
		return nil, errors.New("covertree: metric must satisfy the triangle inequality")
	}
	if err := vecmath.ValidateAllFor(metric, points); err != nil {
		return nil, err
	}
	t := &Tree{
		points:  points,
		metric:  metric,
		dim:     len(points[0]),
		deleted: make(map[int]bool),
	}
	t.resolveKernels()
	for id := range points {
		t.insertID(id)
	}
	t.alive = len(points)
	return t, nil
}

// resolveKernels binds the metric's direct kernels once, so no query or
// insertion pays an interface call per node.
func (t *Tree) resolveKernels() {
	t.dist = vecmath.KernelFor(t.metric)
	if t.dist == nil {
		t.dist = t.metric.Distance
	}
	t.batch = vecmath.BatchFor(t.metric)
}

// Builder constructs cover trees; it implements index.Builder.
type Builder struct{}

// Build implements index.Builder.
func (Builder) Build(points [][]float64, metric vecmath.Metric) (index.Index, error) {
	return New(points, metric)
}

// Name implements index.Builder.
func (Builder) Name() string { return "covertree" }

// Len implements index.Index; deleted points are excluded.
func (t *Tree) Len() int { return t.alive }

// Dim implements index.Index.
func (t *Tree) Dim() int { return t.dim }

// Point implements index.Index.
func (t *Tree) Point(id int) []float64 { return t.points[id] }

// Metric implements index.Index.
func (t *Tree) Metric() vecmath.Metric { return t.metric }

// Insert implements index.Dynamic.
func (t *Tree) Insert(p []float64) (int, error) {
	if err := vecmath.ValidateFor(t.metric, p); err != nil {
		return 0, err
	}
	if len(p) != t.dim {
		return 0, vecmath.CheckDims(p, t.points[0])
	}
	t.points = append(t.points, p)
	id := len(t.points) - 1
	t.insertID(id)
	t.alive++
	return id, nil
}

// Clone implements index.Cloner with a deep copy of the node structure:
// insertion mutates maxDist, children, and possibly the root level anywhere
// along its descent path, so nodes cannot be shared between a frozen
// snapshot and its mutable successor. Point coordinate slices are immutable
// and stay shared; the walk is O(n).
func (t *Tree) Clone() index.Dynamic {
	points := make([][]float64, len(t.points), len(t.points)+1)
	copy(points, t.points)
	deleted := make(map[int]bool, len(t.deleted))
	for id := range t.deleted {
		deleted[id] = true
	}
	return &Tree{
		points:  points,
		metric:  t.metric,
		dist:    t.dist,
		batch:   t.batch,
		dim:     t.dim,
		root:    cloneNode(t.root),
		deleted: deleted,
		alive:   t.alive,
	}
}

func cloneNode(n *node) *node {
	if n == nil {
		return nil
	}
	c := &node{id: n.id, level: n.level, maxDist: n.maxDist}
	if len(n.children) > 0 {
		c.children = make([]*node, len(n.children))
		for i, child := range n.children {
			c.children[i] = cloneNode(child)
		}
	}
	return c
}

// Delete implements index.Dynamic with a tombstone: the point keeps serving
// as a routing object (the covering invariant must not be disturbed) but is
// filtered from all query results.
func (t *Tree) Delete(id int) bool {
	if id < 0 || id >= len(t.points) || t.deleted[id] {
		return false
	}
	t.deleted[id] = true
	t.alive--
	return true
}

// IDSpan implements index.Liveness.
func (t *Tree) IDSpan() int { return len(t.points) }

// Live implements index.Liveness.
func (t *Tree) Live(id int) bool { return id >= 0 && id < len(t.points) && !t.deleted[id] }

// insertID threads the point with the given id into the tree.
func (t *Tree) insertID(id int) {
	p := t.points[id]
	if t.root == nil {
		t.root = &node{id: id, level: 0}
		return
	}
	d := t.dist(p, t.points[t.root.id])
	if d > t.root.covdist() {
		// Lazy root raise: lift the root's level until its cover
		// radius reaches the new point. Children remain covered (the
		// radius only grew) and keep strictly smaller levels.
		t.root.level = levelFor(d)
	}
	cur := t.root
	for {
		dCur := t.dist(p, t.points[cur.id])
		if dCur > cur.maxDist {
			cur.maxDist = dCur
		}
		// Descend into the nearest child whose cover radius reaches p.
		var best *node
		bestDist := math.Inf(1)
		for _, c := range cur.children {
			dc := t.dist(p, t.points[c.id])
			if dc <= c.covdist() && dc < bestDist {
				best, bestDist = c, dc
			}
		}
		if best == nil {
			cur.children = append(cur.children, &node{id: id, level: cur.level - 1})
			return
		}
		cur = best
	}
}

// levelFor returns the smallest integer ℓ with 2^ℓ >= d.
func levelFor(d float64) int {
	if d <= 0 {
		return math.MinInt32 / 2 // duplicates: any level covers
	}
	l := int(math.Ceil(math.Log2(d)))
	return l
}

// queueEntry is a tree node queued for expansion, with its exact distance to
// the query (used both to emit the node's own point and to bound children).
type queueEntry struct {
	n    *node
	dist float64 // d(q, n.point)
}

// lowerBound returns the least possible distance from the query to any point
// in the entry's subtree.
func (e queueEntry) lowerBound() float64 {
	lb := e.dist - e.n.maxDist
	if lb < 0 {
		return 0
	}
	return lb
}

// cursor implements index.Cursor by interleaving two heaps: pending subtrees
// keyed by their lower bound, and already-resolved points keyed by exact
// distance. A point is emitted only once no pending subtree could contain
// anything as close, which yields the stream in ascending (distance, ID)
// order — the order that lets streams over disjoint shards merge into exactly
// the stream over their union.
type cursor struct {
	t      *Tree
	q      []float64
	skipID int
	nodes  *pqueue.Min[queueEntry]
	ready  *pqueue.Min[int]

	// One-vs-many kernel scratch for expanding a node's children,
	// expandChunk at a time. It lives in the cursor so that expansion
	// allocates nothing.
	rows  [expandChunk][]float64
	dists [expandChunk]float64
}

// expandChunk is how many children the cursor measures in one kernel call.
const expandChunk = 16

// NewCursor implements index.Index.
func (t *Tree) NewCursor(q []float64, skipID int) index.Cursor {
	c := &cursor{
		t:      t,
		q:      q,
		skipID: skipID,
		nodes:  pqueue.NewMin[queueEntry](64),
		ready:  pqueue.NewNearest(64),
	}
	if t.root != nil {
		d := t.dist(q, t.points[t.root.id])
		c.nodes.Push(entryPriority(t.root, d), queueEntry{n: t.root, dist: d})
	}
	return c
}

func entryPriority(n *node, dist float64) float64 {
	lb := dist - n.maxDist
	if lb < 0 {
		return 0
	}
	return lb
}

func (c *cursor) Next() (index.Neighbor, bool) {
	for {
		readyTop, hasReady := c.ready.Peek()
		nodeTop, hasNode := c.nodes.Peek()
		// Strictly below every pending subtree's bound: a subtree that
		// could still hold a point at this very distance is opened first,
		// so ties leave the ready heap in ascending ID order.
		if hasReady && (!hasNode || readyTop.Priority < nodeTop.Priority) {
			it, _ := c.ready.Pop()
			return index.Neighbor{ID: it.Value, Dist: it.Priority}, true
		}
		if !hasNode {
			return index.Neighbor{}, false
		}
		it, _ := c.nodes.Pop()
		e := it.Value
		if e.n.id != c.skipID && !c.t.deleted[e.n.id] {
			c.ready.Push(e.dist, e.n.id)
		}
		for children := e.n.children; len(children) > 0; {
			chunk := children[:min(expandChunk, len(children))]
			children = children[len(chunk):]
			for i, child := range chunk {
				c.rows[i] = c.t.points[child.id]
			}
			c.t.batch(c.q, c.rows[:len(chunk)], c.dists[:])
			for i, child := range chunk {
				c.nodes.Push(entryPriority(child, c.dists[i]), queueEntry{n: child, dist: c.dists[i]})
			}
		}
	}
}

// KNN implements index.Index with best-first search and bound pruning.
func (t *Tree) KNN(q []float64, k int, skipID int) []index.Neighbor {
	if k <= 0 || t.root == nil {
		return nil
	}
	top := pqueue.NewTopK[int](k)
	nodes := pqueue.NewMin[queueEntry](64)
	d := t.dist(q, t.points[t.root.id])
	nodes.Push(entryPriority(t.root, d), queueEntry{n: t.root, dist: d})
	for {
		it, ok := nodes.Pop()
		if !ok {
			break
		}
		if bound, full := top.Bound(); full && it.Priority > bound {
			break // nothing left can improve the result
		}
		e := it.Value
		if e.n.id != skipID && !t.deleted[e.n.id] {
			top.Offer(e.dist, e.n.id)
		}
		bound, full := top.Bound()
		for _, child := range e.n.children {
			dc := t.dist(q, t.points[child.id])
			lb := entryPriority(child, dc)
			if full && lb > bound {
				continue
			}
			nodes.Push(lb, queueEntry{n: child, dist: dc})
		}
	}
	items := top.Sorted()
	out := make([]index.Neighbor, len(items))
	for i, it := range items {
		out[i] = index.Neighbor{ID: it.Value, Dist: it.Priority}
	}
	return out
}

// Range implements index.Index by pruning subtrees whose lower bound exceeds
// the radius.
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

// CountCloser implements index.Index with a depth-first walk over the same
// d − maxDist lower bounds KNN and Range prune by: a subtree is entered
// unless its bound exceeds r, and the walk returns the moment limit points
// are found. It keeps no frontier heap and allocates nothing.
func (t *Tree) CountCloser(q []float64, r float64, limit, skipID int, dead map[int]bool) int {
	if limit <= 0 || t.root == nil {
		return 0
	}
	c := closerCount{t: t, q: q, r: r, limit: limit, skipID: skipID, dead: dead}
	c.visit(t.root, t.dist(q, t.points[t.root.id]))
	return c.n
}

// closerCount is the state of one CountCloser walk.
type closerCount struct {
	t      *Tree
	q      []float64
	r      float64
	limit  int
	skipID int
	dead   map[int]bool
	n      int
}

// visit counts n's own point (d is its distance from q) and descends into
// the children that can still hold a point closer than r.
func (c *closerCount) visit(n *node, d float64) {
	if d < c.r && n.id != c.skipID && !c.t.deleted[n.id] && !c.dead[n.id] {
		c.n++
	}
	for _, child := range n.children {
		if c.n >= c.limit {
			return
		}
		dc := c.t.dist(c.q, c.t.points[child.id])
		if dc-child.maxDist > c.r {
			continue
		}
		c.visit(child, dc)
	}
}

func (t *Tree) forEachInRange(q []float64, r float64, skipID int, emit func(id int, d float64)) {
	if t.root == nil {
		return
	}
	var visit func(n *node, d float64)
	visit = func(n *node, d float64) {
		if d-n.maxDist > r {
			return
		}
		if d <= r && n.id != skipID && !t.deleted[n.id] {
			emit(n.id, d)
		}
		for _, c := range n.children {
			visit(c, t.dist(q, t.points[c.id]))
		}
	}
	visit(t.root, t.dist(q, t.points[t.root.id]))
}

// CheckInvariants walks the tree verifying the covering and bounding
// invariants; tests call it after builds and mutations. It returns nil on a
// healthy tree.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		if len(t.points) > 0 {
			return errors.New("covertree: non-empty tree with nil root")
		}
		return nil
	}
	seen := make(map[int]bool, len(t.points))
	// check returns the IDs of all points in n's subtree, verifying the
	// covering and level invariants on the way down and the exact maxDist
	// bound against every descendant on the way up.
	var check func(n *node) ([]int, error)
	check = func(n *node) ([]int, error) {
		if seen[n.id] {
			return nil, errors.New("covertree: point appears twice")
		}
		seen[n.id] = true
		ids := []int{n.id}
		for _, c := range n.children {
			if c.level >= n.level {
				return nil, errors.New("covertree: child level not below parent level")
			}
			d := t.metric.Distance(t.points[n.id], t.points[c.id])
			if d > n.covdist()*(1+1e-9) {
				return nil, errors.New("covertree: covering invariant violated")
			}
			sub, err := check(c)
			if err != nil {
				return nil, err
			}
			ids = append(ids, sub...)
		}
		for _, id := range ids {
			if d := t.metric.Distance(t.points[n.id], t.points[id]); d > n.maxDist+1e-9 {
				return nil, errors.New("covertree: maxDist bound violated")
			}
		}
		return ids, nil
	}
	if _, err := check(t.root); err != nil {
		return err
	}
	if len(seen) != len(t.points) {
		return errors.New("covertree: tree does not contain every point")
	}
	return nil
}
