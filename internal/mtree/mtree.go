// Package mtree implements an M-tree (Ciaccia, Patella, Zezula 1997), the
// metric access method underlying the MRkNNCoP baseline (paper Section 2.1).
//
// Every routing entry stores a data object, a covering radius bounding the
// distance to any object in its subtree, and the distance to its parent
// routing object. Pruning needs only the triangle inequality, so the M-tree
// works for any metric. Leaf entries may carry a vector of augmented values
// whose element-wise subtree maximum is aggregated at every routing entry —
// MRkNNCoP stores the parameters of its kNN-distance bound lines there.
package mtree

import (
	"errors"
	"math"
	"sort"

	"repro/internal/index"
	"repro/internal/pqueue"
	"repro/internal/vecmath"
)

const (
	maxEntries = 32
	minEntries = 2 // generalized-hyperplane partitions can be skewed
)

type entry struct {
	id     int     // routing object (interior) or data object (leaf)
	dist   float64 // distance to the parent routing object
	radius float64 // covering radius; 0 for leaf entries
	child  *node   // nil for leaf entries
	agg    []float64
}

type node struct {
	leaf    bool
	entries []entry
}

// Tree is an M-tree over a point set. It implements index.Index and is safe
// for concurrent readers.
type Tree struct {
	points [][]float64
	values [][]float64 // per-point augmented vectors (nil if unused)
	metric vecmath.Metric
	dim    int
	root   *node
	// rootObj is the reference object distances at the root level are
	// measured against; the root has no parent, so dist fields there are
	// relative to rootObj for pruning symmetry (unused: kept at 0).
}

var _ index.Index = (*Tree)(nil)

// New builds an M-tree over points by repeated insertion. values, if
// non-nil, supplies per-point augmented vectors (all the same length) that
// are max-aggregated up the tree.
func New(points [][]float64, metric vecmath.Metric, values [][]float64) (*Tree, error) {
	if metric == nil {
		return nil, errors.New("mtree: nil metric")
	}
	if !metric.Metricity() {
		return nil, errors.New("mtree: metric must satisfy the triangle inequality")
	}
	if err := vecmath.ValidateAllFor(metric, points); err != nil {
		return nil, err
	}
	if values != nil {
		if len(values) != len(points) {
			return nil, errors.New("mtree: values length does not match points")
		}
		for i := 1; i < len(values); i++ {
			if len(values[i]) != len(values[0]) {
				return nil, errors.New("mtree: ragged values")
			}
		}
	}
	t := &Tree{points: points, values: values, metric: metric, dim: len(points[0]), root: &node{leaf: true}}
	for id := range points {
		t.insert(id)
	}
	return t, nil
}

// Len implements index.Index.
func (t *Tree) Len() int { return len(t.points) }

// Dim implements index.Index.
func (t *Tree) Dim() int { return t.dim }

// Point implements index.Index.
func (t *Tree) Point(id int) []float64 { return t.points[id] }

// Metric implements index.Index.
func (t *Tree) Metric() vecmath.Metric { return t.metric }

func (t *Tree) valueOf(id int) []float64 {
	if t.values == nil {
		return nil
	}
	return t.values[id]
}

func maxInto(dst, src []float64) []float64 {
	if src == nil {
		return dst
	}
	if dst == nil {
		return append([]float64(nil), src...)
	}
	for i := range dst {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
	return dst
}

func (t *Tree) insert(id int) {
	e := entry{id: id, agg: t.valueOf(id)}
	if split := t.insertAt(t.root, e, -1); split != nil {
		old := t.root
		t.root = &node{entries: []entry{t.routingEntry(old, -1), t.routingEntry(split, -1)}}
	}
}

// routingEntry builds the interior entry describing n: its routing object is
// the first entry's object (an arbitrary but stable choice), with an exact
// covering radius and refreshed aggregates. parentID (-1 for the root level)
// fixes the stored parent distance.
func (t *Tree) routingEntry(n *node, parentID int) entry {
	routing := n.entries[0].id
	e := entry{id: routing, child: n}
	for _, c := range n.entries {
		d := t.metric.Distance(t.points[routing], t.points[c.id])
		if r := d + c.radius; r > e.radius {
			e.radius = r
		}
		e.agg = maxInto(e.agg, c.agg)
	}
	if parentID >= 0 {
		e.dist = t.metric.Distance(t.points[parentID], t.points[routing])
	}
	return e
}

// insertAt descends to the best leaf; a non-nil return is a new sibling from
// a split that the caller registers. parentID is the routing object of n's
// parent entry (-1 at the root).
func (t *Tree) insertAt(n *node, e entry, parentID int) *node {
	if n.leaf {
		if parentID >= 0 {
			e.dist = t.metric.Distance(t.points[parentID], t.points[e.id])
		}
		n.entries = append(n.entries, e)
		if len(n.entries) > maxEntries {
			return t.split(n)
		}
		return nil
	}
	bi := t.chooseSubtree(n, e.id)
	routing := n.entries[bi].id
	if split := t.insertAt(n.entries[bi].child, e, routing); split != nil {
		n.entries[bi] = t.routingEntry(n.entries[bi].child, parentID)
		n.entries = append(n.entries, t.routingEntry(split, parentID))
		if len(n.entries) > maxEntries {
			return t.split(n)
		}
		return nil
	}
	n.entries[bi] = t.routingEntry(n.entries[bi].child, parentID)
	return nil
}

// chooseSubtree prefers a routing entry whose region already contains the
// object (smallest such distance); otherwise the one needing the least
// radius enlargement.
func (t *Tree) chooseSubtree(n *node, id int) int {
	p := t.points[id]
	bestIn, bestInDist := -1, math.Inf(1)
	bestOut, bestOutEnlarge := -1, math.Inf(1)
	for i := range n.entries {
		d := t.metric.Distance(p, t.points[n.entries[i].id])
		if d <= n.entries[i].radius {
			if d < bestInDist {
				bestIn, bestInDist = i, d
			}
		} else if enlarge := d - n.entries[i].radius; enlarge < bestOutEnlarge {
			bestOut, bestOutEnlarge = i, enlarge
		}
	}
	if bestIn >= 0 {
		return bestIn
	}
	return bestOut
}

// split partitions n's entries around the two objects that are farthest
// apart (the mM_RAD promotion evaluated exhaustively over the node) and
// returns the new sibling holding the second partition.
//
// The promoted objects become the routing objects of the two halves (via
// routingEntry's first-entry convention), so each half's stored parent
// distances are refreshed against its own promoted object.
func (t *Tree) split(n *node) *node {
	entries := n.entries
	// Promote the pair with maximum pairwise distance.
	p1, p2, worst := 0, 1, -1.0
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := t.metric.Distance(t.points[entries[i].id], t.points[entries[j].id])
			if d > worst {
				p1, p2, worst = i, j, d
			}
		}
	}
	o1, o2 := entries[p1].id, entries[p2].id
	var g1, g2 []entry
	for _, e := range entries {
		d1 := t.metric.Distance(t.points[e.id], t.points[o1])
		d2 := t.metric.Distance(t.points[e.id], t.points[o2])
		if d1 <= d2 {
			g1 = append(g1, e)
		} else {
			g2 = append(g2, e)
		}
	}
	// Guarantee the minimum fill by moving the boundary elements of the
	// larger group (rare with the farthest-pair promotion).
	for len(g1) < minEntries {
		g1, g2 = append(g1, g2[len(g2)-1]), g2[:len(g2)-1]
	}
	for len(g2) < minEntries {
		g2, g1 = append(g2, g1[len(g1)-1]), g1[:len(g1)-1]
	}
	// Make the promoted objects the first entries so routingEntry picks
	// them as routing objects.
	moveToFront(g1, o1)
	moveToFront(g2, o2)
	n.entries = g1
	t.refreshParentDistances(n, o1)
	sibling := &node{leaf: n.leaf, entries: g2}
	t.refreshParentDistances(sibling, o2)
	return sibling
}

func moveToFront(g []entry, id int) {
	for i := range g {
		if g[i].id == id {
			g[0], g[i] = g[i], g[0]
			return
		}
	}
}

// refreshParentDistances recomputes the stored parent distances after a
// split reassigned entries to a new routing object.
func (t *Tree) refreshParentDistances(n *node, parentID int) {
	if parentID < 0 {
		return
	}
	for i := range n.entries {
		n.entries[i].dist = t.metric.Distance(t.points[parentID], t.points[n.entries[i].id])
	}
}

// frontierEntry queues a subtree with its lower-bound distance and the
// already-computed distance from the query to the node's routing object,
// which enables the parent-distance pre-filter |d(q,p) − d(p,o)| ≤ d(q,o)
// from the original M-tree paper.
type frontierEntry struct {
	n         *node
	lb        float64
	dqRouting float64
	hasParent bool
}

// preFilter returns a lower bound on d(q, e.object) − e.radius using only
// stored distances, or 0 when no parent information is available.
func preFilter(f frontierEntry, e entry) float64 {
	if !f.hasParent {
		return 0
	}
	lb := math.Abs(f.dqRouting-e.dist) - e.radius
	if lb < 0 {
		return 0
	}
	return lb
}

// entryLowerBound is max(0, d(q, routing) − radius), the least distance any
// object under the entry can have from q.
func entryLowerBound(d, radius float64) float64 {
	if lb := d - radius; lb > 0 {
		return lb
	}
	return 0
}

// NewCursor implements index.Index with the two-heap incremental scheme.
func (t *Tree) NewCursor(q []float64, skipID int) index.Cursor {
	c := &cursor{t: t, q: q, skipID: skipID,
		nodes: pqueue.NewMin[frontierEntry](64), ready: pqueue.NewMin[int](64)}
	c.nodes.Push(0, frontierEntry{n: t.root})
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
		if hasReady && (!hasNode || readyTop.Priority <= nodeTop.Priority) {
			it, _ := c.ready.Pop()
			return index.Neighbor{ID: it.Value, Dist: it.Priority}, true
		}
		if !hasNode {
			return index.Neighbor{}, false
		}
		it, _ := c.nodes.Pop()
		for _, e := range it.Value.n.entries {
			d := c.t.metric.Distance(c.q, c.t.points[e.id])
			if e.child == nil {
				if e.id != c.skipID {
					c.ready.Push(d, e.id)
				}
				continue
			}
			lb := entryLowerBound(d, e.radius)
			c.nodes.Push(lb, frontierEntry{n: e.child, lb: lb})
		}
	}
}

// KNN implements index.Index with best-first search and bound pruning.
func (t *Tree) KNN(q []float64, k int, skipID int) []index.Neighbor {
	if k <= 0 || len(t.points) == 0 {
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
		f := it.Value
		for _, e := range f.n.entries {
			if bound, full := top.Bound(); full && preFilter(f, e) > bound {
				continue // pruned without a distance computation
			}
			d := t.metric.Distance(q, t.points[e.id])
			if e.child == nil {
				if e.id == skipID {
					continue
				}
				if bound, full := top.Bound(); !full || d < bound {
					top.Offer(d, e.id)
				}
				continue
			}
			lb := entryLowerBound(d, e.radius)
			if bound, full := top.Bound(); full && lb > bound {
				continue
			}
			nodes.Push(lb, frontierEntry{n: e.child, lb: lb, dqRouting: d, hasParent: true})
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

// CountCloser implements index.Index: the pruned descent of Range with a
// strict comparison and an exit at limit.
func (t *Tree) CountCloser(q []float64, r float64, limit, skipID int, dead map[int]bool) int {
	if limit <= 0 {
		return 0
	}
	return t.countCloser(frontierEntry{n: t.root}, q, r, limit, skipID, dead)
}

// countCloser returns min(limit, matches under f); limit is positive.
func (t *Tree) countCloser(f frontierEntry, q []float64, r float64, limit, skipID int, dead map[int]bool) int {
	count := 0
	for _, e := range f.n.entries {
		if preFilter(f, e) > r {
			continue
		}
		d := t.metric.Distance(q, t.points[e.id])
		if e.child == nil {
			if d < r && e.id != skipID && !dead[e.id] {
				count++
			}
		} else if entryLowerBound(d, e.radius) <= r {
			count += t.countCloser(frontierEntry{n: e.child, dqRouting: d, hasParent: true}, q, r, limit-count, skipID, dead)
		}
		if count >= limit {
			break
		}
	}
	return count
}

func (t *Tree) forEachInRange(q []float64, r float64, skipID int, emit func(id int, d float64)) {
	var visit func(f frontierEntry)
	visit = func(f frontierEntry) {
		for _, e := range f.n.entries {
			if preFilter(f, e) > r {
				continue // pruned without a distance computation
			}
			d := t.metric.Distance(q, t.points[e.id])
			if e.child == nil {
				if e.id != skipID && d <= r {
					emit(e.id, d)
				}
				continue
			}
			if entryLowerBound(d, e.radius) <= r {
				visit(frontierEntry{n: e.child, dqRouting: d, hasParent: true})
			}
		}
	}
	visit(frontierEntry{n: t.root})
}

// NodeView is a read-only handle for baseline algorithms that run their own
// pruned traversals (MRkNNCoP).
type NodeView struct {
	t *Tree
	n *node
}

// Root returns a view of the root node.
func (t *Tree) Root() NodeView { return NodeView{t: t, n: t.root} }

// IsLeaf reports whether the node's entries are data objects.
func (v NodeView) IsLeaf() bool { return v.n.leaf }

// NumEntries returns the number of entries in the node.
func (v NodeView) NumEntries() int { return len(v.n.entries) }

// EntryID returns the routing (interior) or data (leaf) object ID of entry i.
func (v NodeView) EntryID(i int) int { return v.n.entries[i].id }

// EntryRadius returns the covering radius of entry i (0 at leaves).
func (v NodeView) EntryRadius(i int) float64 { return v.n.entries[i].radius }

// EntryAggregate returns the element-wise max of augmented vectors in the
// subtree of entry i (or the point's own vector at leaves). The returned
// slice is owned by the tree and must not be modified.
func (v NodeView) EntryAggregate(i int) []float64 { return v.n.entries[i].agg }

// EntryChild returns a view of interior entry i's subtree; it panics on
// leaves.
func (v NodeView) EntryChild(i int) NodeView {
	if v.n.leaf {
		panic("mtree: EntryChild on leaf node")
	}
	return NodeView{t: v.t, n: v.n.entries[i].child}
}

// CheckInvariants verifies covering radii, parent distances, aggregates and
// point completeness. Tests call it after builds.
func (t *Tree) CheckInvariants() error {
	seen := make(map[int]bool, len(t.points))
	// check verifies the subtree under routing object parentID and
	// returns all contained ids and the element-wise max aggregate.
	var check func(n *node, parentID int) ([]int, []float64, error)
	check = func(n *node, parentID int) ([]int, []float64, error) {
		if len(n.entries) == 0 {
			return nil, nil, errors.New("mtree: empty node")
		}
		var ids []int
		var agg []float64
		for _, e := range n.entries {
			if parentID >= 0 {
				want := t.metric.Distance(t.points[parentID], t.points[e.id])
				if math.Abs(want-e.dist) > 1e-9 {
					return nil, nil, errors.New("mtree: stale parent distance")
				}
			}
			if e.child == nil {
				if seen[e.id] {
					return nil, nil, errors.New("mtree: point appears twice")
				}
				seen[e.id] = true
				ids = append(ids, e.id)
				agg = maxInto(agg, e.agg)
				continue
			}
			sub, subAgg, err := check(e.child, e.id)
			if err != nil {
				return nil, nil, err
			}
			for _, id := range sub {
				if d := t.metric.Distance(t.points[e.id], t.points[id]); d > e.radius+1e-9 {
					return nil, nil, errors.New("mtree: covering radius violated")
				}
			}
			if t.values != nil {
				for j := range subAgg {
					if subAgg[j] > e.agg[j]+1e-12 {
						return nil, nil, errors.New("mtree: stale aggregate")
					}
				}
			}
			ids = append(ids, sub...)
			agg = maxInto(agg, subAgg)
		}
		return ids, agg, nil
	}
	if _, _, err := check(t.root, -1); err != nil {
		return err
	}
	if len(seen) != len(t.points) {
		return errors.New("mtree: tree does not contain every point")
	}
	return nil
}
