// Package mtree implements an M-tree (Ciaccia, Patella, Zezula 1997), the
// metric access method underlying the MRkNNCoP baseline (paper Section 2.1).
//
// Every routing entry stores a data object and a covering radius bounding
// the distance to any object in its subtree. Pruning needs only the triangle
// inequality, so the M-tree works for any metric. Leaf entries may carry a
// vector of augmented values whose element-wise subtree maximum is
// aggregated at every routing entry — MRkNNCoP stores the parameters of its
// kNN-distance bound lines there.
//
// The original M-tree also keeps each entry's distance to its parent routing
// object, read only by its own similarity search to skip distance
// computations. MRkNNCoP walks the tree with its own pruning, so that
// distance is not stored.
package mtree

import (
	"errors"
	"math"

	"repro/internal/vecmath"
)

const (
	maxEntries = 32
	minEntries = 2 // generalized-hyperplane partitions can be skewed
)

type entry struct {
	id     int     // routing object (interior) or data object (leaf)
	radius float64 // covering radius; 0 for leaf entries
	child  *node   // nil for leaf entries
	agg    []float64
}

type node struct {
	leaf    bool
	entries []entry
}

// Tree is an M-tree over a point set, safe for concurrent readers. It is not
// a forward index: MRkNNCoP, its one reader, walks it through NodeView with
// its own pruning and asks its forward kNN queries of a separate index.
type Tree struct {
	points [][]float64
	values [][]float64 // per-point augmented vectors (nil if unused)
	metric vecmath.Metric
	root   *node
}

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
	t := &Tree{points: points, values: values, metric: metric, root: &node{leaf: true}}
	for id := range points {
		t.insert(id)
	}
	return t, nil
}

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
	if split := t.insertAt(t.root, e); split != nil {
		old := t.root
		t.root = &node{entries: []entry{t.routingEntry(old), t.routingEntry(split)}}
	}
}

// routingEntry builds the interior entry describing n: its routing object is
// the first entry's object (an arbitrary but stable choice), with an exact
// covering radius and refreshed aggregates.
func (t *Tree) routingEntry(n *node) entry {
	routing := n.entries[0].id
	e := entry{id: routing, child: n}
	for _, c := range n.entries {
		d := t.metric.Distance(t.points[routing], t.points[c.id])
		if r := d + c.radius; r > e.radius {
			e.radius = r
		}
		e.agg = maxInto(e.agg, c.agg)
	}
	return e
}

// insertAt descends to the best leaf; a non-nil return is a new sibling from
// a split that the caller registers.
func (t *Tree) insertAt(n *node, e entry) *node {
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > maxEntries {
			return t.split(n)
		}
		return nil
	}
	bi := t.chooseSubtree(n, e.id)
	if split := t.insertAt(n.entries[bi].child, e); split != nil {
		n.entries[bi] = t.routingEntry(n.entries[bi].child)
		n.entries = append(n.entries, t.routingEntry(split))
		if len(n.entries) > maxEntries {
			return t.split(n)
		}
		return nil
	}
	n.entries[bi] = t.routingEntry(n.entries[bi].child)
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
// The promoted objects become the routing objects of the two halves (via
// routingEntry's first-entry convention).
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
	return &node{leaf: n.leaf, entries: g2}
}

func moveToFront(g []entry, id int) {
	for i := range g {
		if g[i].id == id {
			g[0], g[i] = g[i], g[0]
			return
		}
	}
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

// CheckInvariants verifies covering radii, aggregates and point
// completeness. Tests call it after builds.
func (t *Tree) CheckInvariants() error {
	seen := make(map[int]bool, len(t.points))
	// check verifies the subtree under n and returns all contained ids and
	// the element-wise max aggregate.
	var check func(n *node) ([]int, []float64, error)
	check = func(n *node) ([]int, []float64, error) {
		if len(n.entries) == 0 {
			return nil, nil, errors.New("mtree: empty node")
		}
		var ids []int
		var agg []float64
		for _, e := range n.entries {
			if e.child == nil {
				if seen[e.id] {
					return nil, nil, errors.New("mtree: point appears twice")
				}
				seen[e.id] = true
				ids = append(ids, e.id)
				agg = maxInto(agg, e.agg)
				continue
			}
			sub, subAgg, err := check(e.child)
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
	if _, _, err := check(t.root); err != nil {
		return err
	}
	if len(seen) != len(t.points) {
		return errors.New("mtree: tree does not contain every point")
	}
	return nil
}
