package rtree

import (
	"sort"

	"repro/internal/index"
	"repro/internal/pqueue"
)

// frontierItem is either a pending subtree (child != nil) queued by MINDIST
// or a resolved point queued by exact distance.
type frontierItem struct {
	child *node
	id    int
	dist  float64
}

// NewCursor implements index.Index with the classic best-first incremental
// nearest-neighbor traversal (Hjaltason & Samet).
func (t *Tree) NewCursor(q []float64, skipID int) index.Cursor {
	c := &cursor{t: t, q: q, skipID: skipID, pq: pqueue.NewMin[frontierItem](64)}
	c.pq.Push(0, frontierItem{child: t.root})
	return c
}

type cursor struct {
	t      *Tree
	q      []float64
	skipID int
	pq     *pqueue.Min[frontierItem]
}

// Close implements index.Cursor; the cursor owns nothing that outlives it.
func (c *cursor) Close() {}

func (c *cursor) Next() (index.Neighbor, bool) {
	for {
		it, ok := c.pq.Pop()
		if !ok {
			return index.Neighbor{}, false
		}
		f := it.Value
		if f.child == nil {
			return index.Neighbor{ID: f.id, Dist: f.dist}, true
		}
		for _, e := range f.child.entries {
			if f.child.leaf {
				if e.id == c.skipID {
					continue
				}
				d := c.t.metric.Distance(c.q, c.t.points[e.id])
				c.pq.Push(d, frontierItem{id: e.id, dist: d})
			} else {
				lb := c.t.boxer.BoxDistance(c.q, e.lo, e.hi)
				c.pq.Push(lb, frontierItem{child: e.child})
			}
		}
	}
}

// KNN implements index.Index with best-first search and MINDIST pruning.
func (t *Tree) KNN(q []float64, k int, skipID int) []index.Neighbor {
	if k <= 0 || len(t.points) == 0 {
		return nil
	}
	top := pqueue.NewTopK[int](k)
	pq := pqueue.NewMin[*node](64)
	pq.Push(0, t.root)
	for {
		it, ok := pq.Pop()
		if !ok {
			break
		}
		if bound, full := top.Bound(); full && it.Priority > bound {
			break
		}
		n := it.Value
		for _, e := range n.entries {
			if n.leaf {
				if e.id == skipID {
					continue
				}
				d := t.metric.Distance(q, t.points[e.id])
				if bound, full := top.Bound(); !full || d < bound {
					top.Offer(d, e.id)
				}
				continue
			}
			lb := t.boxer.BoxDistance(q, e.lo, e.hi)
			if bound, full := top.Bound(); full && lb > bound {
				continue
			}
			pq.Push(lb, e.child)
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
	return t.countCloser(t.root, q, r, limit, skipID, dead)
}

// countCloser returns min(limit, matches under n); limit is positive.
func (t *Tree) countCloser(n *node, q []float64, r float64, limit, skipID int, dead map[int]bool) int {
	count := 0
	for _, e := range n.entries {
		if n.leaf {
			if e.id != skipID && !dead[e.id] && t.metric.Distance(q, t.points[e.id]) < r {
				count++
			}
		} else if t.boxer.BoxDistance(q, e.lo, e.hi) <= r {
			count += t.countCloser(e.child, q, r, limit-count, skipID, dead)
		}
		if count >= limit {
			break
		}
	}
	return count
}

func (t *Tree) forEachInRange(q []float64, r float64, skipID int, emit func(id int, d float64)) {
	var visit func(n *node)
	visit = func(n *node) {
		for _, e := range n.entries {
			if n.leaf {
				if e.id == skipID {
					continue
				}
				if d := t.metric.Distance(q, t.points[e.id]); d <= r {
					emit(e.id, d)
				}
				continue
			}
			if t.boxer.BoxDistance(q, e.lo, e.hi) <= r {
				visit(e.child)
			}
		}
	}
	visit(t.root)
}

// NodeView is a read-only handle on an interior or leaf entry of the tree,
// used by the RdNN-Tree and TPL baselines to run their own pruned
// traversals.
type NodeView struct {
	t *Tree
	n *node
}

// Root returns a view of the root node.
func (t *Tree) Root() NodeView { return NodeView{t: t, n: t.root} }

// IsLeaf reports whether the node's entries are points.
func (v NodeView) IsLeaf() bool { return v.n.leaf }

// NumEntries returns the number of entries in the node.
func (v NodeView) NumEntries() int { return len(v.n.entries) }

// EntryMBR returns the bounding box of entry i. The returned slices are
// owned by the tree and must not be modified.
func (v NodeView) EntryMBR(i int) (lo, hi []float64) {
	return v.n.entries[i].lo, v.n.entries[i].hi
}

// EntryValue returns the augmented value of entry i: the point's value in a
// leaf, or the subtree maximum in an interior node.
func (v NodeView) EntryValue(i int) float64 { return v.n.entries[i].value }

// EntryID returns the point ID of leaf entry i; it panics on interior nodes.
func (v NodeView) EntryID(i int) int {
	if !v.n.leaf {
		panic("rtree: EntryID on interior node")
	}
	return v.n.entries[i].id
}

// EntryChild returns a view of interior entry i's subtree; it panics on
// leaves.
func (v NodeView) EntryChild(i int) NodeView {
	if v.n.leaf {
		panic("rtree: EntryChild on leaf node")
	}
	return NodeView{t: v.t, n: v.n.entries[i].child}
}

// CheckInvariants verifies containment (every entry's MBR lies inside its
// parent entry's MBR), aggregate maxima, entry-count bounds, and that every
// point appears exactly once. Tests call it after builds.
func (t *Tree) CheckInvariants() error {
	seen := make(map[int]bool, len(t.points))
	var check func(n *node) (lo, hi []float64, maxVal float64, err error)
	check = func(n *node) ([]float64, []float64, float64, error) {
		if n != t.root && (len(n.entries) < minEntries || len(n.entries) > maxEntries) {
			return nil, nil, 0, errEntryCount
		}
		if len(n.entries) == 0 {
			return nil, nil, 0, errEmptyNode
		}
		lo, hi := groupMBR(n.entries)
		maxVal := n.entries[0].value
		for i, e := range n.entries {
			if e.value > maxVal {
				maxVal = e.value
			}
			if n.leaf {
				if seen[e.id] {
					return nil, nil, 0, errDuplicatePoint
				}
				seen[e.id] = true
				if e.value != t.valueOf(e.id) {
					return nil, nil, 0, errStaleValue
				}
				continue
			}
			clo, chi, cmax, err := check(e.child)
			if err != nil {
				return nil, nil, 0, err
			}
			for j := range clo {
				if clo[j] < e.lo[j]-1e-12 || chi[j] > e.hi[j]+1e-12 {
					return nil, nil, 0, errContainment
				}
			}
			if cmax > e.value+1e-12 {
				return nil, nil, 0, errStaleAggregate
			}
			_ = i
		}
		return lo, hi, maxVal, nil
	}
	if _, _, _, err := check(t.root); err != nil {
		return err
	}
	if len(seen) != len(t.points) {
		return errMissingPoints
	}
	return nil
}
