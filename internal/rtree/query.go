package rtree

import (
	"repro/internal/index"
	"repro/internal/pqueue"
)

// KNN returns the k nearest neighbors of q in ascending distance order
// (fewer if the tree is smaller), omitting point skipID when it is >= 0, by
// best-first search with MINDIST pruning. It is the one forward query the
// baselines make of the tree: TPL's refinement.
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
