// Package rtree implements an R-tree with the R*-style split heuristic
// (Guttman 1984; Beckmann et al. 1990), the spatial substrate for the
// RdNN-Tree and TPL baselines of the paper's evaluation (Section 2).
//
// Leaf entries may carry an augmented float64 value whose subtree maximum is
// aggregated at every interior entry — exactly the mechanism the RdNN-Tree
// uses to store k-nearest-neighbor distances ("at each index node, the
// maximum of the kNN distances of the points is aggregated within the
// subtree", paper Section 2.1). The NodeView traversal API gives the
// baseline algorithms pruned access to the tree structure.
//
// Forced reinsertion from the original R*-tree is omitted (split quality is
// the dominant effect for the static workloads here); the split itself uses
// the R* axis/distribution choice.
package rtree

import (
	"errors"
	"math"
	"sort"

	"repro/internal/vecmath"
)

const (
	maxEntries = 32
	minEntries = 13 // ≈ 40% of maxEntries, the R* recommendation
)

type entry struct {
	lo, hi []float64 // MBR of the child subtree, or the point itself
	child  *node     // nil in leaves
	id     int       // point ID in leaves
	value  float64   // augmented value (leaf), or subtree max (interior)
}

type node struct {
	leaf    bool
	entries []entry
}

// Tree is an R-tree over a point set, safe for concurrent readers. It is not
// a forward index: the RdNN-Tree and TPL walk it through NodeView with their
// own pruning, and its one forward query is KNN, which TPL's refinement asks.
type Tree struct {
	points [][]float64
	values []float64 // augmented per-point values (nil if unused)
	metric vecmath.Metric
	boxer  vecmath.BoxDistancer
	dim    int
	root   *node
	height int
}

// New builds an R-tree over points. The metric must implement
// vecmath.BoxDistancer. values, if non-nil, supplies the augmented per-point
// values (len(values) must equal len(points)).
func New(points [][]float64, metric vecmath.Metric, values []float64) (*Tree, error) {
	if metric == nil {
		return nil, errors.New("rtree: nil metric")
	}
	boxer, ok := metric.(vecmath.BoxDistancer)
	if !ok {
		return nil, errors.New("rtree: metric cannot bound box distances")
	}
	if err := vecmath.ValidateAllFor(metric, points); err != nil {
		return nil, err
	}
	if values != nil && len(values) != len(points) {
		return nil, errors.New("rtree: values length does not match points")
	}
	t := &Tree{
		points: points,
		values: values,
		metric: metric,
		boxer:  boxer,
		dim:    len(points[0]),
		root:   &node{leaf: true},
		height: 1,
	}
	for id := range points {
		t.insert(id)
	}
	return t, nil
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.points) }

// Dim returns the dimensionality of the indexed points.
func (t *Tree) Dim() int { return t.dim }

// Point returns the coordinates of point id, owned by the tree.
func (t *Tree) Point(id int) []float64 { return t.points[id] }

// Metric returns the distance the tree was built under.
func (t *Tree) Metric() vecmath.Metric { return t.metric }

// Height returns the number of levels in the tree (1 for a lone leaf root).
func (t *Tree) Height() int { return t.height }

func (t *Tree) valueOf(id int) float64 {
	if t.values == nil {
		return 0
	}
	return t.values[id]
}

func (t *Tree) leafEntry(id int) entry {
	p := t.points[id]
	return entry{lo: p, hi: p, id: id, value: t.valueOf(id)}
}

func (t *Tree) insert(id int) {
	if split := t.insertAt(t.root, t.leafEntry(id)); split != nil {
		// Root overflowed: grow the tree by one level.
		oldRoot := t.root
		t.root = &node{entries: []entry{t.nodeEntry(oldRoot), t.nodeEntry(split)}}
		t.height++
	}
}

// nodeEntry wraps n in an interior entry with its tight MBR and aggregate.
func (t *Tree) nodeEntry(n *node) entry {
	e := entry{child: n, lo: make([]float64, t.dim), hi: make([]float64, t.dim)}
	copy(e.lo, n.entries[0].lo)
	copy(e.hi, n.entries[0].hi)
	e.value = n.entries[0].value
	for _, c := range n.entries[1:] {
		for j := 0; j < t.dim; j++ {
			if c.lo[j] < e.lo[j] {
				e.lo[j] = c.lo[j]
			}
			if c.hi[j] > e.hi[j] {
				e.hi[j] = c.hi[j]
			}
		}
		if c.value > e.value {
			e.value = c.value
		}
	}
	return e
}

// insertAt descends to a leaf, splitting on overflow; a non-nil return is a
// sibling created by the split that the caller must register.
func (t *Tree) insertAt(n *node, e entry) *node {
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > maxEntries {
			return t.split(n)
		}
		return nil
	}
	bi := t.chooseSubtree(n, e)
	if split := t.insertAt(n.entries[bi].child, e); split != nil {
		n.entries[bi] = t.nodeEntry(n.entries[bi].child)
		n.entries = append(n.entries, t.nodeEntry(split))
		if len(n.entries) > maxEntries {
			return t.split(n)
		}
		return nil
	}
	// Refresh the descended entry's MBR and aggregate in place.
	n.entries[bi] = t.nodeEntry(n.entries[bi].child)
	return nil
}

// chooseSubtree picks the child whose MBR needs the least enlargement to
// absorb e, breaking ties by smaller extent. Enlargement is measured on the
// box margin (sum of side lengths) rather than Guttman's volume: volumes of
// boxes with hundreds of dimensions overflow float64 and would reduce the
// heuristic to noise, while margins stay finite and rank candidates the same
// way on the low-dimensional data R-trees are effective for.
func (t *Tree) chooseSubtree(n *node, e entry) int {
	best, bestEnlarge, bestSize := 0, math.Inf(1), math.Inf(1)
	for i := range n.entries {
		size := boxMargin(n.entries[i].lo, n.entries[i].hi)
		enlarge := unionMargin(n.entries[i].lo, n.entries[i].hi, e.lo, e.hi) - size
		if enlarge < bestEnlarge || (enlarge == bestEnlarge && size < bestSize) {
			best, bestEnlarge, bestSize = i, enlarge, size
		}
	}
	return best
}

// split divides n's entries using the R* axis and distribution choice and
// returns the new sibling.
func (t *Tree) split(n *node) *node {
	entries := n.entries
	bestAxis, bestMargin := 0, math.Inf(1)
	for axis := 0; axis < t.dim; axis++ {
		sortByAxis(entries, axis)
		margin := 0.0
		for i := minEntries; i <= len(entries)-minEntries; i++ {
			margin += groupMargin(entries[:i]) + groupMargin(entries[i:])
		}
		if margin < bestMargin {
			bestAxis, bestMargin = axis, margin
		}
	}
	sortByAxis(entries, bestAxis)
	bestIdx, bestOverlap, bestSize := minEntries, math.Inf(1), math.Inf(1)
	for i := minEntries; i <= len(entries)-minEntries; i++ {
		lo1, hi1 := groupMBR(entries[:i])
		lo2, hi2 := groupMBR(entries[i:])
		ov := overlapMargin(lo1, hi1, lo2, hi2)
		size := boxMargin(lo1, hi1) + boxMargin(lo2, hi2)
		if ov < bestOverlap || (ov == bestOverlap && size < bestSize) {
			bestIdx, bestOverlap, bestSize = i, ov, size
		}
	}
	right := make([]entry, len(entries)-bestIdx)
	copy(right, entries[bestIdx:])
	n.entries = entries[:bestIdx:bestIdx]
	return &node{leaf: n.leaf, entries: right}
}

func sortByAxis(entries []entry, axis int) {
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].lo[axis] != entries[b].lo[axis] {
			return entries[a].lo[axis] < entries[b].lo[axis]
		}
		return entries[a].hi[axis] < entries[b].hi[axis]
	})
}

func groupMBR(group []entry) (lo, hi []float64) {
	lo = append([]float64(nil), group[0].lo...)
	hi = append([]float64(nil), group[0].hi...)
	for _, e := range group[1:] {
		for j := range lo {
			if e.lo[j] < lo[j] {
				lo[j] = e.lo[j]
			}
			if e.hi[j] > hi[j] {
				hi[j] = e.hi[j]
			}
		}
	}
	return lo, hi
}

func groupMargin(group []entry) float64 {
	lo, hi := groupMBR(group)
	m := 0.0
	for j := range lo {
		m += hi[j] - lo[j]
	}
	return m
}

// boxMargin returns the sum of side lengths (the R* "margin").
func boxMargin(lo, hi []float64) float64 {
	m := 0.0
	for j := range lo {
		m += hi[j] - lo[j]
	}
	return m
}

// unionMargin returns the margin of the smallest box containing both inputs.
func unionMargin(lo1, hi1, lo2, hi2 []float64) float64 {
	m := 0.0
	for j := range lo1 {
		m += math.Max(hi1[j], hi2[j]) - math.Min(lo1[j], lo2[j])
	}
	return m
}

// overlapMargin returns the margin of the intersection box, or 0 when the
// boxes are separated along any axis.
func overlapMargin(lo1, hi1, lo2, hi2 []float64) float64 {
	m := 0.0
	for j := range lo1 {
		lo := math.Max(lo1[j], lo2[j])
		hi := math.Min(hi1[j], hi2[j])
		if hi < lo {
			return 0
		}
		m += hi - lo
	}
	return m
}
