package covertree

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/vecmath"
)

// TestNodeSize pins the node at 48 bytes: the row address took the place of
// the 64-bit ID and level, so the tree costs no more a point than before it,
// and a field added later must pay for itself on heap_mb.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 48 {
		t.Fatalf("node is %d bytes, want 48", got)
	}
}

// TestIDSpanBound pins where a tree stops taking IDs: the most a 32-bit node
// ID, the structure codec and a shard map can name. Insert, New and Restore
// all ask checkIDSpan, so no 2^31-row tree needs building to test it.
func TestIDSpanBound(t *testing.T) {
	for _, span := range []int{0, 1, math.MaxInt32 - 1, math.MaxInt32} {
		if err := checkIDSpan(span); err != nil {
			t.Errorf("checkIDSpan(%d) = %v, want nil", span, err)
		}
	}
	for _, span := range []int{math.MaxInt32 + 1, math.MaxUint32 + 1} {
		if err := checkIDSpan(span); err == nil {
			t.Errorf("checkIDSpan(%d) accepted a span past math.MaxInt32", span)
		}
	}
}

// layoutTrees returns a built FCT tree and the same tree restored from its
// structure, each laid out.
func layoutTrees(t *testing.T, n int) (pts [][]float64, built, restored *Tree) {
	t.Helper()
	pts = dataset.FCT(n, 3).Points
	built, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	restored, err = Restore(pts, vecmath.Euclidean{}, built.EncodeStructure())
	if err != nil {
		t.Fatal(err)
	}
	return pts, built, restored
}

// TestLayOutKeepsTheStructure lays out a node-by-node copy of a built and of
// a restored tree, and lays out each laid-out tree once more: the encoded
// structure — and with it every persisted byte — is the one the scattered
// nodes encode.
func TestLayOutKeepsTheStructure(t *testing.T) {
	_, built, restored := layoutTrees(t, 3000)
	for name, tree := range map[string]*Tree{"built": built, "restored": restored} {
		scattered := deepClone(tree)
		want := scattered.EncodeStructure()
		scattered.layOut()
		if !bytes.Equal(scattered.EncodeStructure(), want) {
			t.Errorf("%s: laying out a scattered copy changed its structure", name)
		}
		if !bytes.Equal(tree.EncodeStructure(), want) {
			t.Errorf("%s: the laid-out tree encodes another structure than its scattered copy", name)
		}
		tree.layOut()
		if !bytes.Equal(tree.EncodeStructure(), want) {
			t.Errorf("%s: laying out a laid-out tree changed its structure", name)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// walk calls visit on every node of tree, parents before children.
func walk(tree *Tree, visit func(n *node)) {
	if tree.root == nil {
		return
	}
	stack := []*node{tree.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit(n)
		stack = append(stack, n.children...)
	}
}

// TestSiblingsSideBySide checks the layout itself on a built tree, a
// restored one and a Clone of each: every node's children are consecutive
// nodes of one slab, and its children list has no room to append into.
func TestSiblingsSideBySide(t *testing.T) {
	_, built, restored := layoutTrees(t, 3000)
	trees := map[string]*Tree{
		"built":          built,
		"restored":       restored,
		"built clone":    built.Clone().(*Tree),
		"restored clone": restored.Clone().(*Tree),
	}
	for name, tree := range trees {
		parents, faults := 0, 0
		walk(tree, func(n *node) {
			if len(n.children) == 0 || faults > 0 {
				return
			}
			parents++
			if cap(n.children) != len(n.children) {
				t.Errorf("%s: node %d's children list has capacity %d for %d children", name, n.id, cap(n.children), len(n.children))
				faults++
			}
			for i := 1; i < len(n.children); i++ {
				gap := uintptr(unsafe.Pointer(n.children[i])) - uintptr(unsafe.Pointer(n.children[i-1]))
				if gap != unsafe.Sizeof(node{}) {
					t.Errorf("%s: node %d's children %d and %d are %d bytes apart", name, n.id, i-1, i, int64(gap))
					faults++
					return
				}
			}
		})
		if parents == 0 {
			t.Fatalf("%s: no node has children", name)
		}
	}
}

// childIDs maps every node of tree to its children's IDs.
func childIDs(tree *Tree) map[int32][]int32 {
	out := make(map[int32][]int32)
	walk(tree, func(n *node) {
		for _, c := range n.children {
			out[n.id] = append(out[n.id], c.id)
		}
	})
	return out
}

// TestInPlaceInsertsLeaveNeighboursAlone inserts 500 points into a laid-out
// tree nobody shares, so every insertion appends in place to a children list
// that is a window of the slab's one pointer array. Afterwards every node
// built from the slab has the children it had, followed by inserted points
// only — an append that wrote past its window would have replaced a
// neighbour's first child — and the tree is a cover tree that answers as
// brute force does.
func TestInPlaceInsertsLeaveNeighboursAlone(t *testing.T) {
	const n, inserts = 2000, 500
	pts := dataset.FCT(n+inserts, 4).Points
	tree, err := New(pts[:n], vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	before := childIDs(tree)
	for _, p := range pts[n:] {
		if _, err := tree.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	after := childIDs(tree)
	appended := 0
	for id := range int32(n) {
		was, is := before[id], after[id]
		if len(is) < len(was) || !slices.Equal(is[:len(was)], was) {
			t.Fatalf("node %d had children %v, has %v", id, was, is)
		}
		for _, c := range is[len(was):] {
			if c < n {
				t.Fatalf("node %d gained child %d, which the inserts did not add", id, c)
			}
			appended++
		}
	}
	if appended == 0 {
		t.Fatal("no insertion appended to a laid-out node")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	metric := vecmath.Euclidean{}
	for i := 0; i < 40; i++ {
		q := pts[(i*61)%len(pts)]
		want := liveSorted(tree, pts, metric, q, i)
		if got := drain(tree, q, i); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: cursor stream differs from brute force", i)
		}
		if got := tree.KNN(q, 10, i); !reflect.DeepEqual(got, want[:10]) {
			t.Fatalf("query %d: KNN = %v, want %v", i, got, want[:10])
		}
		r := want[10].Dist
		if got, wantCount := tree.CountCloser(q, r, n, i, nil), countBelow(want, r); got != wantCount {
			t.Fatalf("query %d: CountCloser = %d, want %d", i, got, wantCount)
		}
	}
}

// countBelow counts the neighbors strictly closer than r.
func countBelow(stream []index.Neighbor, r float64) int {
	c := 0
	for _, nb := range stream {
		if nb.Dist < r {
			c++
		}
	}
	return c
}
