package covertree

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/vecmath"
)

// Structure codec: the cover tree's node topology (IDs, levels, maxDist
// bounds, child lists) serialized separately from the points, so a
// persisted tree restores by reattaching nodes to the stored point rows
// instead of paying the O(n log n) distance computations of a
// build. The blob is embedded as the backend-native section of a snapshot
// (internal/persist); both directions are iterative, so adversarial inputs
// cannot overflow the stack, and the decoder validates every invariant it
// can check without distance computations.
//
// Node record, little-endian, preorder: u32 id, u32 level (two's
// complement), f64 maxDist, u32 child count.

const nodeRecordSize = 20

// EncodeStructure serializes the tree's node topology. It returns nil for
// an empty tree.
func (t *Tree) EncodeStructure() []byte {
	if t.root == nil {
		return nil
	}
	buf := make([]byte, 0, nodeRecordSize*t.IDSpan())
	stack := []*node{t.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		buf = appendNode(buf, n)
		// Push children in reverse so they pop in order (preorder).
		for i := len(n.children) - 1; i >= 0; i-- {
			stack = append(stack, n.children[i])
		}
	}
	return buf
}

func appendNode(b []byte, n *node) []byte {
	b = appendU32(b, uint32(n.id))
	b = appendU32(b, uint32(n.level))
	b = appendU64(b, math.Float64bits(n.maxDist))
	return appendU32(b, uint32(len(n.children)))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}

// Restore rebuilds a tree from its point rows and an encoded structure,
// without a single distance computation, and lays it out as New does
// (layOut), which the format never records; the caller re-applies the
// tombstones, as after a build. It validates that the structure is a
// well-formed tree containing every point exactly once with strictly
// decreasing levels and sane bounds; it returns an error (never panics) on
// malformed input, so callers can fall back to a build.
func Restore(points [][]float64, metric vecmath.Metric, structure []byte) (*Tree, error) {
	t, err := newTree(points, metric)
	if err != nil {
		return nil, err
	}
	if t.root, err = decodeStructure(points, structure); err != nil {
		return nil, err
	}
	t.layOut()
	return t, nil
}

// decodeStructure parses the preorder node stream with an explicit stack.
func decodeStructure(points [][]float64, blob []byte) (*node, error) {
	want := len(points)
	if len(blob) != want*nodeRecordSize {
		return nil, fmt.Errorf("covertree: structure of %d bytes does not match %d points", len(blob), want)
	}
	if want == 0 {
		return nil, nil
	}
	seen := make([]bool, want)
	off := 0
	readNode := func() (*node, int, error) {
		rec := blob[off : off+nodeRecordSize]
		off += nodeRecordSize
		id := int(int32(getU32(rec)))
		if id < 0 || id >= want {
			return nil, 0, fmt.Errorf("covertree: structure node id %d out of range", id)
		}
		if seen[id] {
			return nil, 0, fmt.Errorf("covertree: structure repeats node id %d", id)
		}
		seen[id] = true
		maxDist := math.Float64frombits(getU64(rec[8:]))
		if math.IsNaN(maxDist) || math.IsInf(maxDist, 0) || maxDist < 0 {
			return nil, 0, fmt.Errorf("covertree: structure node %d has invalid maxDist", id)
		}
		nchildren := int(getU32(rec[16:]))
		if nchildren > want {
			return nil, 0, fmt.Errorf("covertree: structure node %d claims %d children", id, nchildren)
		}
		n := newNode(id, points[id], int32(getU32(rec[4:])))
		n.maxDist = maxDist
		return n, nchildren, nil
	}

	root, rootKids, err := readNode()
	if err != nil {
		return nil, err
	}
	type frame struct {
		n         *node
		remaining int
	}
	stack := []frame{{root, rootKids}}
	decoded := 1
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.remaining == 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		top.remaining--
		if decoded == want {
			return nil, errors.New("covertree: structure claims more nodes than points")
		}
		child, kids, err := readNode()
		if err != nil {
			return nil, err
		}
		if child.level >= top.n.level {
			return nil, fmt.Errorf("covertree: structure child %d level not below parent %d", child.id, top.n.id)
		}
		top.n.children = append(top.n.children, child)
		decoded++
		stack = append(stack, frame{child, kids})
	}
	if decoded != want || off != len(blob) {
		return nil, errors.New("covertree: structure does not cover every point")
	}
	return root, nil
}
