package covertree

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

func randomPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// TestBuildStructurePinned pins the topology a build produces, node for
// node, as the hash of EncodeStructure's bytes for a fixed FCT build. The
// insertion descent measures children through the one-vs-many kernel,
// whose results are the one-vs-one kernel's bit for bit, so the hash is the
// one a descent measuring a child at a time produces; any change to how a
// build measures must keep it.
func TestBuildStructurePinned(t *testing.T) {
	tree, err := New(dataset.FCT(2000, 1).Points, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	const want = "ade65574a982d927852d1be137801f5c12ce271450bcb42ce095a78ba095b7d6"
	sum := sha256.Sum256(tree.EncodeStructure())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("EncodeStructure sha256 = %s, want %s", got, want)
	}
}

// TestStructureRoundTrip encodes a built tree's topology and restores it:
// the restored tree must satisfy the cover tree invariants and answer
// queries identically — all without a single distance computation during
// the restore.
func TestStructureRoundTrip(t *testing.T) {
	pts := randomPoints(300, 4, 1)
	orig, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{3, 17, 42} {
		if !orig.Delete(id) {
			t.Fatalf("delete %d failed", id)
		}
	}

	blob := orig.EncodeStructure()
	restored, err := Restore(pts, vecmath.Euclidean{}, blob)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for _, id := range []int{3, 17, 42} {
		if !restored.Delete(id) {
			t.Fatalf("restored tree: delete %d failed", id)
		}
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatalf("restored tree invariants: %v", err)
	}
	if restored.Len() != orig.Len() {
		t.Errorf("restored Len %d, want %d", restored.Len(), orig.Len())
	}
	for qid := 0; qid < 20; qid++ {
		want := orig.KNN(pts[qid], 10, qid)
		got := restored.KNN(pts[qid], 10, qid)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("KNN(%d) differs after restore:\ngot  %v\nwant %v", qid, got, want)
		}
	}
	// The restored tree must keep absorbing inserts correctly.
	id, err := restored.Insert([]float64{0.1, 0.2, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if id != 300 {
		t.Errorf("insert after restore assigned id %d, want 300", id)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatalf("invariants after post-restore insert: %v", err)
	}
}

// TestStructureRoundTripDuplicates covers the deep-chain case: duplicate
// points descend into linear chains, which the iterative codec must handle
// without recursion limits.
func TestStructureRoundTripDuplicates(t *testing.T) {
	pts := make([][]float64, 2000)
	for i := range pts {
		pts[i] = []float64{1, 1}
	}
	orig, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(pts, vecmath.Euclidean{}, orig.EncodeStructure())
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := restored.KNN(pts[0], 3, -1); len(got) != 3 {
		t.Errorf("KNN over duplicates returned %d results", len(got))
	}
}

func TestRestoreRejectsMalformed(t *testing.T) {
	pts := randomPoints(50, 3, 2)
	tree, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	blob := tree.EncodeStructure()

	cases := map[string][]byte{
		"empty":     nil,
		"truncated": blob[:len(blob)-1],
		"extended":  append(bytes.Clone(blob), blob[:nodeRecordSize]...),
	}
	for name, b := range cases {
		if _, err := Restore(pts, vecmath.Euclidean{}, b); err == nil {
			t.Errorf("%s: Restore succeeded", name)
		}
	}
	// Flip every byte: Restore must error or produce a tree that is at
	// least structurally safe (never panic). Many flips hit float bounds
	// that remain decodable; the hard guarantee is no panic and no
	// acceptance of out-of-range IDs.
	for i := 0; i < len(blob); i++ {
		mut := bytes.Clone(blob)
		mut[i] ^= 0x10
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("flip at %d: Restore panicked: %v", i, r)
				}
			}()
			Restore(pts, vecmath.Euclidean{}, mut)
		}()
	}
	if restored, err := Restore(pts, vecmath.Euclidean{}, blob); err != nil || restored.Delete(50) {
		t.Errorf("Restore = %v, or the restored tree deleted an ID out of range", err)
	}
	if _, err := Restore(pts, vecmath.SquaredEuclidean{}, blob); err == nil {
		t.Error("Restore accepted a non-metric")
	}
}

func FuzzRestoreStructure(f *testing.F) {
	pts := randomPoints(20, 2, 3)
	tree, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tree.EncodeStructure())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		restored, err := Restore(pts, vecmath.Euclidean{}, blob)
		if err != nil {
			return
		}
		// Whatever decodes must be a complete, well-formed tree.
		if got := restored.KNN(pts[0], 5, -1); len(got) != 5 {
			t.Fatalf("restored tree answered %d of 5 neighbors", len(got))
		}
	})
}
