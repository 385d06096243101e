package covertree

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/indextest"
	"repro/internal/vecmath"
)

// routedInputs are the point sets the routed build is checked on: random
// points, duplicate-heavy points (copies of a few rows, in shuffled order, so
// groups hold chains of zero distances), an FCT slice, and random points
// with one far outlier past every prefix, which forces the root raise.
func routedInputs() map[string][][]float64 {
	rng := rand.New(rand.NewSource(5))
	base := indextest.RandPoints(25, 3, 6)
	dups := make([][]float64, 300)
	for i := range dups {
		dups[i] = vecmath.Clone(base[rng.Intn(len(base))])
	}
	outlier := indextest.RandPoints(200, 3, 7)
	outlier[150] = []float64{1e6, -1e6, 1e6}
	return map[string][][]float64{
		"random":     indextest.RandPoints(300, 4, 4),
		"duplicates": dups,
		"fct":        dataset.FCT(400, 2).Points,
		"outlier":    outlier,
	}
}

// buildAt builds pts with the given prefix on the given number of cores.
func buildAt(t *testing.T, pts [][]float64, prefix, procs int) *Tree {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	tree, err := build(pts, vecmath.Euclidean{}, prefix)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestRoutedBuildProperty builds every routed input with prefixes short
// enough that most points are routed, and checks the result as a cover tree
// and as an index: the invariants hold, every query form answers as brute
// force does, the structure codec round-trips it, and it encodes the same
// on one core and on four.
func TestRoutedBuildProperty(t *testing.T) {
	for name, pts := range routedInputs() {
		for _, prefix := range []int{1, 8, 64} {
			tree := buildAt(t, pts, prefix, 4)
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("%s, prefix %d: %v", name, prefix, err)
			}
			checkAgainstBruteForce(t, tree, pts)
			blob := tree.EncodeStructure()
			if one := buildAt(t, pts, prefix, 1).EncodeStructure(); !bytes.Equal(one, blob) {
				t.Fatalf("%s, prefix %d: the tree built on one core differs from the one built on four", name, prefix)
			}
			restored, err := Restore(pts, vecmath.Euclidean{}, blob)
			if err != nil {
				t.Fatalf("%s, prefix %d: Restore: %v", name, prefix, err)
			}
			if !bytes.Equal(restored.EncodeStructure(), blob) {
				t.Fatalf("%s, prefix %d: the restored tree encodes differently", name, prefix)
			}
			checkAgainstBruteForce(t, restored, pts)
		}
	}
}

// checkAgainstBruteForce compares the cursor stream, KNN and CountCloser of
// tree with brute force over pts, for member queries (skipping the member)
// and for random ones.
func checkAgainstBruteForce(t *testing.T, tree *Tree, pts [][]float64) {
	t.Helper()
	m := vecmath.Euclidean{}
	rng := rand.New(rand.NewSource(9))
	for qi := 0; qi < 10; qi++ {
		q, skip := pts[rng.Intn(len(pts))], -1
		if qi%2 == 0 {
			skip = rng.Intn(len(pts))
			q = pts[skip]
		}
		want := indextest.RefKNN(pts, m, q, len(pts), skip)
		var got []index.Neighbor
		c := tree.NewCursor(q, skip)
		for nb, ok := c.Next(); ok; nb, ok = c.Next() {
			got = append(got, nb)
		}
		c.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: the cursor stream is not brute force's", qi)
		}
		// KNN leaves the order of tied rows open, so only its distances
		// are brute force's.
		for _, k := range []int{1, 5, len(pts)} {
			got := tree.KNN(q, k, skip)
			if len(got) != min(k, len(want)) {
				t.Fatalf("query %d: KNN(%d) returned %d rows, want %d", qi, k, len(got), min(k, len(want)))
			}
			for i, nb := range got {
				if nb.Dist != want[i].Dist {
					t.Fatalf("query %d: KNN(%d) row %d at %g, want %g", qi, k, i, nb.Dist, want[i].Dist)
				}
			}
		}
		for _, r := range []float64{0, want[0].Dist, want[len(want)/3].Dist, want[len(want)-1].Dist, want[len(want)-1].Dist + 1} {
			count := 0
			for _, nb := range want {
				if nb.Dist < r {
					count++
				}
			}
			for _, limit := range []int{1, count, len(pts)} {
				if got := tree.CountCloser(q, r, limit, skip, nil); got != min(count, limit) {
					t.Fatalf("query %d: CountCloser(r=%g, limit=%d) = %d, want %d", qi, r, limit, got, min(count, limit))
				}
			}
		}
	}
}

// TestRoutedBuildDeterministic pins the topology of a build that takes the
// routed path, as TestBuildStructurePinned pins one that does not: the
// tree depends on the points alone, so the hash holds on any number of
// cores (CI runs it under -cpu 1,2,4).
func TestRoutedBuildDeterministic(t *testing.T) {
	pts := dataset.FCT(20000, 1).Points
	tree, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	const want = "b7bc7d456606014ec636f837935af6780ab59265ee05f1d1ebb35e0986f26216"
	sum := sha256.Sum256(tree.EncodeStructure())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("EncodeStructure sha256 at GOMAXPROCS %d = %s, want %s", runtime.GOMAXPROCS(0), got, want)
	}
}
