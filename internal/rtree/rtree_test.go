package rtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/indextest"
	"repro/internal/vecmath"
)

// TestConformance holds the R-tree to what its readers use of it on every
// conformance workload: a sound structure, and KNN — the forward query of
// TPL's refinement — equal to brute force for members (skipped) and free
// points at k = 1, 3 and n. Tied distances may come back under any of the
// tied IDs, as index.Index allows.
func TestConformance(t *testing.T) {
	for _, w := range indextest.Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			tree, err := New(w.Points, w.Metric, nil)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			n := len(w.Points)
			queries := indextest.RandPoints(3, len(w.Points[0]), 50)
			skips := []int{-1, -1, -1, 0, n / 2, n - 1}
			for _, id := range skips[3:] {
				queries = append(queries, w.Points[id])
			}
			for qi, q := range queries {
				skip := skips[qi]
				for _, k := range []int{1, 3, n} {
					got, want := tree.KNN(q, k, skip), indextest.RefKNN(w.Points, w.Metric, q, k, skip)
					if len(got) != len(want) {
						t.Fatalf("skip %d: KNN(k=%d) returned %d neighbors, want %d", skip, k, len(got), len(want))
					}
					seen := map[int]bool{}
					for i, nb := range got {
						if nb.Dist != want[i].Dist || nb.ID == skip || seen[nb.ID] || w.Metric.Distance(q, w.Points[nb.ID]) != nb.Dist {
							t.Fatalf("skip %d: KNN(k=%d) position %d = %+v, want distance %g", skip, k, i, nb, want[i].Dist)
						}
						seen[nb.ID] = true
					}
				}
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, vecmath.Euclidean{}, nil); err == nil {
		t.Error("accepted empty dataset")
	}
	if _, err := New([][]float64{{1}}, nil, nil); err == nil {
		t.Error("accepted nil metric")
	}
	if _, err := New([][]float64{{1, 0}}, vecmath.Angular{}, nil); err == nil {
		t.Error("accepted metric without box bounds")
	}
	if _, err := New([][]float64{{1}, {2}}, vecmath.Euclidean{}, []float64{1}); err == nil {
		t.Error("accepted mismatched values length")
	}
}

func TestInvariantsAfterBuild(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		pts := indextest.ClusteredPoints(500, 3, 7, seed)
		vals := make([]float64, len(pts))
		rng := rand.New(rand.NewSource(seed))
		for i := range vals {
			vals[i] = rng.Float64()
		}
		tree, err := New(pts, vecmath.Euclidean{}, vals)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if tree.Height() < 2 {
			t.Errorf("500 points produced height %d, want >= 2", tree.Height())
		}
	}
}

func TestInvariantsProperty(t *testing.T) {
	property := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		pts := indextest.RandPoints(n, 2, seed)
		tree, err := New(pts, vecmath.Euclidean{}, nil)
		if err != nil {
			return false
		}
		return tree.CheckInvariants() == nil
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestAggregatePruning checks that subtree maxima reaching the root bound
// every leaf value, the property the RdNN-Tree query relies on.
func TestAggregatePruning(t *testing.T) {
	pts := indextest.RandPoints(300, 2, 9)
	vals := make([]float64, len(pts))
	rng := rand.New(rand.NewSource(5))
	maxVal := 0.0
	for i := range vals {
		vals[i] = rng.Float64()
		if vals[i] > maxVal {
			maxVal = vals[i]
		}
	}
	tree, err := New(pts, vecmath.Euclidean{}, vals)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Root()
	rootMax := math.Inf(-1)
	for i := 0; i < root.NumEntries(); i++ {
		if v := root.EntryValue(i); v > rootMax {
			rootMax = v
		}
	}
	if math.Abs(rootMax-maxVal) > 1e-12 {
		t.Errorf("root aggregate %g, want %g", rootMax, maxVal)
	}
}

func TestNodeViewTraversal(t *testing.T) {
	pts := indextest.RandPoints(200, 3, 4)
	tree, err := New(pts, vecmath.Euclidean{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Collect every leaf ID through the NodeView API.
	seen := map[int]bool{}
	var walk func(v NodeView)
	walk = func(v NodeView) {
		for i := 0; i < v.NumEntries(); i++ {
			lo, hi := v.EntryMBR(i)
			for j := range lo {
				if lo[j] > hi[j] {
					t.Fatalf("inverted MBR at dim %d", j)
				}
			}
			if v.IsLeaf() {
				seen[v.EntryID(i)] = true
			} else {
				walk(v.EntryChild(i))
			}
		}
	}
	walk(tree.Root())
	if len(seen) != len(pts) {
		t.Errorf("NodeView walk found %d points, want %d", len(seen), len(pts))
	}
}

func TestNodeViewPanics(t *testing.T) {
	pts := indextest.RandPoints(200, 2, 8)
	tree, err := New(pts, vecmath.Euclidean{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Root()
	if root.IsLeaf() {
		t.Skip("tree too small for interior nodes")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("EntryID on interior node did not panic")
			}
		}()
		root.EntryID(0)
	}()
	leaf := root
	for !leaf.IsLeaf() {
		leaf = leaf.EntryChild(0)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("EntryChild on leaf did not panic")
			}
		}()
		leaf.EntryChild(0)
	}()
}
