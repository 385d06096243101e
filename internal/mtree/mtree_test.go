package mtree

import (
	"maps"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/indextest"
	"repro/internal/vecmath"
)

// TestConformance holds the M-tree to what MRkNNCoP uses of it on every
// conformance workload: a sound structure, and covering radii that make its
// pruning exact.
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
			checkPrunedWalk(t, tree, w.Points, w.Metric)
		})
	}
}

// checkPrunedWalk walks tree through NodeView as MRkNNCoP does — an entry is
// skipped when its routing object lies farther from q than r plus its
// covering radius — and requires the walk to reach exactly the points brute
// force places within r, for member and free queries, at radii zero, at
// existing distances (where ties sit), between them and beyond all of them.
func checkPrunedWalk(t *testing.T, tree *Tree, pts [][]float64, m vecmath.Metric) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	queries := append(indextest.RandPoints(4, len(pts[0]), 43), pts[0], pts[rng.Intn(len(pts))])
	for _, q := range queries {
		ref := indextest.RefKNN(pts, m, q, len(pts), -1)
		for _, r := range []float64{0, ref[0].Dist, ref[len(ref)/2].Dist, ref[rng.Intn(len(ref))].Dist, 0.05, 0.3, 10} {
			want := map[int]bool{}
			for _, nb := range ref {
				if nb.Dist <= r {
					want[nb.ID] = true
				}
			}
			got := map[int]bool{}
			var walk func(v NodeView)
			walk = func(v NodeView) {
				for i := 0; i < v.NumEntries(); i++ {
					d := m.Distance(q, pts[v.EntryID(i)])
					switch {
					case v.IsLeaf() && d <= r:
						got[v.EntryID(i)] = true
					case !v.IsLeaf() && d-v.EntryRadius(i) <= r:
						walk(v.EntryChild(i))
					}
				}
			}
			walk(tree.Root())
			if !maps.Equal(got, want) {
				t.Fatalf("pruned walk within %g found %d points, brute force %d", r, len(got), len(want))
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, vecmath.Euclidean{}, nil); err == nil {
		t.Error("accepted empty dataset")
	}
	if _, err := New([][]float64{{1}}, nil, nil); err == nil {
		t.Error("accepted nil metric")
	}
	if _, err := New([][]float64{{1}}, vecmath.SquaredEuclidean{}, nil); err == nil {
		t.Error("accepted non-metric distance")
	}
	if _, err := New([][]float64{{1}, {2}}, vecmath.Euclidean{}, [][]float64{{1}}); err == nil {
		t.Error("accepted mismatched values length")
	}
	if _, err := New([][]float64{{1}, {2}}, vecmath.Euclidean{}, [][]float64{{1}, {1, 2}}); err == nil {
		t.Error("accepted ragged values")
	}
}

func TestInvariantsAfterBuild(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		pts := indextest.ClusteredPoints(400, 3, 6, seed)
		vals := make([][]float64, len(pts))
		rng := rand.New(rand.NewSource(seed))
		for i := range vals {
			vals[i] = []float64{rng.Float64(), rng.NormFloat64()}
		}
		tree, err := New(pts, vecmath.Euclidean{}, vals)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestInvariantsProperty(t *testing.T) {
	property := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%150) + 1
		pts := indextest.RandPoints(n, 3, seed)
		tree, err := New(pts, vecmath.Euclidean{}, nil)
		if err != nil {
			return false
		}
		return tree.CheckInvariants() == nil
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAggregateVectorMax checks that the root-level element-wise maxima
// match the true column maxima, the bound MRkNNCoP prunes with.
func TestAggregateVectorMax(t *testing.T) {
	pts := indextest.RandPoints(300, 2, 7)
	vals := make([][]float64, len(pts))
	rng := rand.New(rand.NewSource(1))
	want := []float64{math.Inf(-1), math.Inf(-1)}
	for i := range vals {
		vals[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		for j := 0; j < 2; j++ {
			if vals[i][j] > want[j] {
				want[j] = vals[i][j]
			}
		}
	}
	tree, err := New(pts, vecmath.Euclidean{}, vals)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Root()
	got := []float64{math.Inf(-1), math.Inf(-1)}
	for i := 0; i < root.NumEntries(); i++ {
		agg := root.EntryAggregate(i)
		for j := 0; j < 2; j++ {
			if agg[j] > got[j] {
				got[j] = agg[j]
			}
		}
	}
	for j := 0; j < 2; j++ {
		if math.Abs(got[j]-want[j]) > 1e-12 {
			t.Errorf("root aggregate[%d] = %g, want %g", j, got[j], want[j])
		}
	}
}

func TestAngularMetric(t *testing.T) {
	// The M-tree must work with any true metric.
	pts := indextest.RandPoints(150, 5, 3)
	tree, err := New(pts, vecmath.Angular{}, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkPrunedWalk(t, tree, pts, vecmath.Angular{})
}

func TestNodeViewWalk(t *testing.T) {
	pts := indextest.RandPoints(250, 3, 5)
	tree, err := New(pts, vecmath.Euclidean{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	var walk func(v NodeView)
	walk = func(v NodeView) {
		for i := 0; i < v.NumEntries(); i++ {
			if v.IsLeaf() {
				seen[v.EntryID(i)] = true
				if v.EntryRadius(i) != 0 {
					t.Fatal("leaf entry with nonzero radius")
				}
			} else {
				walk(v.EntryChild(i))
			}
		}
	}
	walk(tree.Root())
	if len(seen) != len(pts) {
		t.Errorf("walk found %d points, want %d", len(seen), len(pts))
	}
}
