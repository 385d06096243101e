package scan

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/vecmath"
)

// buildPair returns two scan indexes over the same rows, one with the
// quantized filter enabled.
func buildPair(t *testing.T, pts [][]float64, m vecmath.Metric) (plain, filtered *Index) {
	t.Helper()
	plain, err := New(pts, m)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err = New(pts, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := filtered.EnableQuantFilter(nil); err != nil {
		t.Fatal(err)
	}
	return plain, filtered
}

// TestQuantFilterByteIdentical pins the central claim of the filter: for
// every supported metric, KNN and CountCloser return bit-for-bit the same
// results with the filter on and off, across random queries, member
// queries and tombstones — while the filter actually screens rows.
func TestQuantFilterByteIdentical(t *testing.T) {
	metrics := []vecmath.Metric{
		vecmath.Euclidean{},
		vecmath.SquaredEuclidean{},
		vecmath.Manhattan{},
		vecmath.Chebyshev{},
	}
	for _, m := range metrics {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(71))
			pts := randPoints(400, 6, 9)
			plain, filtered := buildPair(t, pts, m)
			for _, ix := range []*Index{plain, filtered} {
				for id := 0; id < 400; id += 17 {
					ix.Delete(id)
				}
			}
			for trial := 0; trial < 60; trial++ {
				q := make([]float64, 6)
				for j := range q {
					q[j] = rng.Float64() * 1.5
				}
				skipID := -1
				if trial%3 == 0 {
					skipID = rng.Intn(400)
					q = pts[skipID]
				}
				k := 1 + rng.Intn(12)
				if got, want := filtered.KNN(q, k, skipID), plain.KNN(q, k, skipID); !reflect.DeepEqual(got, want) {
					t.Fatalf("KNN diverged: filtered %v, plain %v", got, want)
				}
				r := rng.Float64() * 0.8
				// CountCloser at a random radius and at the k-th neighbor
				// distance itself, where only rows tied at the radius decide.
				// Each with a random limit and with none that binds.
				for _, cr := range []float64{r, plain.KNN(q, k, skipID)[k-1].Dist} {
					for _, limit := range []int{1 + rng.Intn(40), len(pts)} {
						if got, want := filtered.CountCloser(q, cr, limit, skipID, nil), plain.CountCloser(q, cr, limit, skipID, nil); got != want {
							t.Fatalf("CountCloser(r=%g, limit=%d) diverged: %d vs %d", cr, limit, got, want)
						}
					}
				}
			}
			admitted, screened := filtered.QuantFilterStats()
			if admitted == 0 || screened == 0 {
				t.Fatalf("filter inactive: admitted=%d screened=%d", admitted, screened)
			}
			if pa, ps := plain.QuantFilterStats(); pa != 0 || ps != 0 {
				t.Fatalf("unfiltered index reported filter stats %d/%d", pa, ps)
			}
		})
	}
}

// TestQuantFilterSurvivesCloneInsert checks the filter follows the clone
// lineage: a clone screens rows inserted after cloning (including rows
// outside the trained codebook range), results stay byte-identical, and
// the admission counters aggregate monotonically across the lineage.
func TestQuantFilterSurvivesCloneInsert(t *testing.T) {
	pts := randPoints(200, 5, 13)
	plain, filtered := buildPair(t, pts, vecmath.Euclidean{})
	fcl := filtered.Clone().(*Index)
	pcl := plain.Clone().(*Index)
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 50; i++ {
		p := make([]float64, 5)
		for j := range p {
			p[j] = rng.Float64() * 3 // beyond the trained [0,1) range
		}
		fid, err := fcl.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		pid, err := pcl.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		if fid != pid {
			t.Fatalf("insert ids diverged: %d vs %d", fid, pid)
		}
	}
	for trial := 0; trial < 30; trial++ {
		q := make([]float64, 5)
		for j := range q {
			q[j] = rng.Float64() * 3
		}
		if got, want := fcl.KNN(q, 5, -1), pcl.KNN(q, 5, -1); !reflect.DeepEqual(got, want) {
			t.Fatalf("KNN diverged after insert: %v vs %v", got, want)
		}
	}
	// The original is untouched by the clone's inserts but shares counters.
	if filtered.IDSpan() != 200 || fcl.IDSpan() != 250 {
		t.Fatalf("IDSpan %d/%d, want 200/250", filtered.IDSpan(), fcl.IDSpan())
	}
	a0, s0 := filtered.QuantFilterStats()
	a1, s1 := fcl.QuantFilterStats()
	if a0 != a1 || s0 != s1 {
		t.Fatalf("lineage counters diverged: %d/%d vs %d/%d", a0, s0, a1, s1)
	}
	if a0 == 0 || s0 == 0 {
		t.Fatalf("filter inactive on clone: admitted=%d screened=%d", a0, s0)
	}
}

// TestQuantFilterRestoreWithStoredCodebook checks that enabling the filter
// with a previously trained codebook (the snapshot-restore path) screens
// with identical bounds: same results and a codebook pointer round trip.
func TestQuantFilterRestoreWithStoredCodebook(t *testing.T) {
	pts := randPoints(150, 4, 37)
	_, filtered := buildPair(t, pts, vecmath.Euclidean{})
	cb := filtered.QuantCodebook()
	if cb == nil {
		t.Fatal("no codebook after EnableQuantFilter")
	}
	restored, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := vecmath.DecodeCodebook(cb.MarshalBinary())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.EnableQuantFilter(decoded); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		q := make([]float64, 4)
		for j := range q {
			q[j] = rng.Float64()
		}
		if got, want := restored.KNN(q, 4, -1), filtered.KNN(q, 4, -1); !reflect.DeepEqual(got, want) {
			t.Fatalf("restored KNN diverged: %v vs %v", got, want)
		}
	}
}

// TestQuantFilterUnsupportedMetric checks the filter refuses metrics it has
// no sound lower bound for.
func TestQuantFilterUnsupportedMetric(t *testing.T) {
	pts := randPoints(20, 3, 3)
	ix, err := New(pts, vecmath.Minkowski{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.EnableQuantFilter(nil); err == nil {
		t.Fatal("EnableQuantFilter accepted Minkowski")
	}
	// Dimension mismatch between codebook and index is rejected too.
	other := vecmath.TrainCodebook(randPoints(10, 7, 5))
	ix2, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix2.EnableQuantFilter(other); err == nil {
		t.Fatal("EnableQuantFilter accepted a mismatched codebook")
	}
}
