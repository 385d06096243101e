package sft

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/covertree"
	"repro/internal/index"
	"repro/internal/indextest"
	"repro/internal/scan"
	"repro/internal/vecmath"
)

func newScan(t *testing.T, pts [][]float64) *scan.Index {
	t.Helper()
	ix, err := scan.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatalf("scan.New: %v", err)
	}
	return ix
}

// backend is one exact back-end SFT can verify through.
type backend struct {
	name string
	ix   index.Index
}

// backends builds scan and the cover tree over pts: SFT settles its
// boundary ties through the back-end's CountCloser, so each must answer as
// brute force does.
func backends(t *testing.T, pts [][]float64) []backend {
	t.Helper()
	tree, err := covertree.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatalf("covertree.New: %v", err)
	}
	return []backend{{"scan", newScan(t, pts)}, {"covertree", tree}}
}

// gridPoints draws n points on a coarse integer grid, where exact distance
// ties — the boundary cases of the strict verification count — are
// everywhere.
func gridPoints(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{float64(rng.Intn(5)), float64(rng.Intn(5)), float64(rng.Intn(3))}
	}
	return pts
}

func TestNewQuerierValidation(t *testing.T) {
	ix := newScan(t, indextest.RandPoints(10, 2, 1))
	if _, err := NewQuerier(nil, Params{K: 1, Alpha: 2}); err == nil {
		t.Error("accepted nil index")
	}
	if _, err := NewQuerier(ix, Params{K: 0, Alpha: 2}); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := NewQuerier(ix, Params{K: 1, Alpha: 0.5}); err == nil {
		t.Error("accepted alpha < 1")
	}
	if _, err := NewQuerier(ix, Params{K: 1, Alpha: math.NaN()}); err == nil {
		t.Error("accepted NaN alpha")
	}
}

func TestQueryValidation(t *testing.T) {
	ix := newScan(t, indextest.RandPoints(10, 3, 1))
	qr, err := NewQuerier(ix, Params{K: 2, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qr.ByID(-1); err == nil {
		t.Error("accepted negative id")
	}
	if _, err := qr.ByID(10); err == nil {
		t.Error("accepted out-of-range id")
	}
	if _, err := qr.ByPoint([]float64{1}); err == nil {
		t.Error("accepted dimension mismatch")
	}
	if _, err := qr.ByPoint([]float64{1, 2, math.NaN()}); err == nil {
		t.Error("accepted NaN query")
	}
}

// TestExactWithFullAlpha checks that α large enough to make the boundary set
// the whole dataset turns SFT exact (the guarantee noted in the paper's
// Section 2.2), on clustered data and on a grid full of distance ties.
func TestExactWithFullAlpha(t *testing.T) {
	for _, data := range []struct {
		name string
		pts  [][]float64
	}{{"clustered", indextest.ClusteredPoints(180, 4, 5, 2)}, {"grid", gridPoints(150, 6)}} {
		pts := data.pts
		truth, err := bruteforce.New(pts, vecmath.Euclidean{})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range backends(t, pts) {
			for _, k := range []int{1, 5} {
				qr, err := NewQuerier(b.ix, Params{K: k, Alpha: float64(len(pts)) / float64(k)})
				if err != nil {
					t.Fatal(err)
				}
				for qid := 0; qid < 25; qid++ {
					got, err := qr.ByID(qid)
					if err != nil {
						t.Fatal(err)
					}
					want, err := truth.RkNNByID(qid, k)
					if err != nil {
						t.Fatal(err)
					}
					if !equalIDs(got.IDs, want) {
						t.Errorf("%s over %s, k=%d qid=%d: got %v, want %v", data.name, b.name, k, qid, got.IDs, want)
					}
				}
			}
		}
	}
}

// TestNoFalsePositives checks SFT precision at any α: the verification count
// is exact, so every reported ID is a true reverse neighbor.
func TestNoFalsePositives(t *testing.T) {
	pts := indextest.RandPoints(200, 5, 3)
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	for _, b := range backends(t, pts) {
		for _, alpha := range []float64{1, 1.5, 2, 4, 8} {
			qr, err := NewQuerier(b.ix, Params{K: k, Alpha: alpha})
			if err != nil {
				t.Fatal(err)
			}
			for qid := 0; qid < 20; qid++ {
				got, err := qr.ByID(qid)
				if err != nil {
					t.Fatal(err)
				}
				want, err := truth.RkNNByID(qid, k)
				if err != nil {
					t.Fatal(err)
				}
				if p := bruteforce.Precision(got.IDs, want); p != 1 {
					t.Errorf("%s, alpha=%g qid=%d: precision %.3f", b.name, alpha, qid, p)
				}
			}
		}
	}
}

// TestRecallMonotoneInAlpha mirrors the paper's time-accuracy tradeoff: a
// larger boundary set can only add answers.
func TestRecallMonotoneInAlpha(t *testing.T) {
	pts := indextest.RandPoints(150, 4, 9)
	ix := newScan(t, pts)
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	k := 5
	for qid := 0; qid < 10; qid++ {
		want, err := truth.RkNNByID(qid, k)
		if err != nil {
			t.Fatal(err)
		}
		prev := -1.0
		for _, alpha := range []float64{1, 2, 4, 8, 16, 30} {
			qr, err := NewQuerier(ix, Params{K: k, Alpha: alpha})
			if err != nil {
				t.Fatal(err)
			}
			got, err := qr.ByID(qid)
			if err != nil {
				t.Fatal(err)
			}
			r := bruteforce.Recall(got.IDs, want)
			if r < prev {
				t.Errorf("qid=%d: recall fell from %.3f to %.3f at alpha=%g", qid, prev, r, alpha)
			}
			prev = r
		}
		if prev != 1 {
			t.Errorf("qid=%d: recall at alpha=30 is %.3f, want 1", qid, prev)
		}
	}
}

// TestDuplicateHeavy checks tie handling: duplicates of the query must be
// reported (they always have the query at forward rank one).
func TestDuplicateHeavy(t *testing.T) {
	base := indextest.RandPoints(50, 3, 4)
	pts := append([][]float64{}, base...)
	for i := 0; i < 5; i++ {
		pts = append(pts, vecmath.Clone(base[0]))
	}
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	k := 2
	want, err := truth.RkNNByID(0, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range backends(t, pts) {
		qr, err := NewQuerier(b.ix, Params{K: k, Alpha: float64(len(pts)) / float64(k)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := qr.ByID(0)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(got.IDs, want) {
			t.Errorf("duplicates over %s: got %v, want %v", b.name, got.IDs, want)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	pts := indextest.RandPoints(120, 3, 8)
	ix := newScan(t, pts)
	qr, err := NewQuerier(ix, Params{K: 5, Alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := qr.ByID(0)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Candidates != 15 {
		t.Errorf("Candidates = %d, want ceil(3*5)=15", st.Candidates)
	}
	if st.FilterRejects+st.Verified != st.Candidates {
		t.Errorf("rejects(%d) + verified(%d) != candidates(%d)", st.FilterRejects, st.Verified, st.Candidates)
	}
}

func equalIDs(a, b []int) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}
