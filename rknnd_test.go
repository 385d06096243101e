package repro

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/dataset"
	"repro/internal/vecmath"
)

func randPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func TestNewDefaults(t *testing.T) {
	pts := dataset.Sequoia(800, 1).Points
	s, err := New(pts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.Len() != 800 || s.Dim() != 2 {
		t.Errorf("Len/Dim = %d/%d", s.Len(), s.Dim())
	}
	if s.Scale() < 1 {
		t.Errorf("auto scale = %g, want >= 1", s.Scale())
	}
	ids, err := s.ReverseKNN(5, 10)
	if err != nil {
		t.Fatalf("ReverseKNN: %v", err)
	}
	for _, id := range ids {
		if id == 5 {
			t.Error("query member returned in its own result")
		}
	}
}

func TestOptionsAndValidation(t *testing.T) {
	pts := randPoints(200, 3, 2)
	if _, err := New(pts, WithMetric(nil)); err == nil {
		t.Error("accepted nil metric")
	}
	if _, err := New(pts, WithBackend("nosuch")); err == nil {
		t.Error("accepted unknown back-end")
	}
	if _, err := New(pts, WithScale(-1)); err == nil {
		t.Error("accepted negative scale")
	}
	if _, err := New(pts, WithAutoScale("nosuch")); err == nil {
		t.Error("accepted unknown estimator")
	}
	if _, err := New(nil); err == nil {
		t.Error("accepted empty dataset")
	}
	s, err := New(pts, WithScale(6), WithBackend(BackendScan), WithMetric(Manhattan))
	if err != nil {
		t.Fatalf("New with options: %v", err)
	}
	if s.Scale() != 6 {
		t.Errorf("Scale = %g, want 6", s.Scale())
	}
}

// TestHighScaleMatchesBruteforce checks that a generous scale parameter
// yields exact results through the facade.
func TestHighScaleMatchesBruteforce(t *testing.T) {
	pts := randPoints(300, 4, 3)
	s, err := New(pts, WithScale(64), WithPlainRDT())
	if err != nil {
		t.Fatal(err)
	}
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	for qid := 0; qid < 20; qid++ {
		got, err := s.ReverseKNN(qid, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := truth.RkNNByID(qid, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(got, want) {
			t.Errorf("qid=%d: got %v, want %v", qid, got, want)
		}
	}
}

func TestReverseKNNPointAndStats(t *testing.T) {
	pts := randPoints(300, 3, 5)
	s, err := New(pts, WithScale(8))
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.ReverseKNNPoint([]float64{0.5, 0.5, 0.5}, 8)
	if err != nil {
		t.Fatalf("ReverseKNNPoint: %v", err)
	}
	if len(ids) == 0 {
		t.Error("central query found no reverse neighbors")
	}
	if _, err := s.ReverseKNNPoint([]float64{1}, 3); err == nil {
		t.Error("accepted dimension mismatch")
	}
	_, st, err := s.ReverseKNNStats(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.ScanDepth == 0 || st.FilterSize == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

func TestKNNFacade(t *testing.T) {
	pts := randPoints(100, 2, 7)
	s, err := New(pts, WithScale(4), WithBackend(BackendScan))
	if err != nil {
		t.Fatal(err)
	}
	nn, err := s.KNN(pts[3], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 5 {
		t.Fatalf("KNN returned %d", len(nn))
	}
	if nn[0].ID != 3 || nn[0].Dist != 0 {
		t.Errorf("nearest to a member should be itself: %+v", nn[0])
	}
	if _, err := s.KNN([]float64{math.NaN(), 0}, 3); err == nil {
		t.Error("accepted NaN query")
	}
}

func TestDynamicFacade(t *testing.T) {
	pts := randPoints(100, 2, 9)
	s, err := New(pts, WithScale(6))
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Insert([]float64{0.5, 0.5})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if id != 100 {
		t.Errorf("Insert id = %d", id)
	}
	ok, err := s.Delete(0)
	if err != nil || !ok {
		t.Fatalf("Delete = (%v, %v)", ok, err)
	}
}

func TestEstimatorChoices(t *testing.T) {
	pts := dataset.FCT(900, 4).Points
	for _, e := range []Estimator{EstimatorMLE, EstimatorGP, EstimatorTakens} {
		s, err := New(pts, WithAutoScale(e), WithScaleMargin(1))
		if err != nil {
			t.Fatalf("New(%s): %v", e, err)
		}
		// The FCT surrogate has intrinsic dimension near 4; with the
		// +1 margin the chosen scale should land in a sane band.
		if s.Scale() < 2 || s.Scale() > 12 {
			t.Errorf("estimator %s chose scale %.2f", e, s.Scale())
		}
	}
}

func equalIDs(a, b []int) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}
