package repro

import (
	"reflect"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/dataset"
	"repro/internal/vecmath"
)

func TestAdaptiveFacade(t *testing.T) {
	pts := dataset.Sequoia(800, 6).Points
	s, err := New(pts, WithAdaptiveScale(), WithScaleMargin(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.Scale() != 0 {
		t.Errorf("adaptive Scale() = %g, want 0 sentinel", s.Scale())
	}
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	var recallSum float64
	const queries = 15
	for qid := 0; qid < queries; qid++ {
		got, err := s.ReverseKNN(qid, 10)
		if err != nil {
			t.Fatal(err)
		}
		want, err := truth.RkNNByID(qid, 10)
		if err != nil {
			t.Fatal(err)
		}
		recallSum += bruteforce.Recall(got, want)
	}
	if mean := recallSum / queries; mean < 0.9 {
		t.Errorf("adaptive facade mean recall %.3f, want >= 0.9", mean)
	}
	if _, err := New(pts, WithAdaptiveScale(), WithScaleMargin(-1)); err == nil {
		t.Error("accepted negative margin with adaptive scale")
	}
}

func TestBatchFacade(t *testing.T) {
	pts := dataset.FCT(600, 7).Points
	s, err := New(pts, WithScale(8))
	if err != nil {
		t.Fatal(err)
	}
	qids := []int{0, 11, 42, 99, 123}
	batch, err := s.BatchReverseKNN(qids, 10, 3)
	if err != nil {
		t.Fatalf("BatchReverseKNN: %v", err)
	}
	if len(batch) != len(qids) {
		t.Fatalf("batch returned %d entries", len(batch))
	}
	for i, qid := range qids {
		seq, err := s.ReverseKNN(qid, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], seq) {
			t.Errorf("qid %d: batch %v, sequential %v", qid, batch[i], seq)
		}
	}
	if _, err := s.BatchReverseKNN([]int{-5}, 10, 2); err == nil {
		t.Error("batch accepted invalid query id")
	}
	if _, err := s.BatchReverseKNN(qids, 10, -1); err == nil {
		t.Error("batch accepted negative workers")
	}
}

// TestConcurrentSearcherUse drives many goroutines through one Searcher to
// back the concurrency-safety claim (run with -race in CI).
func TestConcurrentSearcherUse(t *testing.T) {
	pts := dataset.Sequoia(700, 9).Points
	s, err := New(pts, WithScale(6))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			for i := 0; i < 20; i++ {
				if _, err := s.ReverseKNN((g*37+i)%700, 5); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
