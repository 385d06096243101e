package index_test

import (
	"testing"

	"repro/internal/scan"
	"repro/internal/vecmath"
)

// TestNeighborOrderingContract documents the tie-breaking contract: results
// are sorted by distance, and the SET of members at each tied distance is
// deterministic, but the order among exact ties is unspecified (the bounded
// kNN heaps keep ties in heap order). Cursors additionally order ties by
// ascending ID.
func TestNeighborOrderingContract(t *testing.T) {
	pts := [][]float64{{5}, {3}, {3}, {3}, {8}}
	ix, err := scan.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	nn := ix.KNN([]float64{3}, 3, -1)
	want := map[int]bool{1: true, 2: true, 3: true}
	for _, nb := range nn {
		if nb.Dist != 0 || !want[nb.ID] {
			t.Errorf("KNN tie member %+v, want ids {1,2,3} at distance 0", nb)
		}
		delete(want, nb.ID)
	}
	if len(want) != 0 {
		t.Errorf("KNN missed tied ids %v", want)
	}
	// Cursor ties come back in ID order.
	cur := ix.NewCursor([]float64{3}, -1)
	for _, wantID := range []int{1, 2, 3} {
		nb, ok := cur.Next()
		if !ok || nb.ID != wantID {
			t.Errorf("cursor tie: got %+v, want id %d", nb, wantID)
		}
	}
}
