package wire

import "testing"

// The decoders face bytes from the network; they must reject malformed
// frames with an error, never a panic or an unbounded allocation.

func FuzzDecodeRequest(f *testing.F) {
	f.Add(AppendRkNNIDRequest(nil, 3, 5))
	f.Add(AppendRkNNPointRequest(nil, []float64{1, 2.5}, 2))
	f.Add(AppendKNNBatchRequest(nil, []KNNQuery{{Point: []float64{0.5}, K: 3, Skip: -1}}))
	f.Add(AppendPointsRequest(nil, []int{0, 1, 2}))
	f.Add(AppendCountBatchRequest(nil, []CountQuery{{Point: []float64{0.5, 2}, Radius: 0.25, Limit: 3, Skip: 7}}))
	f.Add(AppendNeighborsRequest(nil, []float64{0.5, 2}, 7, Neighbor{ID: 3, Dist: 0.25}, 72))
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeRequest(b)
		if err == nil && req == nil {
			t.Fatal("nil request without error")
		}
		if err == nil && req.Op == OpNeighbors && (req.Count < 1 || req.Count > MaxNeighborRows || req.Skip < -1 || req.After.ID < -1 || !(req.After.Dist >= 0)) {
			t.Fatalf("neighbor request outside its domain decoded: %+v", req)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	f.Add(AppendRkNNResponse(nil, []int{1, 2}, Stats{Omega: 0.5}))
	f.Add(AppendKNNBatchResponse(nil, [][]Neighbor{{{ID: 1, Dist: 0.25}}}))
	f.Add(AppendPointsResponse(nil, [][]float64{{1, 2}, nil}))
	f.Add(AppendCountBatchResponse(nil, []int{0, 3, 1}))
	f.Add(AppendNeighborsResponse(nil, []Neighbor{{ID: 1, Dist: 0.25}, {ID: 4, Dist: 0.5}}, [][]float64{{1, 2}, {0.1, 3}}, true))
	f.Add(AppendError(nil, ErrDeleted, "gone"))
	// The two shapes checkAppend is about: a float32 chunk that lands on used
	// storage of another dimension, and a chunk rejected two thirds through.
	f.Add(AppendNeighborsResponse(nil, []Neighbor{{ID: 0, Dist: 0}, {ID: 2, Dist: 1.5}, {ID: 9, Dist: 1.5}}, [][]float64{{1}, {0.5}, {-2}}, false))
	f.Add(rejectedHalfWay())
	f.Fuzz(func(t *testing.T, b []byte) {
		DecodeRkNNResponse(b)
		DecodeKNNBatchResponse(b)
		DecodePointsResponse(b)
		DecodeCountBatchResponse(b)
		if rows, pts, _, err := DecodeNeighborsResponse(b); err == nil && (len(rows) > MaxNeighborRows || len(pts) != len(rows)) {
			t.Fatalf("neighbor chunk outside its bounds decoded: %d rows, %d points", len(rows), len(pts))
		}
		checkAppend(t, b)
	})
}
