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
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeRequest(b)
		if err == nil && req == nil {
			t.Fatal("nil request without error")
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	f.Add(AppendRkNNResponse(nil, []int{1, 2}, Stats{Omega: 0.5}))
	f.Add(AppendKNNBatchResponse(nil, [][]Neighbor{{{ID: 1, Dist: 0.25}}}))
	f.Add(AppendPointsResponse(nil, [][]float64{{1, 2}, nil}))
	f.Add(AppendCountBatchResponse(nil, []int{0, 3, 1}))
	f.Add(AppendError(nil, ErrDeleted, "gone"))
	f.Fuzz(func(t *testing.T, b []byte) {
		DecodeRkNNResponse(b)
		DecodeKNNBatchResponse(b)
		DecodePointsResponse(b)
		DecodeCountBatchResponse(b)
	})
}
