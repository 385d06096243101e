package wire

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden frames freeze the protocol's bytes: one request and one response
// per live op, an error frame, and the stream messages that carry them, each
// way. They were written once by `go test ./internal/wire -run
// TestGoldenFrames -update` and are never regenerated — a change that makes
// them fail changes the format, and needs a new Version, not new files.

var update = flag.Bool("update", false, "write testdata/ from the encoders (once, when a golden frame is added)")

// golden is one frozen file: how the encoders produce it, and how a decoder
// reads it back into bytes (decode, then encode what was decoded).
type golden struct {
	name      string
	encode    func() []byte
	roundTrip func([]byte) ([]byte, error)
}

const goldenTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// Coordinates of both vector encodings: 0.1 needs float64, the rest are
// float32 exactly.
var (
	goldenPoint   = []float64{0.1, -2.5, 1e-3}
	goldenF32     = []float64{0.5, -1.25, 3}
	goldenRows    = []Neighbor{{ID: 4, Dist: 0.25}, {ID: 9, Dist: 0.75}}
	goldenRowPts  = [][]float64{{0.5, -1.25, 3}, {1, 2, 0.125}}
	goldenKNN     = []KNNQuery{{Point: goldenPoint, K: 3, Skip: -1}, {Point: goldenF32, K: 1, Skip: 12}}
	goldenCounts  = []CountQuery{{Point: goldenPoint, Radius: 0.3, Limit: 5, Skip: 7}, {Point: goldenF32, Radius: 1.5, Limit: 1, Skip: -1}}
	goldenStats   = Stats{ScanDepth: 40, FilterSize: 12, Excluded: 20, LazyAccepts: 3, LazyRejects: 4, Verified: 5, DistanceComps: 900, Omega: 0.625}
	goldenNeighbs = func() []byte { return AppendNeighborsRequest(nil, goldenPoint, 7, Neighbor{ID: 4, Dist: 0.25}, 72) }
	goldenNbResp  = func() []byte { return AppendNeighborsResponse(nil, goldenRows, goldenRowPts, false) }
)

// reencodeRequest encodes a decoded request again, with the encoder of its op.
func reencodeRequest(b []byte) ([]byte, error) {
	req, err := DecodeRequest(b)
	if err != nil {
		return nil, err
	}
	switch req.Op {
	case OpRkNN:
		if req.ByID {
			return AppendRkNNIDRequest(nil, req.ID, req.K), nil
		}
		return AppendRkNNPointRequest(nil, req.Point, req.K), nil
	case OpKNNBatch:
		return AppendKNNBatchRequest(nil, req.KNN), nil
	case OpPoints:
		return AppendPointsRequest(nil, req.IDs), nil
	case OpCountBatch:
		return AppendCountBatchRequest(nil, req.Counts), nil
	case OpNeighbors:
		return AppendNeighborsRequest(nil, req.Point, req.Skip, req.After, req.Count), nil
	}
	return nil, errors.New("no encoder for the op")
}

// reencodeRequestMessage reads a request message and writes it again.
func reencodeRequestMessage(b []byte) ([]byte, error) {
	var f Frame
	if err := f.ReadMessage(bytes.NewReader(b), len(b)); err != nil {
		return nil, err
	}
	tp, rid, frame, err := SplitRequest(f.B)
	if err != nil {
		return nil, err
	}
	if frame, err = reencodeRequest(frame); err != nil {
		return nil, err
	}
	return AppendRequestMessage(nil, string(tp), string(rid), frame), nil
}

func goldenFrames() []golden {
	return []golden{
		{"rknn_id.req", func() []byte { return AppendRkNNIDRequest(nil, 42, 10) }, reencodeRequest},
		{"rknn_point.req", func() []byte { return AppendRkNNPointRequest(nil, goldenPoint, 10) }, reencodeRequest},
		{"rknn.resp", func() []byte { return AppendRkNNResponse(nil, []int{3, 17, 40}, goldenStats) }, func(b []byte) ([]byte, error) {
			ids, st, err := DecodeRkNNResponse(b)
			return AppendRkNNResponse(nil, ids, st), err
		}},
		{"knn_batch.req", func() []byte { return AppendKNNBatchRequest(nil, goldenKNN) }, reencodeRequest},
		{"knn_batch.resp", func() []byte { return AppendKNNBatchResponse(nil, [][]Neighbor{goldenRows, nil}) }, func(b []byte) ([]byte, error) {
			lists, err := DecodeKNNBatchResponse(b)
			return AppendKNNBatchResponse(nil, lists), err
		}},
		{"points.req", func() []byte { return AppendPointsRequest(nil, []int{0, 5, 99}) }, reencodeRequest},
		{"points.resp", func() []byte { return AppendPointsResponse(nil, [][]float64{goldenPoint, nil, goldenF32}) }, func(b []byte) ([]byte, error) {
			rows, err := DecodePointsResponse(b)
			return AppendPointsResponse(nil, rows), err
		}},
		{"count_batch.req", func() []byte { return AppendCountBatchRequest(nil, goldenCounts) }, reencodeRequest},
		{"count_batch.resp", func() []byte { return AppendCountBatchResponse(nil, []int{5, 0}) }, func(b []byte) ([]byte, error) {
			counts, err := DecodeCountBatchResponse(b)
			return AppendCountBatchResponse(nil, counts), err
		}},
		{"neighbors.req", goldenNeighbs, reencodeRequest},
		{"neighbors.resp", goldenNbResp, func(b []byte) ([]byte, error) {
			rows, pts, done, err := DecodeNeighborsResponse(b)
			return AppendNeighborsResponse(nil, rows, pts, done), err
		}},
		{"error.resp", func() []byte { return AppendError(nil, ErrDeleted, "point 3 is deleted") }, func(b []byte) ([]byte, error) {
			_, err := DecodeCountBatchResponse(b)
			var re *RemoteError
			if !errors.As(err, &re) {
				return nil, err
			}
			return AppendError(nil, re.Code, re.Msg), nil
		}},
		{"stream_request.msg", func() []byte { return AppendRequestMessage(nil, "", "", goldenNeighbs()) }, reencodeRequestMessage},
		{"stream_request_traced.msg", func() []byte {
			return AppendRequestMessage(nil, goldenTraceparent, "req-7f3a", AppendCountBatchRequest(nil, goldenCounts))
		}, reencodeRequestMessage},
		{"stream_response.msg", func() []byte { return AppendResponseMessage(nil, goldenNbResp()) }, func(b []byte) ([]byte, error) {
			var f Frame
			if err := f.ReadMessage(bytes.NewReader(b), len(b)); err != nil {
				return nil, err
			}
			rows, pts, done, err := DecodeNeighborsResponse(f.B)
			return AppendResponseMessage(nil, AppendNeighborsResponse(nil, rows, pts, done)), err
		}},
	}
}

// readGolden returns the frozen bytes of one file.
func readGolden(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestGoldenFrames holds every frozen file to the encoders — today's encoder
// writes exactly the frozen bytes — and to the decoders: each file decodes,
// and what it decodes to encodes to the same bytes again.
func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames() {
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join("testdata", g.name), g.encode(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want := readGolden(t, g.name)
		if got := g.encode(); !bytes.Equal(got, want) {
			t.Errorf("%s: the encoder writes\n% x\nthe frozen frame is\n% x", g.name, got, want)
		}
		got, err := g.roundTrip(want)
		if err != nil {
			t.Errorf("%s: %v", g.name, err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: decoded and encoded again it is\n% x\nthe frozen frame is\n% x", g.name, got, want)
		}
	}
}

// seedGolden adds the frozen files whose names end in suffix to a fuzzer's
// corpus.
func seedGolden(f *testing.F, suffix string) {
	for _, g := range goldenFrames() {
		if filepath.Ext(g.name) == suffix {
			f.Add(readGolden(f, g.name))
		}
	}
}
