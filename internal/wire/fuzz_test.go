package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// The decoders face bytes from the network; they must reject malformed
// frames with an error, never a panic or an unbounded allocation.

func FuzzDecodeRequest(f *testing.F) {
	f.Add(AppendRkNNIDRequest(nil, 3, 5))
	f.Add(AppendRkNNPointRequest(nil, []float64{1, 2.5}, 2))
	f.Add(AppendKNNBatchRequest(nil, []KNNQuery{{Point: []float64{0.5}, K: 3, Skip: -1}}))
	f.Add(AppendPointsRequest(nil, []int{0, 1, 2}))
	f.Add(AppendCountBatchRequest(nil, []CountQuery{{Point: []float64{0.5, 2}, Radius: 0.25, Limit: 3, Skip: 7}}))
	f.Add(AppendNeighborsRequest(nil, []float64{0.5, 2}, 7, Neighbor{ID: 3, Dist: 0.25}, 72))
	seedGolden(f, ".req")
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
	seedGolden(f, ".resp")
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

// fuzzLimit is the small message bound FuzzReadMessage reads under beside
// the daemon's 16 MiB one, so that declared lengths past a bound are common.
const fuzzLimit = 300

// FuzzReadMessage reads b as a connection's bytes, message by message, under
// a small bound and under the daemon's: a declared length past the bound is
// ErrTooLarge, a body that ends short of its length is an unexpected EOF,
// a message read whole is exactly the bytes declared, and no buffer grows past
// MaxPooled on the peer's word. Each message is then split as a request:
// trace-context fields within MaxTraceField and within the message, and a
// split that succeeds encodes back to the very message.
func FuzzReadMessage(f *testing.F) {
	seedGolden(f, ".msg")
	traced := AppendRequestMessage(nil, strings.Repeat("t", MaxTraceField), strings.Repeat("r", MaxTraceField), AppendPointsRequest(nil, []int{1}))
	f.Add(traced)
	over := bytes.Clone(traced)
	binary.LittleEndian.PutUint16(over[4:], MaxTraceField+1) // past the field bound
	f.Add(over)
	past := AppendRequestMessage(nil, "", "", nil)
	binary.LittleEndian.PutUint16(past[4:], 9) // past the message
	f.Add(past)
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxPooled+1))                         // past MaxPooled, no body
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 1<<31), make([]byte, 64)...))  // past both bounds
	f.Add(AppendResponseMessage(nil, AppendCountBatchResponse(nil, []int{1, 2}))[:9]) // truncated body
	f.Add([]byte{3, 0})                                                               // truncated length
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, limit := range []int{fuzzLimit, 16 << 20} {
			r := bytes.NewReader(b)
			for {
				at := len(b) - r.Len()
				var fr Frame
				err := fr.ReadMessage(r, limit)
				if err == io.EOF {
					break
				}
				if cap(fr.B) > MaxPooled && cap(fr.B) > 2*len(b)+1024 {
					t.Fatalf("a %d-byte input grew a buffer of %d", len(b), cap(fr.B))
				}
				if err != nil {
					if at+4 <= len(b) {
						declared := int(binary.LittleEndian.Uint32(b[at:]))
						if tooLarge := errors.Is(err, ErrTooLarge); tooLarge != (declared > limit) {
							t.Fatalf("declared %d under bound %d: %v", declared, limit, err)
						}
					}
					break
				}
				msg := b[at : len(b)-r.Len()]
				if binary.LittleEndian.Uint32(msg) != uint32(len(fr.B)) || !bytes.Equal(fr.B, msg[4:]) {
					t.Fatalf("message % x read as % x", msg, fr.B)
				}
				tp, rid, frame, err := SplitRequest(fr.B)
				if err != nil {
					continue
				}
				if len(tp) > MaxTraceField || len(rid) > MaxTraceField {
					t.Fatalf("trace fields of %d and %d bytes split", len(tp), len(rid))
				}
				if again := AppendRequestMessage(nil, string(tp), string(rid), frame); !bytes.Equal(again, msg) {
					t.Fatalf("message % x split and joined is % x", msg, again)
				}
				DecodeRequest(frame)
			}
		}
	})
}
