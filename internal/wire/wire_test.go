package wire

import (
	"math"
	"reflect"
	"testing"
)

func TestRkNNRequestRoundTrip(t *testing.T) {
	b := AppendRkNNIDRequest(nil, 42, 7)
	req, err := DecodeRequest(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if req.Op != OpRkNN || !req.ByID || req.ID != 42 || req.K != 7 {
		t.Fatalf("round trip mismatch: %+v", req)
	}

	q := []float64{1.5, -2.25, 0, math.Pi}
	b = AppendRkNNPointRequest(nil, q, 3)
	req, err = DecodeRequest(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if req.Op != OpRkNN || req.ByID || req.K != 3 || !reflect.DeepEqual(req.Point, q) {
		t.Fatalf("round trip mismatch: %+v", req)
	}
}

func TestVecEncodingExactness(t *testing.T) {
	cases := [][]float64{
		{1, 2, 3},                   // lossless float32
		{0.5, -0.25, 1024},          // lossless float32
		{math.Pi, 0.1},              // needs float64
		{math.Copysign(0, -1), 0},   // signed zero survives float32
		{1e300, -1e-300},            // out of float32 range
		{math.Inf(1), math.Inf(-1)}, // infinities survive float32
		{},                          // empty
		{math.Nextafter(1, 2)},      // 1+ulp needs float64
	}
	for _, q := range cases {
		b := AppendVec(nil, q)
		r := &reader{b: b}
		got := r.vec()
		if err := r.done(); err != nil {
			t.Fatalf("vec %v: %v", q, err)
		}
		if len(got) != len(q) {
			t.Fatalf("vec %v: got %v", q, got)
		}
		for i := range q {
			if math.Float64bits(got[i]) != math.Float64bits(q[i]) {
				t.Fatalf("vec %v: coordinate %d not bit-identical: got %v", q, i, got[i])
			}
		}
	}
}

func TestKNNBatchRoundTrip(t *testing.T) {
	qs := []KNNQuery{
		{Point: []float64{1, 2}, K: 5, Skip: -1},
		{Point: []float64{0.1, 0.2}, K: 1, Skip: 17},
	}
	req, err := DecodeRequest(AppendKNNBatchRequest(nil, qs))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if req.Op != OpKNNBatch || !reflect.DeepEqual(req.KNN, qs) {
		t.Fatalf("round trip mismatch: %+v", req.KNN)
	}
	// A K past the 32-bit field saturates instead of wrapping to a small
	// (or zero) K: it still asks for every row a shard can hold.
	req, err = DecodeRequest(AppendKNNBatchRequest(nil, []KNNQuery{{Point: []float64{1}, K: 1<<32 + 1, Skip: -1}}))
	if err != nil || req.KNN[0].K != math.MaxUint32 {
		t.Fatalf("K = 2^32+1 decoded as %+v (err %v), want K = %d", req.KNN, err, uint32(math.MaxUint32))
	}

	lists := [][]Neighbor{
		{{ID: 3, Dist: 0.5}, {ID: 9, Dist: 1.25}},
		{},
	}
	got, err := DecodeKNNBatchResponse(AppendKNNBatchResponse(nil, lists))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != 2 || !reflect.DeepEqual(got[0], lists[0]) || len(got[1]) != 0 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestCountBatchRoundTrip(t *testing.T) {
	qs := []CountQuery{
		{Point: []float64{1, 2}, Radius: 0.75, Limit: 5, Skip: -1},
		{Point: []float64{0.1, 0.2}, Radius: 0, Limit: 1, Skip: 17},
		{Point: []float64{3, 4}, Radius: math.Inf(1), Limit: math.MaxInt32, Skip: math.MaxInt32},
	}
	req, err := DecodeRequest(AppendCountBatchRequest(nil, qs))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if req.Op != OpCountBatch || !reflect.DeepEqual(req.Counts, qs) {
		t.Fatalf("round trip mismatch: %+v", req.Counts)
	}
	// A limit past the field's width saturates at the decoder's bound, which
	// no shard's ID span exceeds: it still counts every row.
	req, err = DecodeRequest(AppendCountBatchRequest(nil, []CountQuery{{Point: []float64{1}, Radius: 1, Limit: 1<<32 + 1, Skip: -1}}))
	if err != nil || req.Counts[0].Limit != math.MaxInt32 {
		t.Fatalf("limit 2^32+1: %+v, %v", req, err)
	}
	// The radius is a distance the coordinator computed and the shard
	// compares strictly against: it must arrive bit for bit.
	odd := math.Nextafter(0.1, 1)
	req, err = DecodeRequest(AppendCountBatchRequest(nil, []CountQuery{{Point: []float64{0.1}, Radius: odd, Limit: 2, Skip: -1}}))
	if err != nil || math.Float64bits(req.Counts[0].Radius) != math.Float64bits(odd) {
		t.Fatalf("radius bits changed in transit: %v, %v", req, err)
	}

	counts := []int{0, 3, math.MaxInt32}
	got, err := DecodeCountBatchResponse(AppendCountBatchResponse(nil, counts))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, counts) {
		t.Fatalf("round trip mismatch: %v", got)
	}
	if got, err := DecodeCountBatchResponse(AppendCountBatchResponse(nil, nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %v", got, err)
	}
}

// TestCountBatchBounds pins the size limits of the count op: the probe
// count and the vector dimension are checked against the bytes actually
// present before anything is allocated, and limit, skip, radius and the
// returned counts must lie in their domains.
func TestCountBatchBounds(t *testing.T) {
	one := func(limit uint32, skip int64, radius float64) []byte {
		b := []byte{Version, byte(OpCountBatch)}
		b = appendU32(b, 1)
		b = appendU32(b, limit)
		b = appendU64(b, uint64(skip))
		b = appendU64(b, math.Float64bits(radius))
		return AppendVec(b, []float64{1})
	}
	if _, err := DecodeRequest(one(3, -1, 0.5)); err != nil {
		t.Fatalf("well-formed probe rejected: %v", err)
	}
	hugeDim := append([]byte{Version, byte(OpCountBatch)}, 1, 0, 0, 0)
	hugeDim = appendU32(hugeDim, 1)
	hugeDim = appendU64(hugeDim, uint64(0))
	hugeDim = appendU64(hugeDim, math.Float64bits(1))
	hugeDim = append(hugeDim, vecF64, 0xFF, 0xFF, 0xFF, 0xFF)
	requests := map[string][]byte{
		"huge probe count": {Version, byte(OpCountBatch), 0xFF, 0xFF, 0xFF, 0xFF},
		"count over frame": append([]byte{Version, byte(OpCountBatch), 2, 0, 0, 0}, one(1, -1, 1)[6:]...),
		"huge dim":         hugeDim,
		"limit over int32": one(math.MaxInt32+1, -1, 0.5),
		"skip below -1":    one(3, -2, 0.5),
		"skip over int32":  one(3, math.MaxInt32+1, 0.5),
		"negative radius":  one(3, -1, -0.5),
		"NaN radius":       one(3, -1, math.NaN()),
		"truncated probe":  one(3, -1, 0.5)[:20],
		"trailing bytes":   append(one(3, -1, 0.5), 0),
	}
	for name, b := range requests {
		if _, err := DecodeRequest(b); err == nil {
			t.Errorf("request %s: expected decode error", name)
		}
	}
	responses := map[string][]byte{
		"huge count":       {Version, 0, 0xFF, 0xFF, 0xFF, 0xFF},
		"count over int32": {Version, 0, 1, 0, 0, 0, 0, 0, 0, 0x80},
		"truncated":        {Version, 0, 2, 0, 0, 0, 1, 0, 0, 0},
		"trailing bytes":   append(AppendCountBatchResponse(nil, []int{1}), 0),
	}
	for name, b := range responses {
		if _, err := DecodeCountBatchResponse(b); err == nil {
			t.Errorf("response %s: expected decode error", name)
		}
	}
	// An error frame — what a daemon sends for a bad probe — surfaces as
	// RemoteError, not as counts.
	_, err := DecodeCountBatchResponse(AppendError(nil, ErrBadRequest, "probe 0: query dimension 1, index dimension 2"))
	if re, ok := err.(*RemoteError); !ok || re.Code != ErrBadRequest {
		t.Fatalf("want RemoteError(bad request), got %#v", err)
	}
}

func TestNeighborsRoundTrip(t *testing.T) {
	q := []float64{0.1, 2, -3.5}
	odd := math.Nextafter(0.3, 1)
	for _, after := range []Neighbor{{ID: -1}, {ID: 17, Dist: odd}, {ID: math.MaxInt32, Dist: math.Inf(1)}} {
		for _, skip := range []int{-1, 0, 42} {
			for _, count := range []int{1, 72, MaxNeighborRows} {
				req, err := DecodeRequest(AppendNeighborsRequest(nil, q, skip, after, count))
				if err != nil {
					t.Fatalf("decode(skip=%d after=%+v count=%d): %v", skip, after, count, err)
				}
				// The resume key is a distance the shard computed and
				// compares against: it must arrive bit for bit.
				if req.Op != OpNeighbors || req.Skip != skip || req.Count != count || req.After.ID != after.ID ||
					math.Float64bits(req.After.Dist) != math.Float64bits(after.Dist) || !reflect.DeepEqual(req.Point, q) {
					t.Fatalf("round trip mismatch: %+v", req)
				}
			}
		}
	}

	rows := []Neighbor{{ID: 4, Dist: 0}, {ID: 9, Dist: odd}, {ID: 2, Dist: 7.5}}
	for name, pts := range map[string][][]float64{
		"float32-lossless": {{1, 2}, {0.5, -0.25}, {1024, 0}},
		"float64":          {{1, 2}, {math.Pi, 0.1}, {1024, 0}},
	} {
		for _, done := range []bool{false, true} {
			b := AppendNeighborsResponse(nil, rows, pts, done)
			gotRows, gotPts, gotDone, err := DecodeNeighborsResponse(b)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if !reflect.DeepEqual(gotRows, rows) || !reflect.DeepEqual(gotPts, pts) || gotDone != done {
				t.Fatalf("%s: round trip mismatch: %v %v %v", name, gotRows, gotPts, gotDone)
			}
		}
	}
	if b := AppendNeighborsResponse(nil, rows, [][]float64{{1, 2}, {0.5, -0.25}, {1024, 0}}, false); len(b) >= len(AppendNeighborsResponse(nil, rows, [][]float64{{1, 2}, {math.Pi, 0.1}, {1024, 0}}, false)) {
		t.Error("float32-lossless chunk is not smaller than the float64 one")
	}
	gotRows, gotPts, done, err := DecodeNeighborsResponse(AppendNeighborsResponse(nil, nil, nil, true))
	if err != nil || len(gotRows) != 0 || len(gotPts) != 0 || !done {
		t.Fatalf("empty final chunk: %v %v %v %v", gotRows, gotPts, done, err)
	}
}

// TestNeighborsBounds pins the limits of the neighbor-stream op against
// hostile shapes: the row count is capped on both sides and checked against
// the bytes present before anything is allocated, and count, skip and the
// resume key must lie in their domains.
func TestNeighborsBounds(t *testing.T) {
	req := func(count uint32, skip, afterID int64, afterDist float64) []byte {
		b := []byte{Version, byte(OpNeighbors)}
		b = appendU32(b, count)
		b = appendU64(b, uint64(skip))
		b = appendU64(b, uint64(afterID))
		b = appendU64(b, math.Float64bits(afterDist))
		return AppendVec(b, []float64{1, 2})
	}
	if _, err := DecodeRequest(req(8, -1, -1, 0)); err != nil {
		t.Fatalf("well-formed request rejected: %v", err)
	}
	requests := map[string][]byte{
		"zero count":          req(0, -1, -1, 0),
		"count over cap":      req(MaxNeighborRows+1, -1, -1, 0),
		"count over int32":    req(math.MaxInt32+1, -1, -1, 0),
		"skip below -1":       req(8, -2, -1, 0),
		"skip over int32":     req(8, math.MaxInt32+1, -1, 0),
		"resume id below -1":  req(8, -1, -2, 0),
		"resume id too large": req(8, -1, math.MaxInt32+1, 0),
		"negative resume":     req(8, -1, 3, -0.5),
		"NaN resume":          req(8, -1, 3, math.NaN()),
		"truncated":           req(8, -1, -1, 0)[:20],
		"trailing bytes":      append(req(8, -1, -1, 0), 0),
	}
	for name, b := range requests {
		if _, err := DecodeRequest(b); err == nil {
			t.Errorf("request %s: expected decode error", name)
		}
	}

	good := AppendNeighborsResponse(nil, []Neighbor{{ID: 1, Dist: 0.5}}, [][]float64{{1, 2}}, false)
	patch := func(at int, v ...byte) []byte {
		b := append([]byte(nil), good...)
		copy(b[at:], v)
		return b
	}
	over := []byte{Version, 0}
	over = appendU32(over, MaxNeighborRows+1)
	over = append(over, make([]byte, 1+16*(MaxNeighborRows+1)+5)...)
	responses := map[string][]byte{
		"huge row count":    {Version, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0},
		"rows over cap":     over,
		"bad done byte":     patch(6, 2),
		"NaN distance":      patch(7, 0, 0, 0, 0, 0, 0, 0xF8, 0x7F),
		"negative distance": patch(7, 0, 0, 0, 0, 0, 0, 0xE0, 0xBF),
		"id over int32":     patch(15, 0, 0, 0, 0, 1),
		"bad vec encoding":  patch(23, 9),
		"dim over frame":    patch(24, 0xFF, 0xFF, 0xFF, 0xFF),
		"dim times rows":    patch(24, 3),
		"truncated":         good[:len(good)-1],
		"trailing bytes":    append(append([]byte(nil), good...), 0),
	}
	for name, b := range responses {
		if _, _, _, err := DecodeNeighborsResponse(b); err == nil {
			t.Errorf("response %s: expected decode error", name)
		}
	}
	// A daemon that does not know the op answers with an error frame; it
	// surfaces as RemoteError, not as rows.
	_, _, _, err := DecodeNeighborsResponse(AppendError(nil, ErrBadRequest, "unknown op 5"))
	if re, ok := err.(*RemoteError); !ok || re.Code != ErrBadRequest {
		t.Fatalf("want RemoteError(bad request), got %#v", err)
	}
}

func TestPointsRoundTrip(t *testing.T) {
	req, err := DecodeRequest(AppendPointsRequest(nil, []int{0, 5, 2}))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if req.Op != OpPoints || !reflect.DeepEqual(req.IDs, []int{0, 5, 2}) {
		t.Fatalf("round trip mismatch: %+v", req)
	}

	rows := [][]float64{{1, 2}, nil, {math.Pi}}
	got, err := DecodePointsResponse(AppendPointsResponse(nil, rows))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestRkNNResponseRoundTrip(t *testing.T) {
	st := Stats{
		ScanDepth: 10, FilterSize: 4, Excluded: 2, LazyAccepts: 1,
		LazyRejects: 3, Verified: 4, DistanceComps: 123, Omega: 0.75,
	}
	ids, got, err := DecodeRkNNResponse(AppendRkNNResponse(nil, []int{7, 1, 9}, st))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(ids, []int{7, 1, 9}) || got != st {
		t.Fatalf("round trip mismatch: %v %+v", ids, got)
	}

	// Empty result with an infinite bound — the empty-shard case JSON
	// cannot represent.
	st = Stats{Omega: math.Inf(1)}
	ids, got, err = DecodeRkNNResponse(AppendRkNNResponse(nil, nil, st))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(ids) != 0 || !math.IsInf(got.Omega, 1) {
		t.Fatalf("round trip mismatch: %v %+v", ids, got)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	b := AppendError(nil, ErrDeleted, "query id is deleted")
	_, _, err := DecodeRkNNResponse(b)
	re, ok := err.(*RemoteError)
	if !ok || re.Code != ErrDeleted || re.Msg != "query id is deleted" {
		t.Fatalf("want RemoteError(deleted), got %#v", err)
	}
	if _, err := DecodeKNNBatchResponse(b); err == nil {
		t.Fatal("error frame must fail every response decoder")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"bad version":      {9, byte(OpRkNN), 0, 1, 0, 0, 0},
		"unknown op":       {Version, 99},
		"truncated rknn":   AppendRkNNIDRequest(nil, 1, 2)[:5],
		"trailing bytes":   append(AppendPointsRequest(nil, []int{1}), 0xFF),
		"huge count":       {Version, byte(OpPoints), 0xFF, 0xFF, 0xFF, 0xFF},
		"huge dim":         {Version, byte(OpRkNN), 0, 1, 0, 0, 0, vecF64, 0xFF, 0xFF, 0xFF, 0xFF},
		"bad vec encoding": {Version, byte(OpRkNN), 0, 1, 0, 0, 0, 7, 0, 0, 0, 0},
	}
	for name, b := range cases {
		if _, err := DecodeRequest(b); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
	if _, _, err := DecodeRkNNResponse([]byte{Version, 0, 1, 0, 0, 0}); err == nil {
		t.Error("truncated rknn response: expected decode error")
	}
	if _, err := DecodePointsResponse([]byte{Version, 0, 1, 0, 0, 0, 9}); err == nil {
		t.Error("bad presence byte: expected decode error")
	}
	if _, _, err := DecodeRkNNResponse([]byte{Version, 2, 5, 0, 'h', 'i'}); err == nil {
		t.Error("truncated error message: expected decode error")
	}
}
