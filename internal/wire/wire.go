// Package wire is the compact binary framing of the scatter-gather fan-out
// protocol: the one encoding a coordinator speaks to `rknn shard-serve`
// daemons. Its frames are deliberately tiny: one version byte, one op byte,
// then fixed-width little-endian fields — the same byte conventions as
// internal/persist, so a hex dump of either reads alike. Two exchanges carry
// them to internal/server's /v1/binary: stream messages on a connection that
// GET upgraded (Upgrade: rknn-frame), one exchange at a time, which is how a
// coordinator reads (Client); and one frame per POST body, for a daemon that
// refuses the upgrade (Do).
//
// Stream message layout (all integers little-endian):
//
//	request  := len u32, traceparent, request-id, frame
//	response := len u32, frame
//
//	len         the byte length of what follows it
//	traceparent u16-len + bytes (0 when absent; at most MaxTraceField)
//	request-id  u16-len + bytes (0 when absent; at most MaxTraceField)
//	frame       one frame as below, byte-identical to the POST body
//
// Frame layout (all integers little-endian):
//
//	request  := version u8, op u8, payload
//	response := version u8, status u8, payload
//
//	op 1 (rknn)      flags u8 (bit0 byID), k u32, id u64 | vec
//	op 2 (knn batch) count u32, { k u32, skip i64, vec } × count
//	op 3 (points)    count u32, id u64 × count
//	op 4 (count)     count u32, { limit u32, skip i64, radius f64-bits, vec } × count
//	op 5 (neighbors) count u32, skip i64, after-id i64, after-dist f64-bits, vec
//
//	status 0 (ok)    op-specific payload (below)
//	status ≠0        error: code is the status byte, msg u16-len + bytes
//
//	rknn ok      n u32, id u64 × n, stats (7 × u64, omega f64-bits)
//	knn ok       count u32, { n u32, (dist f64-bits, id u64) × n } × count
//	points ok    count u32, { present u8, vec if present } × count
//	count ok     count u32, n u32 × count
//	neighbors ok n u32, done u8, (dist f64-bits, id u64) × n, enc u8, dim u32, coords × n
//
//	vec := enc u8 (0 float64, 1 float32), dim u32, coords
//
// Vectors use a dual encoding: the encoder emits float32 coordinates only
// when every coordinate round-trips through float32 losslessly, and falls
// back to float64 otherwise. The engine computes in float64 end to end, so
// an unconditional float32 wire format would break the metamorphic
// byte-identity guarantee across transports; the flag byte keeps the
// compact form for data that genuinely is float32 while never rounding
// anything. Result rows and count radii carry float64 distances for the same
// reason: the coordinator's k-way merge orders by (distance, ID), and a
// shard's strict count compares against d(q,x), so both sides must see
// exactly the bits the other computed. The rows of a neighbor-stream chunk
// share one encoding byte and one dimension, so a chunk decodes into a single
// backing array.
//
// Decoders are fuzzed (FuzzDecodeRequest/FuzzDecodeResponse, and
// FuzzReadMessage for the stream's messages): every count and length is
// validated against the remaining frame length or its bound before
// allocation, and malformed input yields an error, never a panic. The bytes
// of every live op, each way, and of the stream messages are frozen in
// testdata/ (TestGoldenFrames).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/index"
)

// ContentType is the media type of both request and response frames.
// internal/server rejects /v1/binary posts with any other Content-Type
// (415) before touching the decoder.
const ContentType = "application/x-rknn-frame"

// Version is the only frame version in existence. A version bump means the
// byte layout changed incompatibly; decoders reject anything else.
const Version = 1

// Op selects the operation of a request frame.
type Op uint8

// Request operations. OpRkNN answers one reverse-kNN query (by local
// member ID or by point) with the shard's work counters; OpKNNBatch
// answers many forward-kNN probes, each with an optional excluded member,
// against one pinned snapshot; OpPoints resolves member IDs to
// coordinates; OpCountBatch answers many bounded strict range counts — the
// verification probes of a scattered RkNN query — with one small integer
// each; OpNeighbors returns one chunk of the shard's forward neighbor stream
// from a point — (local ID, distance, coordinates) rows in ascending
// (distance, ID) order, starting after a resume key — which is what a
// coordinator merges across shards to run the RkNN algorithm itself.
const (
	OpRkNN       Op = 1
	OpKNNBatch   Op = 2
	OpPoints     Op = 3
	OpCountBatch Op = 4
	OpNeighbors  Op = 5
)

// MaxNeighborRows caps the rows of one neighbor-stream chunk, on both sides:
// a request asking for more is malformed, and so is a response carrying
// more. At d=784 in float64 a full chunk is 25 MB, inside the response bound
// the remote client reads under.
const MaxNeighborRows = 4096

// ErrCode classifies an error response so the coordinator can map remote
// failures onto the same sentinel errors the in-process engine returns.
type ErrCode uint8

// Error codes carried in the response status byte.
const (
	ErrBadRequest  ErrCode = 1 // invalid arguments (dimension, rank, range)
	ErrDeleted     ErrCode = 2 // member query anchored at a tombstoned point
	ErrUnsupported ErrCode = 3 // the engine lacks the required surface
	ErrInternal    ErrCode = 4 // anything else
)

// RemoteError is a decoded error response: the shard answered, but with an
// application-level failure.
type RemoteError struct {
	Code ErrCode
	Msg  string
}

func (e *RemoteError) Error() string { return e.Msg }

// Stats mirrors the engine's per-query work counters on the wire. The
// package cannot import the repro facade (the facade's remote client
// imports this package), so the fields are restated here; the coordinator
// converts.
type Stats struct {
	ScanDepth     int
	FilterSize    int
	Excluded      int
	LazyAccepts   int
	LazyRejects   int
	Verified      int
	DistanceComps int64
	Omega         float64
}

// Neighbor is one (distance, local ID) result row of a forward-kNN probe or
// a neighbor stream — the index contract's own row type, so neither side of
// the wire converts.
type Neighbor = index.Neighbor

// KNNQuery is one forward-kNN probe of a batch: the query point, the rank,
// and an optional local member ID to exclude (-1 for none). The explicit
// skip exists because "fetch k+1 and drop the member" is not equivalent
// under duplicate-point distance ties — the backend's tie-breaking could
// settle the truncation differently than in-process self-exclusion does,
// breaking byte-identity.
type KNNQuery struct {
	Point []float64
	K     int
	Skip  int
}

// CountQuery is one verification probe of a count batch: how many live
// points lie strictly closer to Point than Radius, not counting local member
// Skip (-1 for none), counted no further than Limit. The shard's share of
// the refinement test d_k(x) ≥ d(q,x) is exactly this number for Point = x,
// Radius = d(q,x), Limit = k.
type CountQuery = index.CountQuery

// Request is a decoded request frame; exactly the field named by Op is
// populated.
type Request struct {
	Op Op

	// OpRkNN: ByID selects the member form (ID is a local member ID);
	// otherwise Point is the query point. K is the reverse-neighbor rank.
	ByID  bool
	ID    int
	Point []float64
	K     int

	// OpKNNBatch
	KNN []KNNQuery

	// OpPoints
	IDs []int

	// OpCountBatch
	Counts []CountQuery

	// OpNeighbors: up to Count rows of the neighbor stream from Point with
	// local member Skip excluded (-1 for none), starting after the row After
	// in (distance, ID) order; After.ID -1 starts at the nearest.
	Skip  int
	Count int
	After Neighbor
}

// Vector encodings: the enc byte of a vec.
const (
	vecF64 = 0
	vecF32 = 1
)

// statsSize is the fixed byte length of an encoded stats block.
const statsSize = 8 * 8

const rknnFlagByID = 1

// --- encoding ---

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// float32Lossless reports whether v survives a round trip through float32.
func float32Lossless(v float64) bool {
	return float64(float32(v)) == v || math.IsNaN(v)
}

// vecEncoding picks the encoding of the coordinates of ps — float32 only when
// every one of them survives it — and returns it with the byte size of one
// coordinate under it.
func vecEncoding(ps ...[]float64) (enc byte, size int) {
	for _, p := range ps {
		for _, v := range p {
			if !float32Lossless(v) {
				return vecF64, 8
			}
		}
	}
	return vecF32, 4
}

// vecSize is the encoded length of p.
func vecSize(p []float64) int {
	_, size := vecEncoding(p)
	return 1 + 4 + len(p)*size
}

// appendCoords encodes coordinates under enc: room for all of them is made
// once and the values are stored in place, not appended one capacity check
// at a time.
func appendCoords(dst []byte, enc byte, p []float64) []byte {
	n := len(dst)
	if enc == vecF32 {
		dst = slices.Grow(dst, 4*len(p))[:n+4*len(p)]
		for i, v := range p {
			binary.LittleEndian.PutUint32(dst[n+4*i:], math.Float32bits(float32(v)))
		}
		return dst
	}
	dst = slices.Grow(dst, 8*len(p))[:n+8*len(p)]
	for i, v := range p {
		binary.LittleEndian.PutUint64(dst[n+8*i:], math.Float64bits(v))
	}
	return dst
}

// AppendVec encodes one vector with the dual float32/float64 encoding.
func AppendVec(dst []byte, p []float64) []byte {
	enc, size := vecEncoding(p)
	dst = slices.Grow(dst, 1+4+len(p)*size)
	dst = append(dst, enc)
	dst = appendU32(dst, uint32(len(p)))
	return appendCoords(dst, enc, p)
}

// AppendRkNNIDRequest encodes an OpRkNN request anchored at local member id.
func AppendRkNNIDRequest(dst []byte, id, k int) []byte {
	dst = append(dst, Version, byte(OpRkNN), rknnFlagByID)
	dst = appendU32(dst, uint32(k))
	return appendU64(dst, uint64(id))
}

// AppendRkNNPointRequest encodes an OpRkNN request for an arbitrary point.
func AppendRkNNPointRequest(dst []byte, q []float64, k int) []byte {
	dst = append(dst, Version, byte(OpRkNN), 0)
	dst = appendU32(dst, uint32(k))
	return AppendVec(dst, q)
}

// AppendKNNBatchRequest encodes an OpKNNBatch request.
func AppendKNNBatchRequest(dst []byte, qs []KNNQuery) []byte {
	dst = append(dst, Version, byte(OpKNNBatch))
	dst = appendU32(dst, uint32(len(qs)))
	for _, q := range qs {
		// K saturates at the field's width: no shard holds 2^32 IDs (the
		// summed spans fit an int32), so MaxUint32 still asks for every row.
		dst = appendU32(dst, uint32(min(uint64(q.K), math.MaxUint32)))
		dst = appendU64(dst, uint64(int64(q.Skip)))
		dst = AppendVec(dst, q.Point)
	}
	return dst
}

// AppendCountBatchRequest encodes an OpCountBatch request.
func AppendCountBatchRequest(dst []byte, qs []CountQuery) []byte {
	size := 2 + 4
	for _, q := range qs {
		size += 4 + 8 + 8 + vecSize(q.Point)
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, Version, byte(OpCountBatch))
	dst = appendU32(dst, uint32(len(qs)))
	for _, q := range qs {
		// Limit saturates at the decoder's bound: no shard holds more than
		// math.MaxInt32 IDs (checkIDSpan), so the bound still counts them all.
		dst = appendU32(dst, uint32(min(q.Limit, math.MaxInt32)))
		dst = appendU64(dst, uint64(int64(q.Skip)))
		dst = appendU64(dst, math.Float64bits(q.Radius))
		dst = AppendVec(dst, q.Point)
	}
	return dst
}

// AppendNeighborsRequest encodes an OpNeighbors request (see Request).
func AppendNeighborsRequest(dst []byte, q []float64, skip int, after Neighbor, count int) []byte {
	dst = slices.Grow(dst, 2+4+8+8+8+vecSize(q))
	dst = append(dst, Version, byte(OpNeighbors))
	dst = appendU32(dst, uint32(count))
	dst = appendU64(dst, uint64(int64(skip)))
	dst = appendU64(dst, uint64(int64(after.ID)))
	dst = appendU64(dst, math.Float64bits(after.Dist))
	return AppendVec(dst, q)
}

// AppendPointsRequest encodes an OpPoints request.
func AppendPointsRequest(dst []byte, ids []int) []byte {
	dst = append(dst, Version, byte(OpPoints))
	dst = appendU32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = appendU64(dst, uint64(id))
	}
	return dst
}

// AppendError encodes an error response.
func AppendError(dst []byte, code ErrCode, msg string) []byte {
	if code == 0 {
		code = ErrInternal
	}
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	dst = append(dst, Version, byte(code))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// AppendRkNNResponse encodes a successful OpRkNN response.
func AppendRkNNResponse(dst []byte, ids []int, st Stats) []byte {
	dst = append(dst, Version, 0)
	dst = appendU32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = appendU64(dst, uint64(id))
	}
	dst = appendU64(dst, uint64(st.ScanDepth))
	dst = appendU64(dst, uint64(st.FilterSize))
	dst = appendU64(dst, uint64(st.Excluded))
	dst = appendU64(dst, uint64(st.LazyAccepts))
	dst = appendU64(dst, uint64(st.LazyRejects))
	dst = appendU64(dst, uint64(st.Verified))
	dst = appendU64(dst, uint64(st.DistanceComps))
	return appendU64(dst, math.Float64bits(st.Omega))
}

// AppendKNNBatchResponse encodes a successful OpKNNBatch response.
func AppendKNNBatchResponse(dst []byte, lists [][]Neighbor) []byte {
	dst = append(dst, Version, 0)
	dst = appendU32(dst, uint32(len(lists)))
	for _, nn := range lists {
		dst = appendU32(dst, uint32(len(nn)))
		for _, nb := range nn {
			dst = appendU64(dst, math.Float64bits(nb.Dist))
			dst = appendU64(dst, uint64(nb.ID))
		}
	}
	return dst
}

// AppendPointsResponse encodes a successful OpPoints response. A nil row
// marks an ID with no live point (deleted, or never applied).
func AppendPointsResponse(dst []byte, rows [][]float64) []byte {
	dst = append(dst, Version, 0)
	dst = appendU32(dst, uint32(len(rows)))
	for _, p := range rows {
		if p == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = AppendVec(dst, p)
	}
	return dst
}

// AppendCountBatchResponse encodes a successful OpCountBatch response: one
// count per probe, in request order.
func AppendCountBatchResponse(dst []byte, counts []int) []byte {
	dst = append(dst, Version, 0)
	dst = appendU32(dst, uint32(len(counts)))
	for _, n := range counts {
		dst = appendU32(dst, uint32(n))
	}
	return dst
}

// AppendNeighborsResponse encodes a successful OpNeighbors response: the
// chunk's rows with their coordinates (points[i] belongs to rows[i]; all of
// one dimension), and whether the stream ends with this chunk.
func AppendNeighborsResponse(dst []byte, rows []Neighbor, points [][]float64, done bool) []byte {
	dim := 0
	if len(points) > 0 {
		dim = len(points[0])
	}
	enc, size := vecEncoding(points...)
	dst = slices.Grow(dst, 2+4+1+16*len(rows)+1+4+len(rows)*dim*size)
	dst = append(dst, Version, 0)
	dst = appendU32(dst, uint32(len(rows)))
	if done {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	for _, nb := range rows {
		dst = appendU64(dst, math.Float64bits(nb.Dist))
		dst = appendU64(dst, uint64(nb.ID))
	}
	dst = append(dst, enc)
	dst = appendU32(dst, uint32(dim))
	for _, p := range points {
		dst = appendCoords(dst, enc, p)
	}
	return dst
}

// --- decoding ---

// reader consumes a frame with error-latching bounds checks: after the
// first failure every further read returns zero values, and the caller
// checks err once at the end.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) u8() byte {
	if r.err != nil || r.remaining() < 1 {
		r.fail("wire: truncated frame at byte %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.remaining() < 2 {
		r.fail("wire: truncated frame at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.remaining() < 4 {
		r.fail("wire: truncated frame at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.remaining() < 8 {
		r.fail("wire: truncated frame at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// id reads a non-negative integer ID.
func (r *reader) id() int {
	v := r.u64()
	if v > math.MaxInt32 {
		r.fail("wire: id %d out of range", v)
		return 0
	}
	return int(v)
}

// count reads a u32 element count and validates it against the remaining
// frame length, given the minimal encoded size of one element — so a
// hostile count cannot trigger a huge allocation.
func (r *reader) count(minElemSize int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(minElemSize) > int64(r.remaining()) {
		r.fail("wire: count %d exceeds frame", n)
		return 0
	}
	return int(n)
}

// encoding reads a vector encoding byte and returns it with the byte size
// of one coordinate under it.
func (r *reader) encoding() (enc byte, size int) {
	switch enc = r.u8(); enc {
	case vecF64:
		return enc, 8
	case vecF32:
		return enc, 4
	}
	r.fail("wire: unknown vector encoding %d", enc)
	return enc, 8
}

// vec decodes one dual-encoded vector.
func (r *reader) vec() []float64 {
	enc, size := r.encoding()
	dim := r.u32()
	if r.err != nil {
		return nil
	}
	if int64(dim)*int64(size) > int64(r.remaining()) {
		r.fail("wire: vector dimension %d exceeds frame", dim)
		return nil
	}
	p := make([]float64, dim)
	if enc == vecF32 {
		for i := range p {
			p[i] = float64(math.Float32frombits(r.u32()))
		}
		return p
	}
	for i := range p {
		p[i] = r.f64()
	}
	return p
}

// skip reads an excluded-member field: a local member ID, or -1 for none.
func (r *reader) skip() int {
	v := int64(r.u64())
	if v < -1 || v > math.MaxInt32 {
		r.fail("wire: skip %d out of range", v)
		return -1
	}
	return int(v)
}

// bounded reads a u32 that must fit a non-negative int on every platform
// (a count-probe limit, a returned count).
func (r *reader) bounded(what string) int {
	v := r.u32()
	if v > math.MaxInt32 {
		r.fail("wire: %s %d out of range", what, v)
		return 0
	}
	return int(v)
}

// header consumes and validates the two-byte frame header, returning the
// second byte (op or status).
func (r *reader) header() byte {
	if v := r.u8(); r.err == nil && v != Version {
		r.fail("wire: unsupported frame version %d", v)
	}
	return r.u8()
}

// done rejects trailing garbage: a valid frame is consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after frame", r.remaining())
	}
	return nil
}

// DecodeRequest decodes a request frame.
func DecodeRequest(b []byte) (*Request, error) {
	r := &reader{b: b}
	op := Op(r.header())
	req := &Request{Op: op}
	switch op {
	case OpRkNN:
		flags := r.u8()
		req.K = int(r.u32())
		if flags&rknnFlagByID != 0 {
			req.ByID = true
			req.ID = r.id()
		} else {
			req.Point = r.vec()
		}
	case OpKNNBatch:
		n := r.count(1 + 4 + 8 + 4) // k, skip, minimal empty vec
		qs := make([]KNNQuery, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			k := int(r.u32())
			skip := r.skip()
			qs = append(qs, KNNQuery{K: k, Skip: skip, Point: r.vec()})
		}
		req.KNN = qs
	case OpPoints:
		n := r.count(8)
		ids := make([]int, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			ids = append(ids, r.id())
		}
		req.IDs = ids
	case OpCountBatch:
		n := r.count(4 + 8 + 8 + 1 + 4) // limit, skip, radius, minimal empty vec
		qs := make([]CountQuery, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			limit := r.bounded("limit")
			skip := r.skip()
			radius := r.f64()
			if r.err == nil && !(radius >= 0) { // also rejects NaN
				r.fail("wire: radius %v out of range", radius)
			}
			qs = append(qs, CountQuery{Limit: limit, Skip: skip, Radius: radius, Point: r.vec()})
		}
		req.Counts = qs
	case OpNeighbors:
		req.Count = r.bounded("count")
		if r.err == nil && (req.Count < 1 || req.Count > MaxNeighborRows) {
			r.fail("wire: neighbor count %d out of range [1,%d]", req.Count, MaxNeighborRows)
		}
		req.Skip = r.skip()
		req.After.ID = r.skip() // same domain: a local member ID, or -1 for "from the start"
		req.After.Dist = r.f64()
		if r.err == nil && !(req.After.Dist >= 0) { // also rejects NaN
			r.fail("wire: resume distance %v out of range", req.After.Dist)
		}
		req.Point = r.vec()
	default:
		if r.err == nil {
			r.fail("wire: unknown op %d", op)
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return req, nil
}

// respPayload validates a response header, returning the reader positioned
// at the payload, or the decoded RemoteError.
func respPayload(b []byte) (*reader, error) {
	r := &reader{b: b}
	status := r.header()
	if r.err != nil {
		return nil, r.err
	}
	if status == 0 {
		return r, nil
	}
	n := int(r.u16())
	if r.err != nil || n > r.remaining() {
		return nil, fmt.Errorf("wire: truncated error message")
	}
	msg := string(r.b[r.off : r.off+n])
	r.off += n
	if err := r.done(); err != nil {
		return nil, err
	}
	return nil, &RemoteError{Code: ErrCode(status), Msg: msg}
}

// DecodeRkNNResponse decodes an OpRkNN response. An application-level
// failure surfaces as *RemoteError.
func DecodeRkNNResponse(b []byte) ([]int, Stats, error) {
	r, err := respPayload(b)
	if err != nil {
		return nil, Stats{}, err
	}
	n := r.count(8)
	ids := make([]int, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		ids = append(ids, r.id())
	}
	st := Stats{
		ScanDepth:     int(r.u64()),
		FilterSize:    int(r.u64()),
		Excluded:      int(r.u64()),
		LazyAccepts:   int(r.u64()),
		LazyRejects:   int(r.u64()),
		Verified:      int(r.u64()),
		DistanceComps: int64(r.u64()),
		Omega:         r.f64(),
	}
	if err := r.done(); err != nil {
		return nil, Stats{}, err
	}
	return ids, st, nil
}

// DecodeKNNBatchResponse decodes an OpKNNBatch response.
func DecodeKNNBatchResponse(b []byte) ([][]Neighbor, error) {
	r, err := respPayload(b)
	if err != nil {
		return nil, err
	}
	n := r.count(4)
	lists := make([][]Neighbor, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		m := r.count(16)
		nn := make([]Neighbor, 0, m)
		for j := 0; j < m && r.err == nil; j++ {
			d := r.f64()
			nn = append(nn, Neighbor{Dist: d, ID: r.id()})
		}
		lists = append(lists, nn)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return lists, nil
}

// DecodeCountBatchResponse decodes an OpCountBatch response.
func DecodeCountBatchResponse(b []byte) ([]int, error) {
	r, err := respPayload(b)
	if err != nil {
		return nil, err
	}
	n := r.count(4)
	counts := make([]int, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		counts = append(counts, r.bounded("count"))
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return counts, nil
}

// DecodeNeighborsResponse decodes an OpNeighbors response into storage of its
// own: Stream.Append over an empty stream.
func DecodeNeighborsResponse(b []byte) (rows []Neighbor, points [][]float64, done bool, err error) {
	var s Stream
	done, err = s.Append(b)
	return s.Rows, s.Points, done, err
}

// DecodePointsResponse decodes an OpPoints response; absent rows are nil.
func DecodePointsResponse(b []byte) ([][]float64, error) {
	r, err := respPayload(b)
	if err != nil {
		return nil, err
	}
	n := r.count(1)
	rows := make([][]float64, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		switch r.u8() {
		case 0:
			rows = append(rows, nil)
		case 1:
			rows = append(rows, r.vec())
		default:
			r.fail("wire: invalid presence byte")
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return rows, nil
}
