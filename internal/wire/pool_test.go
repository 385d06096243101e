package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/iotest"
)

// bitsEqual compares coordinate rows bit for bit (NaN included).
func bitsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// checkAppend holds Stream.Append to its two promises on frame b, whatever b
// is. Decoding onto used storage — rows already held, an arena too small for
// what arrives, stale values left in every capacity — gives exactly the rows
// and coordinates a fresh decode gives, and leaves the rows held before bit
// for bit as they were; and a frame rejected anywhere along its length leaves
// rows, points and arena at the lengths they were passed in with.
func checkAppend(t *testing.T, b []byte) {
	t.Helper()
	wantRows, wantPts, wantDone, wantErr := DecodeNeighborsResponse(b)

	// Storage with a past: a released stream's capacities, full of stale
	// values, then a chunk of another dimension still held.
	s := &Stream{
		Rows:   make([]Neighbor, 3)[:0],
		Points: [][]float64{{math.NaN()}, {7}}[:0],
		coords: []float64{math.NaN(), math.Inf(-1), 7, 7}[:0],
	}
	prefixRows := []Neighbor{{ID: 11, Dist: 0.125}, {ID: 3, Dist: math.Nextafter(0.3, 1)}}
	prefixPts := [][]float64{{1, math.Pi, -0.5}, {math.NaN(), 0, 1e-300}}
	if _, err := s.Append(AppendNeighborsResponse(nil, prefixRows, prefixPts, false)); err != nil {
		t.Fatalf("prefix chunk: %v", err)
	}
	early := s.Points[0] // handed out before the arena moves, as a filter set holds it
	heldRows, heldPts, heldCoords := len(s.Rows), len(s.Points), len(s.coords)

	done, err := s.Append(b)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("onto used storage: %v; fresh: %v", err, wantErr)
	}
	if err != nil {
		if len(s.Rows) != heldRows || len(s.Points) != heldPts || len(s.coords) != heldCoords {
			t.Fatalf("a rejected frame (%v) moved the stream from %d rows, %d points, %d coordinates to %d, %d, %d",
				err, heldRows, heldPts, heldCoords, len(s.Rows), len(s.Points), len(s.coords))
		}
	} else if done != wantDone || !reflect.DeepEqual(s.Rows[heldRows:], wantRows) && len(wantRows) > 0 || !bitsEqual(s.Points[heldPts:], wantPts) {
		t.Fatalf("onto used storage: %v %v %v; fresh: %v %v %v", s.Rows[heldRows:], s.Points[heldPts:], done, wantRows, wantPts, wantDone)
	}
	if !reflect.DeepEqual(s.Rows[:heldRows], prefixRows) || !bitsEqual(s.Points[:heldPts], prefixPts) || !bitsEqual([][]float64{early}, prefixPts[:1]) {
		t.Fatalf("the rows held before changed: %v %v (handed out early: %v)", s.Rows[:heldRows], s.Points[:heldPts], early)
	}
	off := 0
	for i, p := range s.Points {
		if len(p) > 0 && &p[0] != &s.coords[off] {
			t.Fatalf("row %d's coordinates are not at offset %d of the one arena", i, off)
		}
		off += len(p)
	}
	if off != len(s.coords) {
		t.Fatalf("arena holds %d coordinates, rows account for %d", len(s.coords), off)
	}
}

// rejectedHalfWay is a chunk whose rows decode and whose coordinates are cut
// short: the decoder is two thirds through before it can know.
func rejectedHalfWay() []byte {
	b := AppendNeighborsResponse(nil, []Neighbor{{ID: 1, Dist: 0.25}, {ID: 4, Dist: 0.5}}, [][]float64{{1, math.Pi}, {0.1, 3}}, false)
	return b[:len(b)-5]
}

func TestAppendOntoUsedStorage(t *testing.T) {
	rows := []Neighbor{{ID: 4, Dist: 0}, {ID: 9, Dist: 0.5}, {ID: 2, Dist: 7.5}}
	for name, b := range map[string][]byte{
		"float32-lossless": AppendNeighborsResponse(nil, rows, [][]float64{{1, 2}, {0.5, -0.25}, {1024, 0}}, false),
		"float64":          AppendNeighborsResponse(nil, rows, [][]float64{{1, 2}, {math.Pi, 0.1}, {1024, 0}}, true),
		"NaN":              AppendNeighborsResponse(nil, rows[:1], [][]float64{{math.NaN(), 1}}, true),
		"no rows":          AppendNeighborsResponse(nil, nil, nil, true),
		"dimension zero":   AppendNeighborsResponse(nil, rows[:2], [][]float64{{}, {}}, false),
		"cut short":        rejectedHalfWay(),
		"trailing byte":    append(AppendNeighborsResponse(nil, rows[:1], [][]float64{{1, 2}}, false), 0),
		"error frame":      AppendError(nil, ErrBadRequest, "unknown op 5"),
		"empty":            {},
	} {
		t.Run(name, func(t *testing.T) { checkAppend(t, b) })
	}
}

// TestAppendKeepsEarlierChunks is a stream read in chunks that double, as a
// coordinator reads one: every chunk outgrows the arena, and after the last
// the first chunk's coordinates — through the stream, and through the slices
// handed out when they arrived — are bit for bit what was sent.
func TestAppendKeepsEarlierChunks(t *testing.T) {
	const dim = 5
	var sent [][]float64
	var handedOut [][]float64
	s := new(Stream)
	for chunk, id := 1, 0; chunk <= 32; chunk *= 2 {
		rows, pts := make([]Neighbor, chunk), make([][]float64, chunk)
		for i := range rows {
			rows[i] = Neighbor{ID: id, Dist: float64(id)}
			pts[i] = make([]float64, dim)
			for j := range pts[i] {
				pts[i][j] = math.Sqrt(float64(id*dim + j + 2)) // no float32 holds these
			}
			id++
		}
		if _, err := s.Append(AppendNeighborsResponse(nil, rows, pts, false)); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, pts...)
		handedOut = append(handedOut, s.Points[len(s.Points)-chunk:]...)
		if cap(s.coords) != len(sent)*dim {
			t.Fatalf("after %d rows the arena holds %d coordinates' room, want exactly %d: no slack", len(sent), cap(s.coords), len(sent)*dim)
		}
	}
	if !bitsEqual(s.Points, sent) {
		t.Fatal("coordinates read through the stream differ from what was sent")
	}
	if !bitsEqual(handedOut, sent) {
		t.Fatal("coordinates handed out before the arena grew differ from what was sent")
	}
}

// TestReleasedStreamStartsEmpty: what comes out of the pool holds nothing,
// whatever went in, and what is too big to pool is left as it is.
func TestReleasedStreamStartsEmpty(t *testing.T) {
	chunk := AppendNeighborsResponse(nil, []Neighbor{{ID: 1, Dist: 1}}, [][]float64{{1, 2, 3}}, true)
	for i := 0; i < 4; i++ { // whether or not the pool hands the same one back
		s := GetStream()
		if len(s.Rows) != 0 || len(s.Points) != 0 || len(s.coords) != 0 {
			t.Fatalf("a pooled stream holds %d rows, %d points, %d coordinates", len(s.Rows), len(s.Points), len(s.coords))
		}
		if _, err := s.Append(chunk); err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	big := &Stream{coords: make([]float64, MaxPooled/8+1)}
	big.Release()
	if len(big.coords) == 0 {
		t.Error("a stream over the pool cap was reset for pooling; it is left to the garbage collector as it is")
	}
}

// appendNeighborsResponseRef is the encoder as it was before it stored
// coordinates in place: one append, one capacity check, a value.
func appendNeighborsResponseRef(dst []byte, rows []Neighbor, points [][]float64, done bool) []byte {
	dim := 0
	if len(points) > 0 {
		dim = len(points[0])
	}
	enc := byte(vecF32)
scan:
	for _, p := range points {
		for _, v := range p {
			if !float32Lossless(v) {
				enc = vecF64
				break scan
			}
		}
	}
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
		for _, v := range p {
			if enc == vecF32 {
				dst = appendU32(dst, math.Float32bits(float32(v)))
			} else {
				dst = appendU64(dst, math.Float64bits(v))
			}
		}
	}
	return dst
}

// TestEncodersAreByteIdentical pins the in-place encoders to the bytes the
// per-value ones produced — what a parent-commit peer decodes — and pins that
// a frame whose size is known is allocated once.
func TestEncodersAreByteIdentical(t *testing.T) {
	rows := []Neighbor{{ID: 4, Dist: 0}, {ID: 9, Dist: math.Nextafter(0.3, 1)}, {ID: 2, Dist: 7.5}}
	for name, pts := range map[string][][]float64{
		"float32-lossless": {{1, 2}, {0.5, -0.25}, {1024, 0}},
		"mixed":            {{1, 2}, {0.5, math.Pi}, {1024, 0}},
		"NaN":              {{1, math.NaN()}, {math.Inf(1), -0.25}, {math.Copysign(0, -1), 0}},
		"NaN and float64":  {{1, math.NaN()}, {0.1, -0.25}, {1024, 0}},
	} {
		for _, prefix := range [][]byte{nil, []byte("already here")} {
			got := AppendNeighborsResponse(bytes.Clone(prefix), rows, pts, true)
			want := appendNeighborsResponseRef(bytes.Clone(prefix), rows, pts, true)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: chunk encodes to\n%x, the per-value encoder wrote\n%x", name, got, want)
			}
		}
		for _, p := range pts {
			enc, _ := vecEncoding(p)
			want := appendU32([]byte{enc}, uint32(len(p)))
			for _, v := range p {
				if enc == vecF32 {
					want = appendU32(want, math.Float32bits(float32(v)))
				} else {
					want = appendU64(want, math.Float64bits(v))
				}
			}
			if got := AppendVec(nil, p); !bytes.Equal(got, want) {
				t.Errorf("%s: vector %v encodes to %x, the per-value encoder wrote %x", name, p, got, want)
			}
		}
	}

	q := []float64{0.1, math.Pi, -3.5, 8}
	probes := []CountQuery{{Point: q, Radius: 0.25, Limit: 3, Skip: 7}, {Point: []float64{1, 2, 3, 4}, Radius: 1, Limit: 3, Skip: -1}}
	var sink []byte
	for name, encode := range map[string]func(){
		"neighbors request":  func() { sink = AppendNeighborsRequest(nil, q, 7, Neighbor{ID: 3, Dist: 0.25}, 72) },
		"count request":      func() { sink = AppendCountBatchRequest(nil, probes) },
		"neighbors response": func() { sink = AppendNeighborsResponse(nil, rows, [][]float64{q, q, q}, false) },
	} {
		if n := testing.AllocsPerRun(20, encode); n != 1 && !raceEnabled {
			t.Errorf("%s: %v allocations to encode a frame of known size, want 1", name, n)
		}
	}
	_ = sink
}

// errAfter reads n bytes of zeros, then fails.
type errAfter struct {
	n   int
	err error
}

func (r *errAfter) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, r.err
	}
	n := min(len(p), r.n)
	clear(p[:n])
	r.n -= n
	return n, nil
}

func TestFrameReadBody(t *testing.T) {
	body := make([]byte, 3000)
	for i := range body {
		body[i] = byte(i * 7)
	}
	big := bytes.Repeat(body, 2*MaxPooled/len(body)+1)

	f := new(Frame)
	for name, c := range map[string]struct {
		r        io.Reader
		declared int64
		want     []byte
	}{
		"declared":                 {bytes.NewReader(body), int64(len(body)), body},
		"declared, a byte a read":  {iotest.OneByteReader(bytes.NewReader(body)), int64(len(body)), body},
		"declared, eager EOF":      {iotest.DataErrReader(bytes.NewReader(body)), int64(len(body)), body},
		"unknown length":           {bytes.NewReader(body), -1, body},
		"zero as unknown":          {iotest.HalfReader(bytes.NewReader(body)), 0, body},
		"empty":                    {bytes.NewReader(nil), -1, nil},
		"over the cap, declared":   {bytes.NewReader(big), int64(len(big)), big},
		"over the cap, undeclared": {iotest.DataErrReader(bytes.NewReader(big)), -1, big},
		"longer than declared":     {bytes.NewReader(body), 100, body[:100]},
	} {
		// One frame through every case: each read replaces the last one's bytes.
		if err := f.ReadBody(c.r, c.declared); err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !bytes.Equal(f.B, c.want) {
			t.Errorf("%s: read %d bytes, want the body's %d", name, len(f.B), len(c.want))
		}
	}

	// A peer that declares 64 MiB and sends ten bytes: the read fails, and
	// all it cost is a buffer of the pool's cap.
	liar := new(Frame)
	if err := liar.ReadBody(bytes.NewReader(body[:10]), 64<<20); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a body short of its declared length: %v, want unexpected EOF", err)
	}
	if cap(liar.B) > MaxPooled {
		t.Errorf("%d bytes allocated on the peer's word, the cap is %d", cap(liar.B), MaxPooled)
	}
	if err := new(Frame).ReadBody(bytes.NewReader(body), int64(len(body))+1); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a body one byte short: %v, want unexpected EOF", err)
	}
	boom := errors.New("connection reset")
	if err := new(Frame).ReadBody(&errAfter{n: 100, err: boom}, 200); !errors.Is(err, boom) {
		t.Errorf("a reader that fails: %v, want its error", err)
	}

	// A declared length is read into a buffer sized once.
	exact := new(Frame)
	if err := exact.ReadBody(bytes.NewReader(body), int64(len(body))); err != nil || cap(exact.B) >= 2*len(body) {
		t.Errorf("declared %d bytes: buffer of %d (%v)", len(body), cap(exact.B), err)
	}
	var nilFrame *Frame
	nilFrame.Release() // a failed read's: must not panic
	over := &Frame{B: make([]byte, 10, MaxPooled+1)}
	over.Release()
	if len(over.B) != 10 {
		t.Error("a frame over the pool cap was reset for pooling; it is left to the garbage collector as it is")
	}
}
