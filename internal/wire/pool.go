package wire

import (
	"encoding/binary"
	"io"
	"math"
	"slices"
	"sync"
)

// This file is the protocol's recycled storage: the byte buffer a frame is
// read into or encoded into (Frame), and the rows, coordinates and backing
// arena a coordinator decodes a neighbor stream into (Stream). Each has
// exactly one owner at a time — Get hands it out, Release gives it up — and
// under the race detector a released buffer is overwritten first
// (poison_race.go), so a reader that outlives its ownership computes with NaN
// where the race detector itself cannot see it. DESIGN.md, "Distributed
// serving", names the owner at each step.

// MaxPooled is the most memory, in bytes, one released buffer may carry into
// a pool; a larger one is left to the garbage collector, so a single outsized
// frame or stream does not stay resident. It is also the most a reader
// allocates on a peer's word, before the bytes it declared have arrived.
const MaxPooled = 1 << 20

// Frame is the bytes of one request or response frame, in a recycled buffer.
type Frame struct{ B []byte }

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// GetFrame returns an empty frame buffer; the caller owns it until Release.
func GetFrame() *Frame { return framePool.Get().(*Frame) }

// Release gives the buffer up for reuse: nothing read from or appended to B
// may be referenced afterwards. A nil frame (a failed read's) is a no-op.
func (f *Frame) Release() {
	if f == nil || cap(f.B) > MaxPooled {
		return
	}
	poisonBytes(f.B[:cap(f.B)])
	f.B = f.B[:0]
	framePool.Put(f)
}

// ReadBody replaces the frame's bytes with a message body read from r to
// EOF. declared is the length the peer announced (an HTTP Content-Length;
// not positive when unknown): the buffer is sized for it once, but only up to
// MaxPooled — past that it grows as bytes arrive, so a peer that declares
// gigabytes and sends nothing costs nothing — and a body that ends short of
// it is io.ErrUnexpectedEOF. Bounding the body's real length is the
// caller's, by what it wraps r in.
func (f *Frame) ReadBody(r io.Reader, declared int64) error {
	f.B = f.B[:0]
	if want := int(min(max(declared, 512), MaxPooled)); cap(f.B) < want {
		f.B = make([]byte, 0, want)
	}
	for declared <= 0 || int64(len(f.B)) < declared {
		if len(f.B) == cap(f.B) {
			f.B = slices.Grow(f.B, 512)
		}
		end := cap(f.B)
		if declared > 0 {
			end = min(end, int(declared)) // a recycled buffer may be roomier than the body
		}
		n, err := r.Read(f.B[len(f.B):end])
		f.B = f.B[:len(f.B)+n]
		if err == io.EOF {
			if int64(len(f.B)) < declared {
				return io.ErrUnexpectedEOF
			}
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Stream is the decoded rows of one neighbor stream on the reading side:
// every chunk appended so far, in stream order, with the coordinates of all
// rows in one backing arena. The rows and their coordinates stay valid until
// Release — a later chunk that outgrows the arena moves it, and slices handed
// out before the move keep reading the old, abandoned array.
type Stream struct {
	Rows   []Neighbor
	Points [][]float64 // Points[i] belongs to Rows[i]; consecutive runs of coords
	coords []float64
}

var streamPool = sync.Pool{New: func() any { return new(Stream) }}

// GetStream returns an empty stream; the caller owns it until Release.
func GetStream() *Stream { return streamPool.Get().(*Stream) }

// Release gives the stream's storage up for reuse: no row or coordinate read
// from it may be referenced afterwards.
func (s *Stream) Release() {
	if 8*cap(s.coords)+16*cap(s.Rows)+24*cap(s.Points) > MaxPooled {
		return
	}
	poisonCoords(s.coords[:cap(s.coords)])
	s.Rows, s.Points, s.coords = s.Rows[:0], s.Points[:0], s.coords[:0]
	streamPool.Put(s)
}

// extend lengthens the arena by n coordinates and returns the new run. An
// arena that must grow is reallocated at exactly the size needed — the
// pools' resident arenas are memory the process holds between queries, so
// none carries append's slack — and the rows are pointed at the copy.
func (s *Stream) extend(n int) []float64 {
	have := len(s.coords)
	if have+n > cap(s.coords) {
		grown := make([]float64, have, have+n)
		copy(grown, s.coords)
		s.coords = grown
		off := 0
		for i, p := range s.Points {
			s.Points[i] = grown[off : off+len(p) : off+len(p)]
			off += len(p)
		}
	}
	s.coords = s.coords[:have+n]
	return s.coords[have:]
}

// Append decodes an OpNeighbors response onto the stream — the chunk's rows
// after the rows already held, their coordinates at the end of the arena —
// and reports whether the shard's stream ended with this chunk. Distances
// that are negative or NaN are rejected: the coordinator's merge orders by
// them. A frame that is rejected, however far into it, leaves the stream
// exactly as it was.
func (s *Stream) Append(b []byte) (done bool, err error) {
	r, err := respPayload(b)
	if err != nil {
		return false, err
	}
	n := r.count(16)
	if n > MaxNeighborRows {
		r.fail("wire: %d neighbor rows exceed the cap of %d", n, MaxNeighborRows)
		n = 0
	}
	switch r.u8() {
	case 0:
	case 1:
		done = true
	default:
		r.fail("wire: invalid done byte")
	}
	held := len(s.Rows)
	s.Rows = slices.Grow(s.Rows, n)
	for i := 0; i < n && r.err == nil; i++ {
		d := r.f64()
		if r.err == nil && !(d >= 0) {
			r.fail("wire: neighbor distance %v out of range", d)
		}
		s.Rows = append(s.Rows, Neighbor{Dist: d, ID: r.id()})
	}
	enc, size := r.encoding()
	dim := int(r.u32())
	// dim*size is checked against the frame before it is multiplied by n,
	// so neither product can overflow.
	if r.err == nil && (int64(dim)*int64(size) > int64(r.remaining()) || int64(n)*int64(dim)*int64(size) > int64(r.remaining())) {
		r.fail("wire: %d rows of dimension %d exceed frame", n, dim)
	}
	// The coordinates are the rest of the frame, exactly: checked here,
	// before the arena is touched, nothing below can fail.
	if extra := r.remaining() - n*dim*size; r.err == nil && extra != 0 {
		r.fail("wire: %d trailing bytes after frame", extra)
	}
	if r.err != nil {
		s.Rows = s.Rows[:held]
		return false, r.err
	}
	flat, raw := s.extend(n*dim), r.b[r.off:]
	if enc == vecF32 {
		for i := range flat {
			flat[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:])))
		}
	} else {
		for i := range flat {
			flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	s.Points = slices.Grow(s.Points, n)
	for i := 0; i < n; i++ {
		s.Points = append(s.Points, flat[i*dim:(i+1)*dim:(i+1)*dim])
	}
	return done, nil
}
