package vecmath

import "math"

// Block stores vectors as one contiguous row-major float32 slab: half the
// memory of the float64 rows and cache-line-friendly for batch row scans.
// The float32 representation is lossy, so a Block is a screening tier, not a
// source of truth: alongside each row it keeps a per-row slack radius that
// turns an approximate float32 distance into a sound lower bound on the
// exact float64 distance (see LowerBound). Exact results always come from
// re-verifying admitted rows against the float64 originals.
type Block struct {
	data  []float32 // rows*dim, row-major
	slack []float64 // per-row conversion-error radius, see below
	dim   int
	rows  int
}

// blockSafety inflates every float32-arithmetic error term; it is orders of
// magnitude above the true bounds (d·2⁻²³ relative per accumulation step),
// so the lower bounds stay sound without per-architecture reasoning.
const blockSafety = 1e-5

// NewBlock packs rows into a contiguous float32 block. Rows must be
// non-empty and share one dimensionality (the caller has validated them).
func NewBlock(rows [][]float64) *Block {
	if len(rows) == 0 {
		return &Block{}
	}
	b := &Block{
		data:  make([]float32, 0, len(rows)*len(rows[0])),
		slack: make([]float64, 0, len(rows)),
		dim:   len(rows[0]),
		rows:  len(rows),
	}
	for _, r := range rows {
		b.appendRow(r)
	}
	return b
}

// NewEmptyBlock returns a Block of dimensionality dim with no rows, ready
// for Append.
func NewEmptyBlock(dim int) *Block {
	return &Block{dim: dim}
}

func (b *Block) appendRow(r []float64) {
	var e float64
	for _, x := range r {
		x32 := float32(x)
		b.data = append(b.data, x32)
		e += math.Abs(x - float64(x32))
	}
	// The L1 norm of the conversion error dominates its L2 and L∞ norms,
	// so one radius serves every metric the block screens for.
	b.slack = append(b.slack, e*(1+blockSafety)+1e-300)
}

// Append adds one row to the block. It panics on a dimension mismatch.
func (b *Block) Append(r []float64) {
	if len(r) != b.dim {
		panic("vecmath: dimension mismatch")
	}
	b.appendRow(r)
	b.rows++
}

// Len returns the number of rows.
func (b *Block) Len() int { return b.rows }

// Dim returns the dimensionality.
func (b *Block) Dim() int { return b.dim }

// Clone returns an independent copy (Append on the clone is invisible to
// the original).
func (b *Block) Clone() *Block {
	return &Block{
		data:  append([]float32(nil), b.data...),
		slack: append([]float64(nil), b.slack...),
		dim:   b.dim,
		rows:  b.rows,
	}
}

// Quantize32 converts a query to float32 and returns its L1 conversion
// error (same slack construction as the stored rows), for use with
// LowerBound.
func Quantize32(q []float64) (q32 []float32, slack float64) {
	q32 = make([]float32, len(q))
	var e float64
	for i, x := range q {
		q32[i] = float32(x)
		e += math.Abs(x - float64(q32[i]))
	}
	return q32, e*(1+blockSafety) + 1e-300
}

// SquaredL2 returns the float32 squared L2 distance between q32 and row i,
// 4-way unrolled. Unlike the float64 kernels there is no bit-identity
// contract here — the result only feeds LowerBound — so the unroll uses
// independent accumulators.
func (b *Block) SquaredL2(i int, q32 []float32) float64 {
	r := b.data[i*b.dim : (i+1)*b.dim]
	q32 = q32[:len(r)]
	var s0, s1, s2, s3 float32
	j := 0
	for ; j+4 <= len(r); j += 4 {
		d0 := q32[j] - r[j]
		d1 := q32[j+1] - r[j+1]
		d2 := q32[j+2] - r[j+2]
		d3 := q32[j+3] - r[j+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := s0 + s1 + s2 + s3
	for ; j < len(r); j++ {
		d := q32[j] - r[j]
		s += d * d
	}
	return float64(s)
}

// L1 returns the float32 L1 distance between q32 and row i.
func (b *Block) L1(i int, q32 []float32) float64 {
	r := b.data[i*b.dim : (i+1)*b.dim]
	q32 = q32[:len(r)]
	var s0, s1, s2, s3 float32
	j := 0
	for ; j+4 <= len(r); j += 4 {
		s0 += abs32(q32[j] - r[j])
		s1 += abs32(q32[j+1] - r[j+1])
		s2 += abs32(q32[j+2] - r[j+2])
		s3 += abs32(q32[j+3] - r[j+3])
	}
	s := s0 + s1 + s2 + s3
	for ; j < len(r); j++ {
		s += abs32(q32[j] - r[j])
	}
	return float64(s)
}

// Linf returns the float32 L∞ distance between q32 and row i.
func (b *Block) Linf(i int, q32 []float32) float64 {
	r := b.data[i*b.dim : (i+1)*b.dim]
	q32 = q32[:len(r)]
	var s float32
	j := 0
	for ; j+4 <= len(r); j += 4 {
		if d := abs32(q32[j] - r[j]); d > s {
			s = d
		}
		if d := abs32(q32[j+1] - r[j+1]); d > s {
			s = d
		}
		if d := abs32(q32[j+2] - r[j+2]); d > s {
			s = d
		}
		if d := abs32(q32[j+3] - r[j+3]); d > s {
			s = d
		}
	}
	for ; j < len(r); j++ {
		if d := abs32(q32[j] - r[j]); d > s {
			s = d
		}
	}
	return float64(s)
}

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

// LowerBound turns an approximate distance approx = d(q32, row_i) computed
// in float32 into a sound lower bound on the exact float64 distance
// d(q, row_i): by the triangle inequality the exact distance is at least
// approx minus the query's and the row's conversion radii, further relaxed
// by blockSafety to absorb float32 accumulation error. approx is the rooted
// distance for every metric (take the square root of SquaredL2 first).
func (b *Block) LowerBound(i int, approx, qslack float64) float64 {
	return approx*(1-float64(b.dim)*blockSafety) - qslack - b.slack[i]
}
