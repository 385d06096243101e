package vecmath

import "math"

// Block stores vectors as one contiguous row-major float32 slab: half the
// memory of the float64 rows and cache-line-friendly for batch row scans.
// No engine path reads it; it stays as the float32 reference point of the
// benchmark ladder's kernel stage (vecmath.block_l2), beside the float64
// kernels every back-end uses.
type Block struct {
	data []float32 // rows*dim, row-major
	dim  int
	rows int
}

// blockSafety inflates the float32 conversion error Quantize32 reports; it
// is orders of magnitude above the true bound (d·2⁻²³ relative).
const blockSafety = 1e-5

// NewBlock packs rows into a contiguous float32 block. Rows must be
// non-empty and share one dimensionality (the caller has validated them).
func NewBlock(rows [][]float64) *Block {
	if len(rows) == 0 {
		return &Block{}
	}
	b := &Block{
		data: make([]float32, 0, len(rows)*len(rows[0])),
		dim:  len(rows[0]),
		rows: len(rows),
	}
	for _, r := range rows {
		for _, x := range r {
			b.data = append(b.data, float32(x))
		}
	}
	return b
}

// Len returns the number of rows.
func (b *Block) Len() int { return b.rows }

// Dim returns the dimensionality.
func (b *Block) Dim() int { return b.dim }

// Quantize32 converts a query to float32 and returns its L1 conversion
// error, inflated by blockSafety.
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
// contract here, so the unroll uses independent accumulators.
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
