package vecmath

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Codebook is a per-dimension min/max scalar-quantization grid: dimension j
// is cut into 256 cells of width Scale[j] starting at Min[j], and a vector
// is represented by one byte per dimension (its cell index). The codebook
// exists to screen candidates: given a query, every (dimension, cell) pair
// yields a lower bound on that dimension's contribution to the distance,
// and summing table lookups over a row's codes lower-bounds the exact
// distance without touching the floats. Screening is sound by construction
// — a code's cell provably contains the coordinate (Encode verifies
// containment against the same float expressions the lookup table uses),
// and the boundary cells extend to ±infinity so rows inserted after
// training, outside the trained range, simply contribute zero in the
// offending dimensions instead of an unsound bound. A dimension that was
// constant at training time (scale 0) degenerates further: every value
// encodes to cell 0, so that single cell must cover the whole line and
// the dimension contributes zero to every bound.
//
// A Codebook is immutable after training and is persisted with the snapshot
// so a restore screens with byte-identical bounds instead of retraining on
// whatever subset survived deletions.
type Codebook struct {
	min   []float64
	scale []float64 // cell width; 0 for a constant dimension
}

// TrainCodebook fits a codebook to rows (already validated: non-empty,
// finite, one dimensionality).
func TrainCodebook(rows [][]float64) *Codebook {
	dim := len(rows[0])
	cb := &Codebook{min: make([]float64, dim), scale: make([]float64, dim)}
	max := make([]float64, dim)
	for j := 0; j < dim; j++ {
		cb.min[j] = math.Inf(1)
		max[j] = math.Inf(-1)
	}
	for _, r := range rows {
		for j, x := range r {
			if x < cb.min[j] {
				cb.min[j] = x
			}
			if x > max[j] {
				max[j] = x
			}
		}
	}
	for j := 0; j < dim; j++ {
		cb.scale[j] = (max[j] - cb.min[j]) / 255
	}
	return cb
}

// Dim returns the codebook's dimensionality.
func (cb *Codebook) Dim() int { return len(cb.min) }

// Encode writes the cell index of every coordinate of r into dst
// (len(dst) >= Dim). After the arithmetic guess it adjusts the cell until
// the float-evaluated edges contain x exactly, which is what makes the
// lookup-table bounds sound.
func (cb *Codebook) Encode(r []float64, dst []uint8) {
	_ = dst[:len(cb.min)]
	for j, x := range r {
		sc := cb.scale[j]
		if sc <= 0 {
			dst[j] = 0
			continue
		}
		mn := cb.min[j]
		f := (x - mn) / sc
		var c int
		switch {
		case f <= 0:
			c = 0
		case f >= 255:
			c = 255
		default:
			c = int(f)
		}
		for c > 0 && mn+float64(c)*sc > x {
			c--
		}
		for c < 255 && mn+float64(c+1)*sc < x {
			c++
		}
		dst[j] = uint8(c)
	}
}

// BuildLUT fills tab (Dim()*256 entries, laid out [dim][256]) with the
// per-dimension contribution lower bounds for query q: entry [j][c] is the
// distance from q[j] to cell c's interval, squared when squared is true.
// Cell 0 extends down to -inf and cell 255 up to +inf, covering
// out-of-range coordinates encoded after training. A constant-at-training
// dimension (scale 0) clamps every code — including rows inserted later
// with any value there — to cell 0, so its cells carry no interval
// information at all and the whole dimension contributes zero.
func (cb *Codebook) BuildLUT(q []float64, squared bool, tab []float64) {
	_ = tab[:len(cb.min)*256]
	for j, qx := range q {
		base := j * 256
		mn, sc := cb.min[j], cb.scale[j]
		if sc <= 0 {
			for c := 0; c < 256; c++ {
				tab[base+c] = 0
			}
			continue
		}
		for c := 0; c < 256; c++ {
			var contrib float64
			if c > 0 {
				if lo := mn + float64(c)*sc; qx < lo {
					contrib = lo - qx
				}
			}
			if c < 255 {
				if hi := mn + float64(c+1)*sc; qx > hi {
					contrib = qx - hi
				}
			}
			if squared {
				contrib *= contrib
			}
			tab[base+c] = contrib
		}
	}
}

// LUTLowerBoundSum accumulates tab lookups over codes (additive metrics:
// L1, and L2 with squared contributions), early-exiting once the running
// bound passes stop.
func LUTLowerBoundSum(tab []float64, codes []uint8, stop float64) float64 {
	var lb float64
	for j, c := range codes {
		lb += tab[j<<8+int(c)]
		if lb > stop {
			return lb
		}
	}
	return lb
}

// LUTScreenSum is the screening-loop form of LUTLowerBoundSum: eight
// lookups per iteration through two independent partial sums, with the
// early-exit check once per block. Reassociating the additions keeps the
// gather loads pipelined instead of serialized behind one accumulator,
// which is what lets a full-row screen undercut the exact float64
// kernel. The result may differ from the sequential reference by a few
// ULP (≈ len(codes)·2⁻⁵²·sum relative error) in either direction, so it
// must only be compared against thresholds that carry a slack several
// orders of magnitude wider — the scan back-end's quantSlack margin is
// ~5×10⁵ wider for any dimensionality it accepts.
func LUTScreenSum(tab []float64, codes []uint8, stop float64) float64 {
	var lb float64
	j := 0
	for ; j+8 <= len(codes); j += 8 {
		s0 := tab[(j+0)<<8+int(codes[j+0])] + tab[(j+1)<<8+int(codes[j+1])] +
			tab[(j+2)<<8+int(codes[j+2])] + tab[(j+3)<<8+int(codes[j+3])]
		s1 := tab[(j+4)<<8+int(codes[j+4])] + tab[(j+5)<<8+int(codes[j+5])] +
			tab[(j+6)<<8+int(codes[j+6])] + tab[(j+7)<<8+int(codes[j+7])]
		lb += s0 + s1
		if lb > stop {
			return lb
		}
	}
	for ; j < len(codes); j++ {
		lb += tab[j<<8+int(codes[j])]
		if lb > stop {
			return lb
		}
	}
	return lb
}

// LUTLowerBoundMax combines tab lookups with max (the L∞ metric),
// early-exiting once the bound passes stop.
func LUTLowerBoundMax(tab []float64, codes []uint8, stop float64) float64 {
	var lb float64
	for j, c := range codes {
		if t := tab[j<<8+int(c)]; t > lb {
			if t > stop {
				return t
			}
			lb = t
		}
	}
	return lb
}

// Codebook binary format (little-endian): magic "RKQC", u16 version (1),
// u32 dim, then dim pairs of f64 (min, scale). Integrity is the enclosing
// snapshot section's concern; DecodeCodebook still validates shape and
// finiteness so a corrupt blob fails loudly instead of screening unsoundly.
const (
	codebookMagic   = "RKQC"
	codebookVersion = 1
	maxCodebookDim  = 1 << 16
)

// MarshalBinary serializes the codebook.
func (cb *Codebook) MarshalBinary() []byte {
	out := make([]byte, 0, 4+2+4+16*len(cb.min))
	out = append(out, codebookMagic...)
	out = binary.LittleEndian.AppendUint16(out, codebookVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(cb.min)))
	for j := range cb.min {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(cb.min[j]))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(cb.scale[j]))
	}
	return out
}

// DecodeCodebook parses a MarshalBinary blob.
func DecodeCodebook(b []byte) (*Codebook, error) {
	if len(b) < 10 || string(b[:4]) != codebookMagic {
		return nil, fmt.Errorf("vecmath: bad codebook magic")
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != codebookVersion {
		return nil, fmt.Errorf("vecmath: unsupported codebook version %d", v)
	}
	dim := int(binary.LittleEndian.Uint32(b[6:10]))
	if dim <= 0 || dim > maxCodebookDim {
		return nil, fmt.Errorf("vecmath: codebook dim %d out of range", dim)
	}
	if len(b) != 10+16*dim {
		return nil, fmt.Errorf("vecmath: codebook length %d, want %d", len(b), 10+16*dim)
	}
	cb := &Codebook{min: make([]float64, dim), scale: make([]float64, dim)}
	for j := 0; j < dim; j++ {
		mn := math.Float64frombits(binary.LittleEndian.Uint64(b[10+16*j:]))
		sc := math.Float64frombits(binary.LittleEndian.Uint64(b[18+16*j:]))
		if math.IsNaN(mn) || math.IsInf(mn, 0) || math.IsNaN(sc) || math.IsInf(sc, 0) || sc < 0 {
			return nil, fmt.Errorf("vecmath: codebook dim %d has invalid bounds", j)
		}
		cb.min[j], cb.scale[j] = mn, sc
	}
	return cb, nil
}
