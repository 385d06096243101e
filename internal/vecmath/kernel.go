package vecmath

import "math"

// This file holds the direct distance kernels and the type-switch dispatch
// that lets hot loops (scan, covertree, bruteforce, the overlay memtable, the
// core witness cycle) call them instead of going through the Metric interface
// once per row.
//
// Bit-identity contract: every kernel must return exactly the bits the naive
// scalar loop returns, so each distance keeps a single accumulator and adds
// its terms in element order — reassociating the sum would change float64
// rounding and could flip distance ties deep inside the conformance suite.
// One accumulator is one floating-point add dependency chain, which is what
// bounds a single distance at about two cycles an element. The one-vs-many
// kernels therefore go wide across rows, not within one. The portable ones
// take two rows a pass, each with its own accumulator: two independent
// chains, each query element loaded once. On amd64 CPUs with AVX2 the
// squared-L2 ones go further (kernel_amd64.s): a 256-bit register holds
// four accumulators, one lane per row, and a 4×4 transpose lines each row's
// terms up in its own lane, so every lane adds exactly the scalar loop's
// terms in the scalar loop's order. They take eight rows a pass in two
// such registers; a last three to seven rows are padded to a group of four
// or eight, and a last one or two go through the two-row kernel. Every
// result still has the scalar bits. The property tests in kernel_test.go
// pin each kernel to its scalar reference across lengths 0..67 and row
// counts 0..19, on both paths, and FuzzBatchKernel does the same for
// arbitrary float64 bits.

// DistanceFunc is a one-vs-one distance kernel with Metric.Distance's
// contract (panics on length mismatch).
type DistanceFunc func(a, b []float64) float64

// BatchDistanceFunc is a one-vs-many row kernel: out[i] = d(q, rows[i]).
// It panics if len(out) < len(rows) or any row length mismatches q.
type BatchDistanceFunc func(q []float64, rows [][]float64, out []float64)

// KernelFor returns the one-vs-one kernel for m — the one entry point for
// every loop that measures pairs of rows. Like BatchFor it is never nil: the
// four kernel metrics get their direct kernels, so no loop pays an interface
// call per distance, and any other metric gets m.Distance itself.
// kernel(a,b) == m.Distance(a,b) holds bit-for-bit.
func KernelFor(m Metric) DistanceFunc {
	switch m.(type) {
	case Euclidean:
		return euclideanKernel
	case SquaredEuclidean:
		return SquaredDistance
	case Manhattan:
		return L1Distance
	case Chebyshev:
		return LinfDistance
	}
	return m.Distance
}

// BatchFor returns the one-vs-many kernel for m — the one entry point for
// every loop that measures many rows against one point. It is never nil: the
// four kernel metrics get their multi-row kernels, any other metric a loop
// over m.Distance. out[i] == m.Distance(q, rows[i]) holds bit-for-bit.
func BatchFor(m Metric) BatchDistanceFunc {
	switch m.(type) {
	case Euclidean:
		return euclideanBatch
	case SquaredEuclidean:
		return squaredBatch
	case Manhattan:
		return l1Batch
	case Chebyshev:
		return linfBatch
	}
	return func(q []float64, rows [][]float64, out []float64) {
		out = out[:len(rows)]
		for i, r := range rows {
			out[i] = m.Distance(q, r)
		}
	}
}

func euclideanKernel(a, b []float64) float64 { return math.Sqrt(SquaredDistance(a, b)) }

// twoRows walks rows in pairs through the two-row kernel two, leaving an odd
// last row to the one-row kernel one.
func twoRows(q []float64, rows [][]float64, out []float64, one DistanceFunc, two func(q, a, b []float64) (float64, float64)) {
	out = out[:len(rows)]
	i := 0
	for ; i+2 <= len(rows); i += 2 {
		out[i], out[i+1] = two(q, rows[i], rows[i+1])
	}
	if i < len(rows) {
		out[i] = one(q, rows[i])
	}
}

func euclideanBatch(q []float64, rows [][]float64, out []float64) {
	squaredBatch(q, rows, out)
	for i, s := range out[:len(rows)] {
		out[i] = math.Sqrt(s)
	}
}

// squaredBatch sends rows through the wide kernels where the CPU has them
// (squaredWide), and whatever they leave through the two-row kernel.
func squaredBatch(q []float64, rows [][]float64, out []float64) {
	out = out[:len(rows)]
	i := squaredWide(q, rows, out)
	twoRows(q, rows[i:], out[i:], SquaredDistance, squaredDistance2)
}

func l1Batch(q []float64, rows [][]float64, out []float64) {
	twoRows(q, rows, out, L1Distance, l1Distance2)
}

func linfBatch(q []float64, rows [][]float64, out []float64) {
	twoRows(q, rows, out, LinfDistance, linfDistance2)
}

// pair reslices a and b to q's length so the two-row loops run free of bounds
// checks, panicking if either row's length differs.
func pair(q, a, b []float64) ([]float64, []float64) {
	if len(a) != len(q) || len(b) != len(q) {
		panic("vecmath: dimension mismatch")
	}
	return a[:len(q)], b[:len(q)]
}

// SquaredDistance returns the squared L2 distance between a and b, panicking
// on a length mismatch. It is the hot inner loop of the whole module: the
// plain scalar loop with the bounds checks hoisted.
func SquaredDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: dimension mismatch")
	}
	b = b[:len(a)]
	var s float64
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return s
}

func squaredDistance2(q, a, b []float64) (sa, sb float64) {
	a, b = pair(q, a, b)
	for i, x := range q {
		da := x - a[i]
		db := x - b[i]
		sa += da * da
		sb += db * db
	}
	return sa, sb
}

// L1Distance returns the Manhattan distance between a and b, panicking on a
// length mismatch.
func L1Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: dimension mismatch")
	}
	b = b[:len(a)]
	var s float64
	for i, x := range a {
		s += math.Abs(x - b[i])
	}
	return s
}

func l1Distance2(q, a, b []float64) (sa, sb float64) {
	a, b = pair(q, a, b)
	for i, x := range q {
		sa += math.Abs(x - a[i])
		sb += math.Abs(x - b[i])
	}
	return sa, sb
}

// LinfDistance returns the Chebyshev distance between a and b, panicking on
// a length mismatch.
func LinfDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: dimension mismatch")
	}
	b = b[:len(a)]
	var s float64
	for i, x := range a {
		if d := math.Abs(x - b[i]); d > s {
			s = d
		}
	}
	return s
}

func linfDistance2(q, a, b []float64) (sa, sb float64) {
	a, b = pair(q, a, b)
	for i, x := range q {
		if d := math.Abs(x - a[i]); d > sa {
			sa = d
		}
		if d := math.Abs(x - b[i]); d > sb {
			sb = d
		}
	}
	return sa, sb
}
