package vecmath

// wideL2 selects the AVX2 path of the squared-L2 one-vs-many kernels. It is
// set once, here, from what the CPU and the operating system support; only
// the tests change it, to check the portable path on machines that would
// otherwise never take it.
var wideL2 = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the operating system saves
// the YMM registers: CPUID leaf 1 for OSXSAVE and AVX, XCR0 bits 1 and 2
// for the SSE and AVX state, and CPUID leaf 7 for AVX2. The kernels use
// AVX instructions only, but they are measured on, and gated to, the AVX2
// generation and later, whose 256-bit units are not split in two.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// squaredWide measures rows through the wide kernels and returns how many
// leading rows it measured; the caller measures the rest. Groups of eight
// go straight through. A last group of three to seven rows is padded, by
// repeating its rows, to a four- or eight-row group: a four-row group costs
// what one two-row pass does and an eight-row group at most twice that, so
// padding beats the portable kernel from three rows on; one or two rows are
// left to it. The kernels read len(q) elements
// of every row, so every row's length is checked first.
func squaredWide(q []float64, rows [][]float64, out []float64) int {
	if !wideL2 || len(rows) < 3 {
		return 0
	}
	for _, r := range rows {
		if len(r) != len(q) {
			panic("vecmath: dimension mismatch")
		}
	}
	i := 0
	for ; i+8 <= len(rows); i += 8 {
		squaredRows8(q, (*[8][]float64)(rows[i:]), (*[8]float64)(out[i:]))
	}
	rest := len(rows) - i
	if rest < 3 {
		return i
	}
	var pad [8][]float64
	var padOut [8]float64
	for j := range pad {
		pad[j] = rows[i+j%rest]
	}
	if rest <= 4 {
		squaredRows4(q, (*[4][]float64)(pad[:4]), (*[4]float64)(padOut[:4]))
	} else {
		squaredRows8(q, &pad, &padOut)
	}
	copy(out[i:], padOut[:rest])
	return len(rows)
}

// squaredRows8 sets out[i] = SquaredDistance(q, rows[i]) for all eight rows,
// bit for bit. Every row must be len(q) long.
//
//go:noescape
func squaredRows8(q []float64, rows *[8][]float64, out *[8]float64)

// squaredRows4 is squaredRows8 for four rows.
//
//go:noescape
func squaredRows4(q []float64, rows *[4][]float64, out *[4]float64)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
