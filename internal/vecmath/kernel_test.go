package vecmath

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Scalar references: the pre-kernel loops, verbatim. The kernels must
// reproduce them bit for bit — not approximately — because distance
// bits decide ties throughout the conformance suite.

func refSquared(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func refL1(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

func refLinf(a, b []float64) float64 {
	var s float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > s {
			s = d
		}
	}
	return s
}

// bothL2Paths runs f once on the squared-L2 path the CPU takes and, where
// that is the wide one, again with it switched off, so the portable path
// is checked on every machine.
func bothL2Paths(t *testing.T, f func(t *testing.T)) {
	saved := wideL2
	defer func() { wideL2 = saved }()
	paths := []bool{false}
	if saved {
		paths = []bool{true, false}
	}
	for _, wide := range paths {
		wideL2 = wide
		t.Run(fmt.Sprintf("wide=%v", wide), f)
	}
}

// TestKernelsBitIdenticalToScalar pins every kernel to its scalar reference
// across vector lengths 0..67: the one-vs-one kernels directly, and the
// one-vs-many kernels — the wide and two-row ones and BatchFor's fallback
// over a metric without a kernel — over row counts 0..19, so that the
// eight-row groups, the padded last group of three to seven rows (as a
// four- or an eight-row group), and the portable pair and odd last row are
// all checked against Metric.Distance bit for bit, on rows of their own and
// on rows cut at odd offsets of one backing array, whose loads are
// unaligned.
func TestKernelsBitIdenticalToScalar(t *testing.T) {
	bothL2Paths(t, testKernelsBitIdenticalToScalar)
}

func testKernelsBitIdenticalToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for dim := 0; dim <= 67; dim++ {
		for trial := 0; trial < 25; trial++ {
			a, b := randVec(rng, dim), randVec(rng, dim)
			if got, want := SquaredDistance(a, b), refSquared(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dim %d: SquaredDistance = %v, scalar reference = %v", dim, got, want)
			}
			if got, want := L1Distance(a, b), refL1(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dim %d: L1Distance = %v, scalar reference = %v", dim, got, want)
			}
			if got, want := LinfDistance(a, b), refLinf(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dim %d: LinfDistance = %v, scalar reference = %v", dim, got, want)
			}
		}
	}

	mk, _ := NewMinkowski(3)
	for _, m := range []Metric{Euclidean{}, SquaredEuclidean{}, Manhattan{}, Chebyshev{}, mk} {
		batch := BatchFor(m)
		for dim := 0; dim <= 67; dim++ {
			q := randVec(rng, dim)
			for nrows := 0; nrows <= 19; nrows++ {
				own := make([][]float64, nrows)
				for i := range own {
					own[i] = randVec(rng, dim)
				}
				backing := randVec(rng, nrows*(dim+1)+1)
				cut := make([][]float64, nrows)
				for i := range cut {
					off := 1 + i*(dim+1)
					cut[i] = backing[off : off+dim]
				}
				for _, rows := range [][][]float64{own, cut} {
					out := make([]float64, nrows)
					batch(q, rows, out)
					for i, r := range rows {
						if want := m.Distance(q, r); math.Float64bits(out[i]) != math.Float64bits(want) {
							t.Fatalf("%s dim %d, row %d of %d: batch = %v, Distance = %v", m.Name(), dim, i, nrows, out[i], want)
						}
					}
				}
			}
		}
	}
}

// TestBatchPanicsOnLengthMismatch checks that a row of the wrong length
// panics in every slot of 9, 10, 12 and 15 rows — an eight-row group
// followed by the portable odd row, the portable pair, a four-row group and
// a padded eight-row group — and that a short out slice panics before
// anything is written past it.
func TestBatchPanicsOnLengthMismatch(t *testing.T) {
	bothL2Paths(t, testBatchPanicsOnLengthMismatch)
}

func testBatchPanicsOnLengthMismatch(t *testing.T) {
	mk, _ := NewMinkowski(3)
	for _, m := range []Metric{Euclidean{}, SquaredEuclidean{}, Manhattan{}, Chebyshev{}, mk} {
		batch := BatchFor(m)
		q := make([]float64, 5)
		for _, nrows := range []int{9, 10, 12, 15} {
			for bad := 0; bad < nrows; bad++ {
				for _, badLen := range []int{4, 6} {
					rows := make([][]float64, nrows)
					for i := range rows {
						rows[i] = make([]float64, 5)
					}
					rows[bad] = make([]float64, badLen)
					mustPanic(t, fmt.Sprintf("%s: row %d of %d, of length %d", m.Name(), bad, nrows, badLen), func() {
						batch(q, rows, make([]float64, len(rows)))
					})
				}
			}
		}
		mustPanic(t, m.Name()+": short out", func() {
			batch(q, [][]float64{q, q, q}, make([]float64, 2))
		})
		mustPanic(t, m.Name()+": short out, wide group", func() {
			batch(q, [][]float64{q, q, q, q, q, q, q, q}, make([]float64, 7))
		})
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}

// FuzzBatchKernel decodes a query and up to 19 rows from the input —
// dimension and row count from the first two bytes, then raw float64 bits,
// so subnormals, infinities and huge magnitudes all occur — and checks the
// squared-L2 batch kernel against refSquared bit for bit on both paths. Two
// NaNs count as equal: inputs holding a NaN are refused before any index
// sees them (ValidateFor), so a NaN's payload is no part of the contract.
func FuzzBatchKernel(f *testing.F) {
	f.Add([]byte{7, 11, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{4, 8, 0xff, 0xf0, 0, 0, 0, 0, 0, 0, 0x7f, 0xf0})
	f.Add([]byte{53, 19, 0x3f, 0xf0, 0x80, 0x01, 0x12, 0x34, 0x56, 0x78})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dim, nrows := int(data[0]%70), int(data[1]%20)
		data = data[2:]
		next := func() float64 {
			var b [8]byte
			copy(b[:], data)
			data = data[min(8, len(data)):]
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		vec := func() []float64 {
			v := make([]float64, dim)
			for i := range v {
				v[i] = next()
			}
			return v
		}
		q := vec()
		rows := make([][]float64, nrows)
		for i := range rows {
			rows[i] = vec()
		}
		batch := BatchFor(SquaredEuclidean{})
		bothL2Paths(t, func(t *testing.T) {
			out := make([]float64, nrows)
			batch(q, rows, out)
			for i, r := range rows {
				got, want := out[i], refSquared(q, r)
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("dim %d, row %d of %d: batch = %v, scalar reference = %v", dim, i, nrows, got, want)
				}
			}
		})
	})
}

// TestKernelForMatchesMetric pins the dispatched one-vs-one kernels to
// Metric.Distance bit for bit, and checks that a metric without a direct
// kernel still gets one (never nil) with Distance's bits.
func TestKernelForMatchesMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk, _ := NewMinkowski(3)
	metrics := []Metric{Euclidean{}, SquaredEuclidean{}, Manhattan{}, Chebyshev{}, mk, Angular{}}
	for _, m := range metrics {
		kern := KernelFor(m)
		if kern == nil {
			t.Fatalf("%s: KernelFor returned nil", m.Name())
		}
		for dim := 1; dim <= 19; dim++ {
			q, r := randVec(rng, dim), randVec(rng, dim)
			if math.Float64bits(kern(q, r)) != math.Float64bits(m.Distance(q, r)) {
				t.Fatalf("%s dim %d: kernel disagrees with Distance", m.Name(), dim)
			}
		}
	}
}

// BenchmarkBatchL2 times one Euclidean distance at the benchmark workloads'
// two dimensionalities: through the one-vs-one kernel, and through BatchFor
// over 16 rows (a cover-tree chunk) and 128 rows (a scan chunk) on the wide
// path and on the portable two-row path. The wide sub-benchmarks are
// skipped where the CPU has no wide kernels.
func BenchmarkBatchL2(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	one, batch := KernelFor(Euclidean{}), BatchFor(Euclidean{})
	saved := wideL2
	defer func() { wideL2 = saved }()
	for _, dim := range []int{53, 784} {
		q := randVec(rng, dim)
		for _, n := range []int{16, 128} {
			rows := make([][]float64, n)
			for i := range rows {
				rows[i] = randVec(rng, dim)
			}
			out := make([]float64, n)
			if n == 16 {
				b.Run(fmt.Sprintf("d%d/one", dim), func(b *testing.B) {
					for i := 0; i < b.N; i += n {
						for j, r := range rows {
							out[j] = one(q, r)
						}
					}
				})
			}
			for _, wide := range []bool{true, false} {
				name := map[bool]string{true: "wide", false: "portable"}[wide]
				b.Run(fmt.Sprintf("d%d/rows%d/%s", dim, n, name), func(b *testing.B) {
					if wide && !saved {
						b.Skip("no wide kernels on this CPU")
					}
					wideL2 = wide
					for i := 0; i < b.N; i += n {
						batch(q, rows, out)
					}
				})
			}
		}
	}
}

// TestBlockLowerBounds checks the float32 block tier across lengths 0..67:
// the approximate distances are close to exact, and the slack-adjusted
// LowerBound never exceeds the exact float64 distance — the soundness
// property the byte-identity of filtered scans rests on.
func TestBlockLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for dim := 1; dim <= 67; dim++ {
		rows := make([][]float64, 8)
		for i := range rows {
			rows[i] = randVec(rng, dim)
		}
		blk := NewBlock(rows)
		if blk.Len() != len(rows) || blk.Dim() != dim {
			t.Fatalf("dim %d: block shape %d×%d", dim, blk.Len(), blk.Dim())
		}
		q := randVec(rng, dim)
		q32, qslack := Quantize32(q)
		for i, r := range rows {
			checks := []struct {
				name   string
				approx float64
				exact  float64
			}{
				{"l2", math.Sqrt(blk.SquaredL2(i, q32)), math.Sqrt(SquaredDistance(q, r))},
				{"l1", blk.L1(i, q32), L1Distance(q, r)},
				{"linf", blk.Linf(i, q32), LinfDistance(q, r)},
			}
			for _, c := range checks {
				lb := blk.LowerBound(i, c.approx, qslack)
				if lb > c.exact {
					t.Fatalf("dim %d row %d %s: lower bound %v exceeds exact %v", dim, i, c.name, lb, c.exact)
				}
				if c.exact > 1e-6 && lb < c.exact*0.99-1e-3 {
					t.Fatalf("dim %d row %d %s: lower bound %v uselessly loose vs exact %v", dim, i, c.name, lb, c.exact)
				}
			}
		}
	}
}

// TestBlockAppendClone checks that Append grows the block and that clones
// are independent.
func TestBlockAppendClone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	blk := NewEmptyBlock(4)
	rows := [][]float64{randVec(rng, 4), randVec(rng, 4)}
	for _, r := range rows {
		blk.Append(r)
	}
	cl := blk.Clone()
	cl.Append(randVec(rng, 4))
	if blk.Len() != 2 || cl.Len() != 3 {
		t.Fatalf("Len = %d/%d, want 2/3", blk.Len(), cl.Len())
	}
	q32, qs := Quantize32(rows[0])
	if lb := blk.LowerBound(0, math.Sqrt(blk.SquaredL2(0, q32)), qs); lb > 0 {
		t.Fatalf("self-distance lower bound %v > 0", lb)
	}
}

// ulpDiff returns the distance between a and b in units in the last place;
// equal values give 0 and adjacent floats give 1.
func ulpDiff(a, b float64) uint64 {
	ia, ib := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	// Map the sign-magnitude float ordering onto a monotone integer line.
	if ia < 0 {
		ia = math.MinInt64 - ia
	}
	if ib < 0 {
		ib = math.MinInt64 - ib
	}
	if ia > ib {
		return uint64(ia - ib)
	}
	return uint64(ib - ia)
}

// minkowskiGeneric is the pre-fast-path implementation: one math.Pow per
// coordinate plus the final root.
func minkowskiGeneric(a, b []float64, p float64) float64 {
	var s float64
	for i := range a {
		s += math.Pow(math.Abs(a[i]-b[i]), p)
	}
	return math.Pow(s, 1/p)
}

// TestMinkowskiIntegerFastPath quick-checks the repeated-multiplication
// fast path against the generic math.Pow path: within 1 ULP for every
// integer order the fast path serves, and exactly the generic value for
// fractional orders (which bypass it).
func TestMinkowskiIntegerFastPath(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(99))}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := float64(1 + rng.Intn(maxFastIntP))
		dim := 1 + rng.Intn(12)
		a, b := randVec(rng, dim), randVec(rng, dim)
		m := Minkowski{P: p}
		got, want := m.Distance(a, b), minkowskiGeneric(a, b, p)
		if ulpDiff(got, want) > 1 {
			t.Logf("p=%v dim=%d: fast %v generic %v (%d ulp)", p, dim, got, want, ulpDiff(got, want))
			return false
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
	// Fractional and oversized orders stay on the generic path, bit for bit.
	rng := rand.New(rand.NewSource(5))
	for _, p := range []float64{1.5, 2.7, math.Pi, maxFastIntP + 1} {
		a, b := randVec(rng, 6), randVec(rng, 6)
		if got, want := (Minkowski{P: p}).Distance(a, b), minkowskiGeneric(a, b, p); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("p=%v: Distance = %v, generic = %v", p, got, want)
		}
	}
}

// BenchmarkMinkowskiIntP documents the fast-path win over the math.Pow
// loop it replaced.
func BenchmarkMinkowskiIntP(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randVec(rng, 32), randVec(rng, 32)
	m := Minkowski{P: 3}
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Distance(x, y)
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			minkowskiGeneric(x, y, 3)
		}
	})
}
