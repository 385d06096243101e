package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// TestCodebookLowerBoundsSound checks the core screening invariant: for any
// trained codebook, any encoded row (including rows outside the trained
// range, as inserted after a compaction fold) and any query, the LUT lower
// bound never exceeds the exact distance, in every supported domain.
func TestCodebookLowerBoundsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.Intn(12)
		rows := make([][]float64, 3+rng.Intn(40))
		for i := range rows {
			rows[i] = randVec(rng, dim)
		}
		if trial%5 == 0 {
			// Constant dimension: degenerate scale-0 cells.
			for _, r := range rows {
				r[0] = 1.25
			}
		}
		cb := TrainCodebook(rows)
		if cb.Dim() != dim {
			t.Fatalf("codebook dim %d, want %d", cb.Dim(), dim)
		}
		// Encode the trained rows plus out-of-range newcomers.
		probe := append([][]float64(nil), rows...)
		for i := 0; i < 5; i++ {
			probe = append(probe, scaled(randVec(rng, dim), 10))
		}
		codes := make([]uint8, dim)
		q := randVec(rng, dim)
		if trial%5 == 0 {
			// Query far beyond the constant dimension's single point: the
			// degenerate cell must bound it by zero, not by q[0]−min.
			q[0] = 5
		}
		// A probe equal to the query has exact distance 0, so any positive
		// lower bound on it is an unsound screen.
		probe = append(probe, Clone(q))
		sqTab := make([]float64, dim*256)
		absTab := make([]float64, dim*256)
		cb.BuildLUT(q, true, sqTab)
		cb.BuildLUT(q, false, absTab)
		inf := math.Inf(1)
		for _, r := range probe {
			cb.Encode(r, codes)
			if lb := LUTLowerBoundSum(sqTab, codes, inf); lb > SquaredDistance(q, r) {
				t.Fatalf("squared LUT bound %v exceeds exact %v", lb, SquaredDistance(q, r))
			}
			if lb := LUTLowerBoundSum(absTab, codes, inf); lb > L1Distance(q, r) {
				t.Fatalf("L1 LUT bound %v exceeds exact %v", lb, L1Distance(q, r))
			}
			if lb := LUTLowerBoundMax(absTab, codes, inf); lb > LinfDistance(q, r) {
				t.Fatalf("L∞ LUT bound %v exceeds exact %v", lb, LinfDistance(q, r))
			}
		}
	}
}

// TestCodebookScreensFarPoints checks the filter is not vacuous: a query
// far from a cluster gets a strictly positive lower bound on every cluster
// row, and the early-exit stop threshold triggers.
func TestCodebookScreensFarPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dim := 8
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = randVec(rng, dim)
	}
	cb := TrainCodebook(rows)
	q := make([]float64, dim)
	for j := range q {
		q[j] = 100
	}
	tab := make([]float64, dim*256)
	cb.BuildLUT(q, true, tab)
	codes := make([]uint8, dim)
	for _, r := range rows {
		cb.Encode(r, codes)
		if lb := LUTLowerBoundSum(tab, codes, math.Inf(1)); lb < 1 {
			t.Fatalf("far query got loose bound %v", lb)
		}
		if lb := LUTLowerBoundSum(tab, codes, 0.5); lb <= 0.5 {
			t.Fatalf("early exit did not trigger, lb = %v", lb)
		}
	}
}

// TestCodebookConstantDimensionUnbounded is the regression for the
// degenerate scale-0 cell: a dimension constant at training time clamps
// every code to cell 0, so that cell must cover the whole line. The old
// lookup table kept the hi-edge check and charged q[0]−min against a row
// inserted later at q[0] itself — lower bound 3.75 against an exact
// distance of 0, unsoundly screening out a true nearest neighbor.
func TestCodebookConstantDimensionUnbounded(t *testing.T) {
	rows := [][]float64{{1.25, 0}, {1.25, 1}, {1.25, 0.5}}
	cb := TrainCodebook(rows)
	r := []float64{5, 0.25} // inserted after training, off the constant
	q := Clone(r)           // exact distance 0 in every domain
	codes := make([]uint8, 2)
	cb.Encode(r, codes)
	sqTab := make([]float64, 2*256)
	absTab := make([]float64, 2*256)
	cb.BuildLUT(q, true, sqTab)
	cb.BuildLUT(q, false, absTab)
	inf := math.Inf(1)
	for name, lb := range map[string]float64{
		"LUT squared":   LUTLowerBoundSum(sqTab, codes, inf),
		"LUT L1":        LUTLowerBoundSum(absTab, codes, inf),
		"LUT L∞":        LUTLowerBoundMax(absTab, codes, inf),
		"LUT screen sq": LUTScreenSum(sqTab, codes, inf),
	} {
		if lb != 0 {
			t.Errorf("%s bound %v for an exact-zero distance", name, lb)
		}
	}
}

// TestLUTScreenSumEnvelope pins the reassociated 8-way screening loop — the
// form the scan back-end actually evaluates — against the sequential
// reference within its documented ULP envelope, against exact distances
// with the scan back-end's quantSlack margin, and on the screening
// implication itself: a screen that fires at bound·(1+slack) must be
// justified by the exact distance exceeding the bound.
func TestLUTScreenSumEnvelope(t *testing.T) {
	const slack = 1e-9 // mirrors scan's quantSlack
	rng := rand.New(rand.NewSource(97))
	inf := math.Inf(1)
	for dim := 0; dim <= 67; dim++ {
		rows := make([][]float64, 4+rng.Intn(20))
		for i := range rows {
			rows[i] = randVec(rng, dim)
		}
		if dim > 0 && dim%7 == 0 {
			for _, r := range rows {
				r[0] = 1.25
			}
		}
		cb := TrainCodebook(rows)
		q := randVec(rng, dim)
		sqTab := make([]float64, dim*256)
		absTab := make([]float64, dim*256)
		cb.BuildLUT(q, true, sqTab)
		cb.BuildLUT(q, false, absTab)
		codes := make([]uint8, dim)
		probe := append([][]float64(nil), rows...)
		probe = append(probe, scaled(randVec(rng, dim), 10), Clone(q))
		for _, r := range probe {
			cb.Encode(r, codes)
			for _, dom := range []struct {
				tab   []float64
				exact float64
			}{
				{sqTab, SquaredDistance(q, r)},
				{absTab, L1Distance(q, r)},
			} {
				ref := LUTLowerBoundSum(dom.tab, codes, inf)
				got := LUTScreenSum(dom.tab, codes, inf)
				env := float64(dim) * 0x1p-52 * ref
				if math.Abs(got-ref) > env {
					t.Fatalf("dim %d: screen sum %v vs reference %v exceeds envelope %v", dim, got, ref, env)
				}
				if got > dom.exact*(1+slack) {
					t.Fatalf("dim %d: screen sum %v above exact %v with slack", dim, got, dom.exact)
				}
				for _, bound := range []float64{dom.exact, dom.exact * 0.99, ref * 0.5, 0} {
					stop := bound * (1 + slack)
					if LUTScreenSum(dom.tab, codes, stop) > stop && dom.exact <= bound {
						t.Fatalf("dim %d: screen fired at bound %v but exact is %v", dim, bound, dom.exact)
					}
				}
			}
		}
	}
}

// TestCodebookEncodeContainment pins the containment repair: every encoded
// coordinate lies inside its cell's float-evaluated edges (boundary cells
// extend to infinity), which is what BuildLUT's soundness relies on.
func TestCodebookEncodeContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		dim := 1 + rng.Intn(6)
		rows := make([][]float64, 2+rng.Intn(30))
		for i := range rows {
			rows[i] = scaled(randVec(rng, dim), math.Pow(10, float64(rng.Intn(7)-3)))
		}
		cb := TrainCodebook(rows)
		codes := make([]uint8, dim)
		for _, r := range rows {
			cb.Encode(r, codes)
			for j, x := range r {
				c := int(codes[j])
				if c > 0 && cb.min[j]+float64(c)*cb.scale[j] > x {
					t.Fatalf("coordinate %v below its cell %d lower edge", x, c)
				}
				if c < 255 && cb.min[j]+float64(c+1)*cb.scale[j] < x {
					t.Fatalf("coordinate %v above its cell %d upper edge", x, c)
				}
			}
		}
	}
}

// TestCodebookRoundTrip pins the binary codec: decode(encode(cb)) restores
// identical screening bounds, and corrupt blobs fail instead of screening
// unsoundly.
func TestCodebookRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rows := make([][]float64, 20)
	for i := range rows {
		rows[i] = randVec(rng, 7)
	}
	cb := TrainCodebook(rows)
	blob := cb.MarshalBinary()
	got, err := DecodeCodebook(blob)
	if err != nil {
		t.Fatal(err)
	}
	for j := range cb.min {
		if got.min[j] != cb.min[j] || got.scale[j] != cb.scale[j] {
			t.Fatalf("dim %d: round trip changed bounds", j)
		}
	}
	for _, corrupt := range [][]byte{
		nil,
		blob[:5],
		append([]byte("XXXX"), blob[4:]...),
		blob[:len(blob)-1],
	} {
		if _, err := DecodeCodebook(corrupt); err == nil {
			t.Fatalf("corrupt blob of length %d decoded", len(corrupt))
		}
	}
	bad := append([]byte(nil), blob...)
	for i := 10; i < 18; i++ {
		bad[i] = 0xFF // min[0] becomes NaN
	}
	if _, err := DecodeCodebook(bad); err == nil {
		t.Fatal("NaN codebook bounds decoded")
	}
}

// scaled returns s·v.
func scaled(v []float64, s float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] * s
	}
	return out
}
