package core

import (
	"math/rand"
	"testing"

	"repro/internal/covertree"
	"repro/internal/index"
	"repro/internal/kdtree"
	"repro/internal/scan"
	"repro/internal/vecmath"
	"repro/internal/vptree"
)

// verifyByKNN is the refinement test in its forward-kNN form — d_k(x) ≥ dq
// read off the k-th neighbor, trivially true when fewer than k other points
// exist. Querier.verify answers the same predicate by a bounded count; this
// form stays as the reference the count is checked against.
func verifyByKNN(ix index.Index, x *candidate, k int) bool {
	nn := ix.KNN(x.point, k, x.id)
	return len(nn) < k || nn[len(nn)-1].Dist >= x.dq
}

// checkVerifyForms decodes data into a small dataset on a coarse integer
// grid — duplicates and exact distance ties everywhere — and requires the
// count form and the kNN form of the refinement test to agree for every
// (query, candidate) pair on every exact back-end, bare and under a dirty
// overlay.
func checkVerifyForms(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 8 {
		return
	}
	k := int(data[0]%6) + 1
	dim := int(data[1]%3) + 1
	coords := data[2:]
	n := min(len(coords)/dim, 48)
	if n < 4 {
		return
	}
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = float64(coords[i*dim+j] % 5)
		}
		pts[i] = p
	}
	metric := vecmath.Euclidean{}
	builds := map[string]func([][]float64) (index.Index, error){
		"scan":      func(p [][]float64) (index.Index, error) { return scan.New(p, metric) },
		"covertree": func(p [][]float64) (index.Index, error) { return covertree.New(p, metric) },
		"kdtree":    func(p [][]float64) (index.Index, error) { return kdtree.New(p, metric) },
		"vptree":    func(p [][]float64) (index.Index, error) { return vptree.New(p, metric) },
		"overlay": func(p [][]float64) (index.Index, error) {
			// Half the rows in the base, half in the memtable, one
			// tombstone in each region.
			base, err := covertree.New(p[:len(p)/2], metric)
			if err != nil {
				return nil, err
			}
			ov := index.NewOverlay(base)
			for _, row := range p[len(p)/2:] {
				if _, err := ov.Insert(row); err != nil {
					return nil, err
				}
			}
			ov.Delete(0)
			ov.Delete(len(p) - 1)
			return ov, nil
		},
	}
	for name, build := range builds {
		ix, err := build(pts)
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		qr, err := NewQuerier(ix, Params{K: k, T: 4})
		if err != nil {
			t.Fatalf("%s: NewQuerier: %v", name, err)
		}
		live := func(int) bool { return true }
		if lv, ok := ix.(index.Liveness); ok {
			live = lv.Live
		}
		for a := range pts {
			for b := range pts {
				if a == b || !live(b) {
					continue
				}
				x := &candidate{id: b, point: pts[b], dq: metric.Distance(pts[a], pts[b])}
				if got, want := qr.verify(x), verifyByKNN(ix, x, k); got != want {
					t.Fatalf("%s k=%d: q=%v x=%v (id %d) dq=%g: count form %v, kNN form %v",
						name, k, pts[a], pts[b], b, x.dq, got, want)
				}
			}
		}
	}
}

// FuzzVerifyForms fuzzes checkVerifyForms; plain `go test` runs the seeds.
func FuzzVerifyForms(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 1, 2, 3})
	f.Add([]byte{0, 0, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{5, 2, 9, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6})
	f.Fuzz(checkVerifyForms)
}

// TestVerifyFormsAgree drives checkVerifyForms over a few hundred random
// tie-heavy datasets, so the equivalence is exercised on every test run and
// not only under -fuzz.
func TestVerifyFormsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 150; trial++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		checkVerifyForms(t, data)
	}
}
