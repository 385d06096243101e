package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/covertree"
	"repro/internal/index"
	"repro/internal/scan"
	"repro/internal/vecmath"
)

// verifyByKNN is the refinement test in its forward-kNN form — d_k(x) ≥ dq
// read off the k-th neighbor, trivially true when fewer than k other points
// exist. Querier.verify answers the same predicate by a bounded count; this
// form stays as the reference the count is checked against.
func verifyByKNN(ix index.Index, x *candidate, k int) bool {
	nn := ix.KNN(x.point, k, x.id)
	return len(nn) < k || nn[len(nn)-1].Dist >= x.dq
}

// batchCounting hands an index to core as one that wants its refinement
// counts in a batch (index.BatchCounter), answering each from the index's own
// CountCloser — the hand-off a federated index receives, with the single
// index's answers.
type batchCounting struct {
	index.Index
	batches, probes int
}

// IDSpan and Live keep the wrapped index's member validation (an overlay's
// ID space outgrows Len) visible through the wrapper.
func (b *batchCounting) IDSpan() int {
	if lv, ok := b.Index.(index.Liveness); ok {
		return lv.IDSpan()
	}
	return b.Len()
}

func (b *batchCounting) Live(id int) bool {
	if lv, ok := b.Index.(index.Liveness); ok {
		return lv.Live(id)
	}
	return true
}

func (b *batchCounting) CountCloserBatch(_ context.Context, qs []index.CountQuery) []int {
	b.batches++
	b.probes += len(qs)
	out := make([]int, len(qs))
	for i, q := range qs {
		out[i] = b.Index.CountCloser(q.Point, q.Radius, q.Limit, q.Skip, nil)
	}
	return out
}

// checkVerifyForms decodes data into a small dataset on a coarse integer
// grid — duplicates and exact distance ties everywhere — and requires the
// count form and the kNN form of the refinement test to agree for every
// (query, candidate) pair on every exact back-end, bare and under a dirty
// overlay; and the two ways core refines — candidate by candidate, or all
// unsettled candidates handed to the index in one batch — to produce the
// same result and the same Stats for every member query, RDT and RDT+.
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
		for _, plus := range []bool{false, true} {
			// t=1 leaves candidates unsettled, so there is a batch to hand off.
			params := Params{K: k, T: 1, Plus: plus}
			single, err := NewQuerier(ix, params)
			if err != nil {
				t.Fatalf("%s: NewQuerier: %v", name, err)
			}
			bc := &batchCounting{Index: ix}
			batched, err := NewQuerier(bc, params)
			if err != nil {
				t.Fatalf("%s: NewQuerier: %v", name, err)
			}
			verified := 0
			for a := range pts {
				if !live(a) {
					continue
				}
				want, err := single.ByID(a)
				if err != nil {
					t.Fatalf("%s: ByID(%d): %v", name, a, err)
				}
				before := bc.batches
				got, err := batched.ByID(a)
				if err != nil {
					t.Fatalf("%s: batched ByID(%d): %v", name, a, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s k=%d plus=%v q=%d: batch refinement %+v, per-candidate %+v", name, k, plus, a, got, want)
				}
				if calls := bc.batches - before; calls > 1 || (calls == 1) != (want.Stats.Verified > 0) {
					t.Fatalf("%s k=%d plus=%v q=%d: %d batch calls for %d unsettled candidates, want one call when there are any", name, k, plus, a, calls, want.Stats.Verified)
				}
				verified += want.Stats.Verified
			}
			if bc.probes != verified {
				t.Fatalf("%s k=%d plus=%v: %d probes handed off, %d candidates verified", name, k, plus, bc.probes, verified)
			}
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
