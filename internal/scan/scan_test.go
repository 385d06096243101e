package scan

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/index"
	"repro/internal/vecmath"
)

func randPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, vecmath.Euclidean{}); err == nil {
		t.Error("accepted empty dataset")
	}
	if _, err := New([][]float64{{1}}, nil); err == nil {
		t.Error("accepted nil metric")
	}
	if _, err := New([][]float64{{1, 2}, {3}}, vecmath.Euclidean{}); err == nil {
		t.Error("accepted ragged dataset")
	}
	if _, err := New([][]float64{{math.NaN()}}, vecmath.Euclidean{}); err == nil {
		t.Error("accepted NaN coordinates")
	}
}

func TestAccessors(t *testing.T) {
	pts := randPoints(20, 4, 1)
	ix, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 20 || ix.Dim() != 4 {
		t.Errorf("Len/Dim = %d/%d, want 20/4", ix.Len(), ix.Dim())
	}
	if ix.Metric().Name() != "euclidean" {
		t.Errorf("Metric = %s", ix.Metric().Name())
	}
	if !reflect.DeepEqual(ix.Point(3), pts[3]) {
		t.Error("Point should return the row's coordinates")
	}
	// Rows are retained by reference, as the facade documents, not copied.
	if &ix.Point(3)[0] != &pts[3][0] {
		t.Error("Point should return the caller's row, not a copy")
	}
}

func TestCursorOrderingAndSkip(t *testing.T) {
	pts := randPoints(50, 3, 2)
	ix, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	q := pts[7]
	cur := ix.NewCursor(q, 7)
	prev := -1.0
	seen := map[int]bool{}
	count := 0
	for {
		nb, ok := cur.Next()
		if !ok {
			break
		}
		count++
		if nb.ID == 7 {
			t.Fatal("cursor returned the skipped ID")
		}
		if nb.Dist < prev {
			t.Fatalf("cursor out of order: %g after %g", nb.Dist, prev)
		}
		if seen[nb.ID] {
			t.Fatalf("cursor repeated ID %d", nb.ID)
		}
		seen[nb.ID] = true
		prev = nb.Dist
	}
	if count != 49 {
		t.Errorf("cursor yielded %d items, want 49", count)
	}
}

// TestCursorStrictOrderAcrossChunks checks the cursor against a full sort in
// strict (distance, ID) order on a tie-heavy grid, at sizes on either side of
// the kernel chunk, for external and member queries, with and without
// tombstones: every query takes the one chunked batch path, and excluded rows
// are dropped after it.
func TestCursorStrictOrderAcrossChunks(t *testing.T) {
	for _, metric := range []vecmath.Metric{vecmath.Euclidean{}, vecmath.Minkowski{P: 3}} {
		for _, n := range []int{1, 2, cursorChunk - 1, cursorChunk, cursorChunk + 1, 2*cursorChunk + 37} {
			rng := rand.New(rand.NewSource(int64(n)))
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = []float64{float64(rng.Intn(4)), float64(rng.Intn(3)), float64(rng.Intn(3))}
			}
			ix, err := New(pts, metric)
			if err != nil {
				t.Fatal(err)
			}
			for _, tombstones := range []int{0, n / 5} {
				for id := 0; id < tombstones; id++ {
					ix.Delete(id * 3 % n)
				}
				for _, skipID := range []int{-1, n - 1} {
					var want []index.Neighbor
					for id, p := range pts {
						if id != skipID && ix.Live(id) {
							want = append(want, index.Neighbor{ID: id, Dist: metric.Distance(pts[n-1], p)})
						}
					}
					sort.Slice(want, func(i, j int) bool {
						if want[i].Dist != want[j].Dist {
							return want[i].Dist < want[j].Dist
						}
						return want[i].ID < want[j].ID
					})
					cur := ix.NewCursor(pts[n-1], skipID)
					for i, w := range want {
						if got, ok := cur.Next(); !ok || got != w {
							t.Fatalf("%s n=%d tombstones=%d skip=%d: position %d = %+v (ok=%v), want %+v",
								metric.Name(), n, tombstones, skipID, i, got, ok, w)
						}
					}
					if extra, ok := cur.Next(); ok {
						t.Fatalf("%s n=%d tombstones=%d skip=%d: cursor yielded %+v past the live rows",
							metric.Name(), n, tombstones, skipID, extra)
					}
					cur.Close() // the next index, of another size, heapifies this cursor's item array
				}
			}
		}
	}
}

// TestCursorCloseRecycles pins the pooled cursor's lifecycle: closed
// mid-stream it reports exhausted and shrugs a second Close off; the next
// cursors opened — on a smaller index and on a larger one than the recycled
// item array was sized for — stream correctly, each on its own memory; and a
// cursor that is never closed stays valid beside them.
func TestCursorCloseRecycles(t *testing.T) {
	metric := vecmath.Euclidean{}
	sizes := []int{300, 40, 900}
	var ixs []*Index
	var pts [][][]float64
	for i, n := range sizes {
		p := randPoints(n, 3+2*i, int64(50+i))
		ix, err := New(p, metric)
		if err != nil {
			t.Fatal(err)
		}
		ixs, pts = append(ixs, ix), append(pts, p)
	}
	unclosed := ixs[0].NewCursor(pts[0][1], 1)
	unclosed.Next()

	c := ixs[0].NewCursor(pts[0][0], 0)
	for i := 0; i < 10; i++ {
		c.Next()
	}
	c.Close()
	if nb, ok := c.Next(); ok {
		t.Fatalf("Next after Close returned %+v", nb)
	}
	c.Close() // a no-op: the cursor must not enter the pool a second time

	var open []index.Cursor
	for i, ix := range []*Index{ixs[1], ixs[2], ixs[1], ixs[2]} { // were c pooled twice, two of these would share it
		p := pts[1+i%2]
		cur := ix.NewCursor(p[5], 5)
		open = append(open, cur)
		prev := index.Neighbor{ID: -1, Dist: -1}
		for j := 0; j < 30; j++ {
			nb, ok := cur.Next()
			if !ok || nb.Dist != metric.Distance(p[5], p[nb.ID]) || nb.Dist < prev.Dist || nb.ID == 5 {
				t.Fatalf("cursor %d row %d: %+v (ok=%v) after %+v", i, j, nb, ok, prev)
			}
			prev = nb
		}
	}
	for i, cur := range open { // all still open, all still their own
		p := pts[1+i%2]
		rest := 0
		for nb, ok := cur.Next(); ok; nb, ok = cur.Next() {
			if nb.Dist != metric.Distance(p[5], p[nb.ID]) {
				t.Fatalf("cursor %d after the others were opened: %+v", i, nb)
			}
			rest++
		}
		if rest != len(p)-1-30 {
			t.Fatalf("cursor %d yielded %d more rows, want %d", i, rest, len(p)-1-30)
		}
		cur.Close()
	}
	if nb, ok := unclosed.Next(); !ok || nb.Dist != metric.Distance(pts[0][1], pts[0][nb.ID]) {
		t.Fatalf("unclosed cursor disturbed: %+v (ok=%v)", nb, ok)
	}
}

func TestKNNMatchesCursor(t *testing.T) {
	pts := randPoints(80, 5, 3)
	ix, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	q := pts[0]
	for _, k := range []int{1, 5, 79, 200} {
		knn := ix.KNN(q, k, 0)
		cur := ix.NewCursor(q, 0)
		for i := range knn {
			nb, ok := cur.Next()
			if !ok {
				t.Fatalf("cursor exhausted at %d", i)
			}
			if math.Abs(nb.Dist-knn[i].Dist) > 1e-12 {
				t.Fatalf("k=%d pos=%d: KNN dist %g, cursor dist %g", k, i, knn[i].Dist, nb.Dist)
			}
		}
		wantLen := k
		if k > 79 {
			wantLen = 79
		}
		if len(knn) != wantLen {
			t.Errorf("k=%d: len %d, want %d", k, len(knn), wantLen)
		}
	}
	if got := ix.KNN(q, 0, -1); got != nil {
		t.Errorf("KNN with k=0 = %v, want nil", got)
	}
}

func TestDynamicInsertDelete(t *testing.T) {
	pts := randPoints(10, 3, 5)
	ix, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := ix.Insert([]float64{0.5, 0.5, 0.5})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if id != 10 || ix.Len() != 11 {
		t.Errorf("Insert id %d len %d, want 10 and 11", id, ix.Len())
	}
	if _, err := ix.Insert([]float64{1, 2}); err == nil {
		t.Error("Insert accepted wrong dimension")
	}
	if _, err := ix.Insert([]float64{math.NaN(), 0, 0}); err == nil {
		t.Error("Insert accepted NaN")
	}
	if !ix.Delete(3) {
		t.Error("Delete(3) reported false")
	}
	if ix.Delete(3) {
		t.Error("double Delete reported true")
	}
	if ix.Delete(-1) || ix.Delete(100) {
		t.Error("Delete out of range reported true")
	}
	if ix.Len() != 10 {
		t.Errorf("Len after delete = %d, want 10", ix.Len())
	}
	// Deleted points must vanish from all query paths.
	q := pts[3]
	for _, nb := range ix.KNN(q, 11, -1) {
		if nb.ID == 3 {
			t.Error("KNN returned deleted point")
		}
	}
	cur := ix.NewCursor(q, -1)
	for {
		nb, ok := cur.Next()
		if !ok {
			break
		}
		if nb.ID == 3 {
			t.Error("cursor returned deleted point")
		}
	}
	if ix.CountCloser(q, math.SmallestNonzeroFloat64, 11, -1, nil) != 0 {
		t.Error("CountCloser found the deleted point at distance 0")
	}
}

// TestCloneAndTombstonedCountCloser checks a clone both ways — its inserts
// and deletes are invisible to the original and the original's to it —
// and holds KNN and CountCloser on both, with index tombstones and a dead
// set, member and outside queries, to a brute-force count under every
// metric with a batch kernel.
func TestCloneAndTombstonedCountCloser(t *testing.T) {
	for _, m := range []vecmath.Metric{vecmath.Euclidean{}, vecmath.SquaredEuclidean{}, vecmath.Manhattan{}, vecmath.Chebyshev{}} {
		t.Run(m.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(71))
			pts := randPoints(300, 6, 9)
			orig, err := New(pts, m)
			if err != nil {
				t.Fatal(err)
			}
			for id := 0; id < 300; id += 17 {
				orig.Delete(id)
			}
			cl := orig.Clone().(*Index)
			for range 40 {
				p := randPoints(1, 6, rng.Int63())[0]
				if _, err := cl.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			for id := 5; id < 300; id += 23 {
				cl.Delete(id)
			}
			orig.Delete(1)
			if orig.IDSpan() != 300 || cl.IDSpan() != 340 {
				t.Fatalf("IDSpan %d/%d, want 300/340", orig.IDSpan(), cl.IDSpan())
			}
			if !orig.Live(5) || !cl.Live(1) {
				t.Fatal("a delete on one side of the clone reached the other")
			}
			dead := new(index.Tombstones)
			for id := 3; id < 340; id += 29 {
				dead.Add(id)
			}
			for _, ix := range []*Index{orig, cl} {
				for trial := range 40 {
					q := randPoints(1, 6, rng.Int63())[0]
					skipID := -1
					if trial%3 == 0 {
						skipID = rng.Intn(ix.IDSpan())
						q = ix.Point(skipID)
					}
					var all []float64
					for id := range ix.IDSpan() {
						if ix.Live(id) && id != skipID {
							all = append(all, m.Distance(q, ix.Point(id)))
						}
					}
					sort.Float64s(all)
					k := 1 + rng.Intn(12)
					knn := ix.KNN(q, k, skipID)
					if len(knn) != k || knn[k-1].Dist != all[k-1] {
						t.Fatalf("KNN(k=%d) = %v, want k-th distance %g", k, knn, all[k-1])
					}
					for _, r := range []float64{rng.Float64() * 0.8, all[k-1]} {
						want := 0
						for id := range ix.IDSpan() {
							if ix.Live(id) && id != skipID && !dead.Has(id) && m.Distance(q, ix.Point(id)) < r {
								want++
							}
						}
						for _, limit := range []int{1 + rng.Intn(40), ix.IDSpan()} {
							if got := ix.CountCloser(q, r, limit, skipID, dead); got != min(want, limit) {
								t.Fatalf("CountCloser(r=%g, limit=%d) = %d, want %d", r, limit, got, min(want, limit))
							}
						}
					}
				}
			}
		})
	}
}
