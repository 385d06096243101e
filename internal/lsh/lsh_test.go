package lsh

import (
	"math"
	"sync"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/indextest"
	"repro/internal/scan"
	"repro/internal/vecmath"
)

func TestNewValidation(t *testing.T) {
	pts := indextest.RandPoints(10, 3, 1)
	if _, err := New(nil, vecmath.Euclidean{}, DefaultOptions()); err == nil {
		t.Error("accepted empty dataset")
	}
	if _, err := New(pts, nil, DefaultOptions()); err == nil {
		t.Error("accepted nil metric")
	}
	if _, err := New(pts, vecmath.Manhattan{}, DefaultOptions()); err == nil {
		t.Error("accepted non-Euclidean metric")
	}
	bad := DefaultOptions()
	bad.Tables = 0
	if _, err := New(pts, vecmath.Euclidean{}, bad); err == nil {
		t.Error("accepted zero tables")
	}
	bad = DefaultOptions()
	bad.Hashes = 0
	if _, err := New(pts, vecmath.Euclidean{}, bad); err == nil {
		t.Error("accepted zero hashes")
	}
	bad = DefaultOptions()
	bad.Width = math.NaN()
	if _, err := New(pts, vecmath.Euclidean{}, bad); err == nil {
		t.Error("accepted NaN width")
	}
}

func TestCursorOrderingAndDedup(t *testing.T) {
	pts := indextest.ClusteredPoints(500, 6, 5, 3)
	ix, err := New(pts, vecmath.Euclidean{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cur := ix.NewCursor(pts[0], 0)
	prev := -1.0
	seen := map[int]bool{}
	for {
		nb, ok := cur.Next()
		if !ok {
			break
		}
		if nb.ID == 0 {
			t.Fatal("cursor returned skipped id")
		}
		if seen[nb.ID] {
			t.Fatalf("cursor repeated id %d", nb.ID)
		}
		if nb.Dist < prev {
			t.Fatalf("cursor out of order: %g after %g", nb.Dist, prev)
		}
		if want := (vecmath.Euclidean{}).Distance(pts[0], pts[nb.ID]); math.Abs(want-nb.Dist) > 1e-9 {
			t.Fatalf("distance mismatch for id %d", nb.ID)
		}
		seen[nb.ID] = true
		prev = nb.Dist
	}
	if len(seen) == 0 {
		t.Fatal("cursor yielded nothing; the query's own bucket must at least collide with near duplicates")
	}
}

// TestKNNCandidateRecall measures the approximation quality of the hash
// tables themselves: on clustered data the true nearest neighbors land in
// the query's buckets most of the time.
func TestKNNCandidateRecall(t *testing.T) {
	pts := indextest.ClusteredPoints(2000, 8, 10, 7)
	ix, err := New(pts, vecmath.Euclidean{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := scan.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	k := 10
	var hit, total int
	for qid := 0; qid < 50; qid++ {
		want := ref.KNN(pts[qid], k, qid)
		got := ix.KNN(pts[qid], k, qid)
		gotSet := map[int]bool{}
		for _, nb := range got {
			gotSet[nb.ID] = true
		}
		for _, nb := range want {
			total++
			if gotSet[nb.ID] {
				hit++
			}
		}
	}
	recall := float64(hit) / float64(total)
	if recall < 0.8 {
		t.Errorf("candidate kNN recall %.3f, want >= 0.8 on clustered data", recall)
	}
}

// TestRDTOverLSH is the paper's claim (iii) end to end: RDT+ running over
// approximate neighbor rankings still reaches useful recall with perfect-
// precision-free semantics left to the approximation.
func TestRDTOverLSH(t *testing.T) {
	pts := indextest.ClusteredPoints(1500, 6, 8, 9)
	ix, err := New(pts, vecmath.Euclidean{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	qr, err := core.NewQuerier(ix, core.Params{K: 10, T: 8, Plus: true})
	if err != nil {
		t.Fatal(err)
	}
	var recallSum float64
	const queries = 30
	for qid := 0; qid < queries; qid++ {
		res, err := qr.ByID(qid)
		if err != nil {
			t.Fatal(err)
		}
		want, err := truth.RkNNByID(qid, 10)
		if err != nil {
			t.Fatal(err)
		}
		recallSum += bruteforce.Recall(res.IDs, want)
	}
	if mean := recallSum / queries; mean < 0.7 {
		t.Errorf("RDT+ over LSH mean recall %.3f, want >= 0.7", mean)
	}
}

// TestKeyEncodesAllEightBytes is the regression for the bucket-key
// truncation bug: the quantized projection value was encoded as only its
// low 4 bytes, so hash values exactly 2^32 apart aliased into one bucket.
// With a unit projection and unit width the quantized value is the
// coordinate itself, so coordinates 1 and 1+2^32 must produce different
// keys (they differ only above bit 31).
func TestKeyEncodesAllEightBytes(t *testing.T) {
	tb := table{projs: [][]float64{{1}}, offsets: []float64{0}}
	near := tb.appendKey(nil, []float64{1}, 1)
	far := tb.appendKey(nil, []float64{1 + math.Exp2(32)}, 1)
	if string(near) == string(far) {
		t.Fatal("coordinates 2^32 apart alias into one bucket key")
	}
	if len(near) != 8 {
		t.Fatalf("key is %d bytes per hash, want 8", len(near))
	}
	// End to end: far-apart coordinates must not collide into shared
	// buckets, so a query in one cluster never surfaces the other.
	pts := [][]float64{}
	for i := 0; i < 8; i++ {
		pts = append(pts, []float64{float64(i) * 0.25})
	}
	for i := 0; i < 8; i++ {
		pts = append(pts, []float64{math.Exp2(32) + float64(i)*0.25})
	}
	ix, err := New(pts, vecmath.Euclidean{}, Options{Tables: 4, Hashes: 1, Width: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range ix.KNN(pts[0], len(pts), 0) {
		if nb.ID >= 8 {
			t.Fatalf("a query in the origin cluster surfaced far point %d (dist %g)", nb.ID, nb.Dist)
		}
	}
}

// TestDegenerateAutoWidth pins the documented floor: a constant dataset has
// no positive nearest-neighbor distance to tune from, so the automatic
// width selection settles on DegenerateWidth and the index stays fully
// functional (exact duplicates share every bucket at any width).
func TestDegenerateAutoWidth(t *testing.T) {
	pts := make([][]float64, 60)
	for i := range pts {
		pts[i] = []float64{3, 1, 4}
	}
	ix, err := New(pts, vecmath.Euclidean{}, DefaultOptions())
	if err != nil {
		t.Fatalf("New on a constant dataset: %v", err)
	}
	if ix.Width() != DegenerateWidth {
		t.Errorf("Width() = %g on constant data, want the documented floor %g", ix.Width(), DegenerateWidth)
	}
	if got := duplicates(ix, pts[0], 0); got != 59 {
		t.Errorf("constant data: %d duplicates counted, want 59", got)
	}
	if got := ix.KNN(pts[0], 5, 0); len(got) != 5 || got[0].Dist != 0 {
		t.Errorf("KNN on constant data = %v", got)
	}
}

// TestDynamicInsertDelete exercises the index.Dynamic surface: inserted
// points are hashed into every table and immediately retrievable, deletes
// tombstone without renumbering, and liveness reports the span correctly.
func TestDynamicInsertDelete(t *testing.T) {
	pts := indextest.ClusteredPoints(300, 5, 4, 17)
	ix, err := New(pts, vecmath.Euclidean{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// A duplicate of an existing point lands in exactly its buckets, so
	// the collision is guaranteed regardless of hashing.
	dup := append([]float64(nil), pts[10]...)
	id, err := ix.Insert(dup)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if id != 300 {
		t.Fatalf("Insert assigned id %d, want 300", id)
	}
	if ix.Len() != 301 || ix.IDSpan() != 301 || !ix.Live(id) {
		t.Fatalf("after insert: Len=%d IDSpan=%d Live=%v", ix.Len(), ix.IDSpan(), ix.Live(id))
	}
	found := false
	for _, nb := range ix.KNN(pts[10], 3, 10) {
		if nb.ID == id && nb.Dist == 0 {
			found = true
		}
	}
	if !found {
		t.Error("inserted duplicate not retrieved by KNN at its own location")
	}

	if !ix.Delete(id) {
		t.Fatal("Delete of a live id reported false")
	}
	if ix.Delete(id) {
		t.Error("double Delete reported true")
	}
	if ix.Len() != 300 || ix.IDSpan() != 301 || ix.Live(id) {
		t.Fatalf("after delete: Len=%d IDSpan=%d Live=%v", ix.Len(), ix.IDSpan(), ix.Live(id))
	}
	for _, nb := range ix.KNN(pts[10], 5, 10) {
		if nb.ID == id {
			t.Error("deleted id still surfaced by KNN")
		}
	}
	if cur := ix.NewCursor(pts[10], 10); cur != nil {
		for {
			nb, ok := cur.Next()
			if !ok {
				break
			}
			if nb.ID == id {
				t.Error("deleted id still surfaced by cursor")
			}
		}
	}

	// Validation: wrong dimension and non-finite coordinates are rejected
	// before any table is touched.
	if _, err := ix.Insert([]float64{1}); err == nil {
		t.Error("Insert accepted a wrong-dimension point")
	}
	if _, err := ix.Insert([]float64{1, 2, math.NaN(), 4, 5}); err == nil {
		t.Error("Insert accepted a NaN coordinate")
	}
}

// TestCloneIsolation pins the copy-on-write contract: mutations on a clone
// are invisible to the original and vice versa, including inserts into
// bucket slices the two share.
func TestCloneIsolation(t *testing.T) {
	pts := indextest.ClusteredPoints(200, 4, 3, 23)
	orig, err := New(pts, vecmath.Euclidean{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	clone := orig.Clone().(*Index)

	// Insert a duplicate of point 0 into the clone: it lands in buckets
	// whose ID slices are shared with the original, so an in-place append
	// would corrupt the original.
	dup := append([]float64(nil), pts[0]...)
	id, err := clone.Insert(dup)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Len() != 200 || orig.IDSpan() != 200 {
		t.Fatalf("original grew after clone insert: Len=%d IDSpan=%d", orig.Len(), orig.IDSpan())
	}
	if got := duplicates(orig, pts[0], 0); got != 0 {
		t.Errorf("original sees %d duplicates of point 0 after clone insert, want 0", got)
	}
	if got := duplicates(clone, pts[0], 0); got != 1 {
		t.Errorf("clone sees %d duplicates of point 0, want 1", got)
	}

	// Delete on the original is invisible to the clone.
	if !orig.Delete(5) {
		t.Fatal("Delete(5) on original failed")
	}
	if !clone.Live(5) {
		t.Error("delete on the original leaked into the clone")
	}
	if clone.Delete(id); clone.Live(id) {
		t.Error("clone delete did not apply")
	}
}

// TestCloneRows runs the shared clone-rows case, which an approximate
// back-end passes as an exact one does.
func TestCloneRows(t *testing.T) {
	indextest.CloneRows(t, func(pts [][]float64, m vecmath.Metric) (index.Index, error) {
		return New(pts, m, DefaultOptions())
	})
}

// TestCloneSharesTombstones runs the shared clone-tombstones case: a Clone
// costs the same with 1 000 tombstones as with none.
func TestCloneSharesTombstones(t *testing.T) {
	indextest.CloneSharesTombstones(t, func(pts [][]float64, m vecmath.Metric) (index.Index, error) {
		return New(pts, m, DefaultOptions())
	})
}

// TestConcurrentQueriesSharePool races parallel queries over the pooled
// candidate sets; the -race build verifies the pool hands each query an
// exclusive set.
func TestConcurrentQueriesSharePool(t *testing.T) {
	pts := indextest.ClusteredPoints(400, 6, 5, 29)
	ix, err := New(pts, vecmath.Euclidean{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				qid := (w*53 + i) % len(pts)
				nn := ix.KNN(pts[qid], 10, qid)
				for j := 1; j < len(nn); j++ {
					if nn[j].Dist < nn[j-1].Dist {
						t.Error("KNN out of order under concurrency")
						return
					}
				}
				if len(nn) > 0 && ix.CountCloser(pts[qid], nn[len(nn)-1].Dist, len(nn), qid, nil) >= len(nn) {
					t.Error("CountCloser counted the last KNN candidate as closer than itself under concurrency")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// duplicates counts the candidates of q at distance 0 from it, other than
// skipID: those strictly closer than the least positive distance.
func duplicates(ix *Index, q []float64, skipID int) int {
	return ix.CountCloser(q, math.SmallestNonzeroFloat64, ix.IDSpan(), skipID, nil)
}

func TestDuplicateHeavyData(t *testing.T) {
	pts := make([][]float64, 200)
	for i := range pts {
		pts[i] = []float64{float64(i % 4), 0, 0}
	}
	ix, err := New(pts, vecmath.Euclidean{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Exact duplicates always share every bucket, so the count at distance
	// 0 finds all 49 other copies.
	if got := duplicates(ix, pts[0], 0); got != 49 {
		t.Errorf("%d duplicates counted, want 49", got)
	}
	if got := ix.KNN(pts[0], 3, 0); len(got) != 3 || got[0].Dist != 0 {
		t.Errorf("KNN on duplicates = %v", got)
	}
}

// TestCountCloserSettlesLikeKNN pins that the count form of the refinement
// test decides over the same candidate set KNN ranks: for member probes at
// radii taken from the candidates' own distances (ties included),
// CountCloser(x, r, k, x) < k holds exactly when the KNN form
// len(nn) < k || nn[k-1].Dist >= r does — so swapping the forms cannot move
// an approximate answer.
func TestCountCloserSettlesLikeKNN(t *testing.T) {
	pts := indextest.ClusteredPoints(600, 5, 6, 31)
	for i := 0; i < 40; i++ { // duplicates make distance ties
		pts = append(pts, vecmath.Clone(pts[i%7]))
	}
	ix, err := New(pts, vecmath.Euclidean{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < len(pts); id += 23 {
		ix.Delete(id)
	}
	for x := 1; x < len(pts); x += 5 {
		all := ix.KNN(pts[x], len(pts), x)
		for _, k := range []int{1, 3, 10} {
			nn := all
			if k < len(nn) {
				nn = nn[:k]
			}
			radii := []float64{0, 0.01, 10}
			for _, nb := range nn {
				radii = append(radii, nb.Dist)
			}
			for _, r := range radii {
				want := len(nn) < k || nn[k-1].Dist >= r
				if got := ix.CountCloser(pts[x], r, k, x, nil) < k; got != want {
					t.Fatalf("x=%d k=%d r=%g: count form accepts=%v, kNN form accepts=%v", x, k, r, got, want)
				}
			}
		}
	}
}
