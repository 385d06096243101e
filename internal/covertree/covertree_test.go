package covertree

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/indextest"
	"repro/internal/vecmath"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, func(pts [][]float64, m vecmath.Metric) (index.Index, error) {
		return New(pts, m)
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, vecmath.Euclidean{}); err == nil {
		t.Error("accepted empty dataset")
	}
	if _, err := New([][]float64{{1}}, nil); err == nil {
		t.Error("accepted nil metric")
	}
	if _, err := New([][]float64{{1}}, vecmath.SquaredEuclidean{}); err == nil {
		t.Error("accepted a non-metric distance")
	}
	if _, err := New([][]float64{{math.NaN()}}, vecmath.Euclidean{}); err == nil {
		t.Error("accepted NaN coordinates")
	}
}

func TestInvariantsAfterBuild(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		pts := indextest.ClusteredPoints(300, 4, 6, seed)
		tree, err := New(pts, vecmath.Euclidean{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestInvariantsProperty drives random build orders and dimension choices
// through the structural checker.
func TestInvariantsProperty(t *testing.T) {
	property := func(seed int64, dimRaw, nRaw uint8) bool {
		dim := int(dimRaw%6) + 1
		n := int(nRaw%150) + 2
		pts := indextest.RandPoints(n, dim, seed)
		tree, err := New(pts, vecmath.Euclidean{})
		if err != nil {
			return false
		}
		return tree.CheckInvariants() == nil
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDynamicInsert(t *testing.T) {
	pts := indextest.RandPoints(50, 3, 9)
	tree, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	// Insert a far-away point to force a root raise.
	id, err := tree.Insert([]float64{100, 100, 100})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if id != 50 || tree.Len() != 51 {
		t.Fatalf("Insert id %d len %d", id, tree.Len())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("after insert: %v", err)
	}
	nn := tree.KNN([]float64{101, 101, 101}, 1, -1)
	if len(nn) != 1 || nn[0].ID != 50 {
		t.Errorf("KNN after insert = %v, want id 50", nn)
	}
	if _, err := tree.Insert([]float64{1, 2}); err == nil {
		t.Error("accepted dimension mismatch")
	}
	if _, err := tree.Insert([]float64{math.Inf(1), 0, 0}); err == nil {
		t.Error("accepted Inf coordinate")
	}
}

func TestDelete(t *testing.T) {
	pts := indextest.RandPoints(40, 2, 11)
	tree, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Delete(5) {
		t.Fatal("Delete(5) = false")
	}
	if tree.Delete(5) {
		t.Error("double delete = true")
	}
	if tree.Delete(-1) || tree.Delete(99) {
		t.Error("out-of-range delete = true")
	}
	if tree.Len() != 39 {
		t.Errorf("Len = %d, want 39", tree.Len())
	}
	// The deleted point must not appear in any query result.
	q := pts[5]
	for _, nb := range tree.KNN(q, 40, -1) {
		if nb.ID == 5 {
			t.Error("KNN returned deleted id")
		}
	}
	if got := tree.CountRange(q, 0, -1); got != 0 {
		t.Errorf("CountRange at deleted point = %d, want 0", got)
	}
	cur := tree.NewCursor(q, -1)
	count := 0
	for {
		nb, ok := cur.Next()
		if !ok {
			break
		}
		if nb.ID == 5 {
			t.Error("cursor returned deleted id")
		}
		count++
	}
	if count != 39 {
		t.Errorf("cursor yielded %d, want 39", count)
	}
}

// TestInsertDeleteInterleaved checks that the index remains consistent under
// a mixed update stream, mirroring the dynamic scenario of the paper
// (Section 1: data warehouses, data streams).
func TestInsertDeleteInterleaved(t *testing.T) {
	pts := indextest.RandPoints(30, 3, 13)
	tree, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	alive := make(map[int]bool)
	for i := range pts {
		alive[i] = true
	}
	extra := indextest.RandPoints(30, 3, 14)
	for i, p := range extra {
		id, err := tree.Insert(p)
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		alive[id] = true
		if i%2 == 0 {
			victim := i // delete an original point
			if tree.Delete(victim) {
				delete(alive, victim)
			}
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if tree.Len() != len(alive) {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(alive))
	}
	cur := tree.NewCursor(extra[0], -1)
	got := 0
	for {
		nb, ok := cur.Next()
		if !ok {
			break
		}
		if !alive[nb.ID] {
			t.Errorf("cursor returned dead id %d", nb.ID)
		}
		got++
	}
	if got != len(alive) {
		t.Errorf("cursor yielded %d, want %d", got, len(alive))
	}
}

func TestLevelFor(t *testing.T) {
	cases := []struct {
		d    float64
		want int
	}{
		{1, 0},
		{1.5, 1},
		{2, 1},
		{3, 2},
		{0.5, -1},
		{0.3, -1},
	}
	for _, tc := range cases {
		if got := levelFor(tc.d); got != tc.want {
			t.Errorf("levelFor(%g) = %d, want %d", tc.d, got, tc.want)
		}
	}
	if got := levelFor(0); math.Exp2(float64(got)) != 0 {
		t.Errorf("levelFor(0) should give an underflowing level, got %d", got)
	}
}

// TestCursorExpandsWideNodes streams a tree whose root has more children
// than one kernel call measures — the origin and 2·expandChunk+3 mutually
// distant unit vectors — from a tree that is built, cloned and restored, under
// a metric with a batch kernel and one without: every path must resolve its
// kernels, and the chunked expansion must lose no child.
func TestCursorExpandsWideNodes(t *testing.T) {
	dim := 2*expandChunk + 3
	pts := [][]float64{make([]float64, dim)}
	for i := 0; i < dim; i++ {
		p := make([]float64, dim)
		p[i] = 1 - float64(i)/float64(4*dim)
		pts = append(pts, p)
	}
	for _, metric := range []vecmath.Metric{vecmath.Euclidean{}, vecmath.Minkowski{P: 3}} {
		built, err := New(pts, metric)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(built.root.children); n <= expandChunk {
			t.Fatalf("root has %d children, want more than expandChunk=%d", n, expandChunk)
		}
		restored, err := Restore(pts, metric, nil, built.EncodeStructure())
		if err != nil {
			t.Fatal(err)
		}
		for name, tree := range map[string]index.Index{"built": built, "clone": built.Clone(), "restored": restored} {
			q := pts[3]
			cur := tree.NewCursor(q, 3)
			prev := index.Neighbor{ID: -1, Dist: -1}
			count := 0
			for nb, ok := cur.Next(); ok; nb, ok = cur.Next() {
				if want := metric.Distance(q, pts[nb.ID]); nb.Dist != want {
					t.Fatalf("%s %s: id %d at %v, Distance says %v", metric.Name(), name, nb.ID, nb.Dist, want)
				}
				if nb.Dist < prev.Dist || nb.Dist == prev.Dist && nb.ID < prev.ID {
					t.Fatalf("%s %s: %+v after %+v", metric.Name(), name, nb, prev)
				}
				prev = nb
				count++
			}
			if count != len(pts)-1 {
				t.Fatalf("%s %s: cursor yielded %d of %d points", metric.Name(), name, count, len(pts)-1)
			}
			if got := len(tree.KNN(q, 5, 3)); got != 5 {
				t.Fatalf("%s %s: KNN returned %d of 5", metric.Name(), name, got)
			}
		}
	}
}
