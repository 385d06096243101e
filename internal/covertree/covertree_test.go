package covertree

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
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
	if got := tree.CountCloser(q, math.SmallestNonzeroFloat64, 40, -1, nil); got != 0 {
		t.Errorf("CountCloser counted %d points at the deleted point's distance 0, want 0", got)
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
		want int32
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
// kernels, and the chunked expansion must lose no child. Every query form
// goes through that expansion, so the same trees answer CountCloser — against
// the scalar depth-first walk it replaced and against brute force, with limits
// that are reached in the middle of a chunk — KNN and Range, before and after
// two of the root's children are tombstoned.
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
		restored, err := Restore(pts, metric, built.EncodeStructure())
		if err != nil {
			t.Fatal(err)
		}
		for name, tree := range map[string]*Tree{"built": built, "clone": built.Clone().(*Tree), "restored": restored} {
			label := metric.Name() + " " + name
			checkWideTree(t, label, tree, pts, metric)
			for _, id := range []int{2, expandChunk + 4} {
				if !tree.Delete(id) {
					t.Fatalf("%s: Delete(%d) failed", label, id)
				}
			}
			checkWideTree(t, label+" with tombstones", tree, pts, metric)
		}
	}
}

// checkWideTree compares every query form of tree with brute force over its
// live points, from the member pts[3] and from a point outside the dataset.
func checkWideTree(t *testing.T, label string, tree *Tree, pts [][]float64, metric vecmath.Metric) {
	t.Helper()
	outside := make([]float64, len(pts[0]))
	for j := range outside {
		outside[j] = 0.1 + 0.01*float64(j%7)
	}
	for _, query := range []struct {
		q      []float64
		skipID int
	}{{pts[3], 3}, {outside, -1}} {
		q, skipID := query.q, query.skipID
		want := liveSorted(tree, pts, metric, q, skipID)
		cur := tree.NewCursor(q, skipID)
		for i, w := range want {
			if got, ok := cur.Next(); !ok || got != w {
				t.Fatalf("%s, skip %d: cursor position %d = %+v (ok=%v), want %+v", label, skipID, i, got, ok, w)
			}
		}
		if extra, ok := cur.Next(); ok {
			t.Fatalf("%s, skip %d: cursor yielded %+v past the dataset", label, skipID, extra)
		}
		cur.Close()
		if got := tree.KNN(q, 5, skipID); !reflect.DeepEqual(got, want[:5]) {
			t.Fatalf("%s, skip %d: KNN = %v, want %v", label, skipID, got, want[:5])
		}
		mid := want[len(want)/2].Dist

		// Radii at, between and beyond the distances present (a radius equal
		// to a distance is where the strict comparison shows); limits below
		// one chunk, inside the second and third, and beyond the dataset.
		radii := []float64{0, want[0].Dist, mid, (mid + want[len(want)-1].Dist) / 2, want[len(want)-1].Dist, math.Inf(1)}
		for _, dead := range []*index.Tombstones{nil, indextest.Tombstones(7, expandChunk+9, want[0].ID)} {
			for _, r := range radii {
				count := 0
				for _, w := range want {
					if w.Dist < r && !dead.Has(w.ID) {
						count++
					}
				}
				for _, limit := range []int{0, 1, expandChunk - 1, expandChunk + 4, 2*expandChunk + 1, len(pts) + 3} {
					got := tree.CountCloser(q, r, limit, skipID, dead)
					if ref := scalarCountCloser(tree, q, r, limit, skipID, dead); got != ref || got != min(count, limit) {
						t.Fatalf("%s: CountCloser(r=%v, limit=%d, skip=%d, dead=%v) = %d, scalar walk %d, brute force %d",
							label, r, limit, skipID, dead.Sorted(), got, ref, min(count, limit))
					}
				}
			}
		}
	}
}

// liveSorted is the brute-force neighbor stream from q: tree's live points
// but skipID in strict (distance, ID) order.
func liveSorted(tree *Tree, pts [][]float64, metric vecmath.Metric, q []float64, skipID int) []index.Neighbor {
	var out []index.Neighbor
	for id, p := range pts {
		if id != skipID && tree.Live(id) {
			out = append(out, index.Neighbor{ID: id, Dist: metric.Distance(q, p)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// scalarCountCloser is CountCloser as it was before the chunked expansion: a
// depth-first walk measuring one child at a time through the metric itself.
func scalarCountCloser(t *Tree, q []float64, r float64, limit, skipID int, dead *index.Tombstones) int {
	n := 0
	var visit func(nd *node, d float64)
	visit = func(nd *node, d float64) {
		if id := int(nd.id); d < r && id != skipID && t.Live(id) && !dead.Has(id) {
			n++
		}
		for _, child := range nd.children {
			if n >= limit {
				return
			}
			dc := t.Metric().Distance(q, t.Point(int(child.id)))
			if dc-child.maxDist > r {
				continue
			}
			visit(child, dc)
		}
	}
	if limit > 0 {
		visit(t.root, t.Metric().Distance(q, t.Point(int(t.root.id))))
	}
	return n
}

// TestCountCloserMatchesScalarWalk runs the chunked CountCloser against the
// scalar walk and brute force on clustered data deep enough to recurse
// through many levels, built, cloned and grown by insertion, with tombstones.
func TestCountCloserMatchesScalarWalk(t *testing.T) {
	pts := indextest.ClusteredPoints(600, 6, 5, 17)
	metric := vecmath.Euclidean{}
	built, err := New(pts[:500], metric)
	if err != nil {
		t.Fatal(err)
	}
	tree := built.Clone().(*Tree)
	for _, p := range pts[500:] {
		if _, err := tree.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < len(pts); id += 9 {
		tree.Delete(id)
	}
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 300; trial++ {
		skipID := rng.Intn(len(pts))
		q := pts[skipID]
		r := metric.Distance(q, pts[rng.Intn(len(pts))]) // an exact distance: ties at r must not count
		limit := 1 + rng.Intn(40)
		var dead *index.Tombstones
		if trial%3 == 0 {
			dead = indextest.Tombstones(rng.Intn(len(pts)), rng.Intn(len(pts)))
		}
		count := 0
		for id, p := range pts {
			if id != skipID && tree.Live(id) && !dead.Has(id) && metric.Distance(q, p) < r {
				count++
			}
		}
		got := tree.CountCloser(q, r, limit, skipID, dead)
		if ref := scalarCountCloser(tree, q, r, limit, skipID, dead); got != ref || got != min(count, limit) {
			t.Fatalf("CountCloser(q=%d, r=%v, limit=%d, dead=%v) = %d, scalar walk %d, brute force %d",
				skipID, r, limit, dead.Sorted(), got, ref, min(count, limit))
		}
	}
	// The walk's per-level scratch is pooled: whatever comes back out of the
	// pool (a fresh one, if the pool dropped the used ones) holds no row.
	for _, level := range descentPool.Get().(*descent).levels {
		for _, row := range level.rows {
			if row != nil {
				t.Fatal("pooled descent scratch still references a dataset row")
			}
		}
	}
}

// TestCursorStrictOrderOnTies is the scan back-end's
// TestCursorStrictOrderAcrossChunks for the cover tree: on a coarse integer
// grid under metrics that keep distances and subtree bounds on a few exact
// values, a childless node — which skips the frontier and waits on the ready
// heap — is forever tied with the bound of a subtree still pending, and with
// points inside it that carry smaller IDs. The stream must be the full sort
// in strict (distance, ID) order all the same, for external and member
// queries, with and without tombstones.
func TestCursorStrictOrderOnTies(t *testing.T) {
	for _, metric := range []vecmath.Metric{vecmath.Manhattan{}, vecmath.Chebyshev{}, vecmath.Euclidean{}} {
		for _, n := range []int{1, 2, expandChunk + 1, 90, 400} {
			rng := rand.New(rand.NewSource(int64(n)))
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = []float64{float64(rng.Intn(4)), float64(rng.Intn(3)), float64(rng.Intn(3))}
			}
			tree, err := New(pts, metric)
			if err != nil {
				t.Fatal(err)
			}
			for _, tombstones := range []int{0, n / 5} {
				for id := 0; id < tombstones; id++ {
					tree.Delete(id * 3 % n)
				}
				for _, skipID := range []int{-1, n - 1} {
					cur := tree.NewCursor(pts[n-1], skipID)
					for i, w := range liveSorted(tree, pts, metric, pts[n-1], skipID) {
						if got, ok := cur.Next(); !ok || got != w {
							t.Fatalf("%s n=%d tombstones=%d skip=%d: position %d = %+v (ok=%v), want %+v",
								metric.Name(), n, tombstones, skipID, i, got, ok, w)
						}
					}
					if extra, ok := cur.Next(); ok {
						t.Fatalf("%s n=%d: cursor yielded %+v past the dataset", metric.Name(), n, extra)
					}
					cur.Close()
				}
			}
		}
	}
}

// TestCursorCloseRecycles pins the pooled cursor's lifecycle: a closed cursor
// holds no tree, no query, no row and nothing on either heap (emptied by
// pqueue's Reset, which leaves the backing arrays free of references); its
// Next reports exhausted and a second Close leaves it alone; and the next
// cursor opened — on a tree of another dimension — streams correctly out of
// the recycled memory, while a cursor that is never closed stays valid
// beside it.
func TestCursorCloseRecycles(t *testing.T) {
	low := indextest.RandPoints(400, 8, 31)
	high := indextest.RandPoints(150, 53, 32)
	lowTree, err := New(low, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	highTree, err := New(high, vecmath.Manhattan{})
	if err != nil {
		t.Fatal(err)
	}
	unclosed := lowTree.NewCursor(low[1], 1)
	unclosed.Next()

	c := lowTree.NewCursor(low[0], 0).(*cursor)
	for i := 0; i < 100; i++ {
		if _, ok := c.Next(); !ok {
			t.Fatal("cursor ended early")
		}
	}
	if c.nodes.Len() == 0 || c.ready.Len() == 0 {
		t.Fatalf("test wants a cursor closed mid-stream, heaps hold %d and %d", c.nodes.Len(), c.ready.Len())
	}
	c.Close()
	if c.t != nil || c.q != nil || c.nodes.Len() != 0 || c.ready.Len() != 0 {
		t.Fatalf("closed cursor keeps tree=%v query=%v, %d pending subtrees, %d ready points", c.t != nil, c.q != nil, c.nodes.Len(), c.ready.Len())
	}
	for _, row := range c.chunk.rows {
		if row != nil {
			t.Fatal("closed cursor keeps a dataset row in its kernel scratch")
		}
	}
	if nb, ok := c.Next(); ok {
		t.Fatalf("Next after Close returned %+v", nb)
	}
	c.Close() // a no-op: c must not enter the pool a second time

	var open []index.Cursor
	for i := 0; i < 4; i++ { // one of these is c's memory, were c pooled twice two would be
		q := high[10+i]
		cur := highTree.NewCursor(q, 10+i)
		open = append(open, cur)
		prev := index.Neighbor{ID: -1, Dist: -1}
		for j := 0; j < 60; j++ {
			nb, ok := cur.Next()
			if !ok {
				t.Fatalf("cursor %d ended after %d rows", i, j)
			}
			if want := (vecmath.Manhattan{}).Distance(q, high[nb.ID]); nb.Dist != want || nb.Dist < prev.Dist {
				t.Fatalf("cursor %d row %d: %+v after %+v, true distance %v", i, j, nb, prev, want)
			}
			prev = nb
		}
	}
	for i, cur := range open { // all still open, all still their own
		nb, ok := cur.Next()
		if want := (vecmath.Manhattan{}).Distance(high[10+i], high[nb.ID]); !ok || nb.Dist != want {
			t.Fatalf("cursor %d after the others were opened: %+v (ok=%v), true distance %v", i, nb, ok, want)
		}
		cur.Close()
	}
	if nb, ok := unclosed.Next(); !ok || nb.Dist != (vecmath.Euclidean{}).Distance(low[1], low[nb.ID]) {
		t.Fatalf("unclosed cursor disturbed: %+v (ok=%v)", nb, ok)
	}
}

// subtreeIDs returns the IDs of every node in n's subtree, n's own included.
func subtreeIDs(n *node) []int32 {
	ids := []int32{n.id}
	for _, c := range n.children {
		ids = append(ids, subtreeIDs(c)...)
	}
	return ids
}

// TestTableBoundsAndWalk pins the table walk's two halves on a routed build
// whose clone took insertions (path-copied nodes) and deletions, under a
// k-distance-shaped table holding −Inf at the deleted IDs and +Inf at a few
// live ones: every bound is the largest kd of its node's subtree — at least
// that of every descendant — and the walk finds exactly the x ≠ skipID with
// d(q,x) ≤ kd[x], for member and external queries, on a tie-heavy grid.
func TestTableBoundsAndWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	grid := func(n int) [][]float64 {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{float64(rng.Intn(9)), float64(rng.Intn(9)), float64(rng.Intn(3))}
		}
		return pts
	}
	base := buildAt(t, grid(600), 64, 2)
	tree := base.Clone().(*Tree)
	for _, p := range grid(80) {
		if _, err := tree.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	kd := make([]float64, tree.IDSpan())
	for id := range kd {
		switch r := rng.Intn(40); {
		case r == 0:
			tree.Delete(id)
			kd[id] = math.Inf(-1)
		case r == 1:
			kd[id] = math.Inf(1)
		default:
			kd[id] = float64(rng.Intn(6)) / 2 // often exactly a grid distance
		}
	}
	bound, ok := tree.TableBounds(kd)
	if !ok || len(bound) != tree.IDSpan() {
		t.Fatalf("TableBounds: %d bounds, ok %v; want %d", len(bound), ok, tree.IDSpan())
	}
	walk(tree, func(n *node) {
		most := math.Inf(-1)
		for _, id := range subtreeIDs(n) {
			most = max(most, kd[id])
		}
		if bound[n.id] != most {
			t.Fatalf("bound[%d] = %v, the largest kd of its subtree %v", n.id, bound[n.id], most)
		}
	})

	rows := tree.Rows()
	for i, q := range append(grid(20), rows[:40]...) {
		skip := -1
		if i >= 20 {
			skip = i - 20
		}
		var want []int
		for id, p := range rows {
			if id != skip && tree.Dist(q, p) <= kd[id] {
				want = append(want, id)
			}
		}
		got := tree.ReverseByTable(q, skip, kd, bound, nil)
		sort.Ints(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d (skip %d): walk %v, every row %v", i, skip, got, want)
		}
	}
}
