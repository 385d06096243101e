// Package indextest provides a conformance suite that every similarity-search
// back-end in this module must pass: equivalence of cursor, kNN and bounded
// strict-count results with the brute-force reference on randomized
// workloads, on the bare back-end and under an index.Overlay. Each index
// package runs the suite from its own tests; the competitors' trees, which
// are not index.Index implementations, check what their readers use over
// the same Workloads against RefKNN.
package indextest

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/vecmath"
)

// RandPoints generates n points with coordinates uniform in [0,1)^dim.
func RandPoints(n, dim int, seed int64) [][]float64 {
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

// ClusteredPoints generates points in c tight Gaussian clusters, the shape
// that stresses tree balance and duplicate-ish regions.
func ClusteredPoints(n, dim, c int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	centers := RandPoints(c, dim, seed+1)
	pts := make([][]float64, n)
	for i := range pts {
		ctr := centers[rng.Intn(c)]
		p := make([]float64, dim)
		for j := range p {
			p[j] = ctr[j] + rng.NormFloat64()*0.01
		}
		pts[i] = p
	}
	return pts
}

// RefKNN computes exact k nearest neighbors by full sort, ties in ascending
// ID order.
func RefKNN(pts [][]float64, metric vecmath.Metric, q []float64, k, skipID int) []index.Neighbor {
	var all []index.Neighbor
	for id, p := range pts {
		if id == skipID {
			continue
		}
		all = append(all, index.Neighbor{ID: id, Dist: metric.Distance(q, p)})
	}
	sort.Slice(all, func(i, j int) bool { return index.Before(all[i], all[j]) })
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// Run exercises the back-end built by build over several workloads and
// metrics, comparing every query primitive against brute force.
func Run(t *testing.T, build func(points [][]float64, metric vecmath.Metric) (index.Index, error)) {
	t.Helper()
	for _, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			ix, err := build(w.Points, w.Metric)
			if err != nil && w.Metric != (vecmath.Euclidean{}) {
				t.Skipf("back-end rejects %T: %v", w.Metric, err)
			} else if err != nil {
				t.Fatalf("build: %v", err)
			}
			verifyIndex(t, ix, w.Points, w.Metric)
			verifyOverlays(t, build, w.Points, w.Metric)
			verifyCloner(t, build, w.Points, w.Metric)
		})
	}
	t.Run("cursor-recycling", func(t *testing.T) { verifyCursorRecycling(t, build) })
	t.Run("clone-rows", func(t *testing.T) { CloneRows(t, build) })
	t.Run("clone-tombstones", func(t *testing.T) { CloneSharesTombstones(t, build) })
}

// Tombstones returns a set holding ids: a dead set for CountCloser.
func Tombstones(ids ...int) *index.Tombstones {
	dead := new(index.Tombstones)
	for _, id := range ids {
		dead.Add(id)
	}
	return dead
}

// Workload is one named point set and metric of the conformance runs.
type Workload struct {
	Name   string
	Points [][]float64
	Metric vecmath.Metric
}

// Workloads returns the point sets Run checks every back-end on: uniform in
// low and higher dimension, tightly clustered, duplicate-heavy and a single
// point under L2, and a uniform set under L1.
func Workloads() []Workload {
	l2 := vecmath.Euclidean{}
	return []Workload{
		{"uniform-3d", RandPoints(200, 3, 1), l2},
		{"uniform-12d", RandPoints(150, 12, 2), l2},
		{"clustered-5d", ClusteredPoints(200, 5, 8, 3), l2},
		{"with-duplicates", withDuplicates(RandPoints(100, 4, 4), 20, 5), l2},
		{"single-point", RandPoints(1, 3, 6), l2},
		{"manhattan-metric", RandPoints(150, 4, 7), vecmath.Manhattan{}},
	}
}

// recycleStream is one (index, query) pair of verifyCursorRecycling with the
// stream brute force says its cursor must produce.
type recycleStream struct {
	ix     index.Index
	q      []float64
	skipID int
	want   []index.Neighbor
}

// verifyCursorRecycling is the cursor lifecycle check: NewCursor, some Nexts,
// Close, over and over on two indexes that differ in size, dimension and
// metric, with several cursors open at once and opened, advanced and closed
// in interleaved order — first on one goroutine, then on eight at once, with
// a garbage collection between rounds so that pooled cursors are both reused
// and dropped. A back-end may recycle a closed cursor's memory into the next
// one it opens, on whichever index that is; every stream must still be the
// brute-force (distance, ID) order, to the row it was closed at. The points
// are random reals, so that order has no ties and is the same for every
// back-end.
func verifyCursorRecycling(t *testing.T, build func(points [][]float64, metric vecmath.Metric) (index.Index, error)) {
	t.Helper()
	var streams []recycleStream
	for i, shape := range []struct {
		pts    [][]float64
		metric vecmath.Metric
	}{
		{RandPoints(300, 8, 21), vecmath.Euclidean{}},
		{RandPoints(120, 53, 22), vecmath.Manhattan{}},
	} {
		ix, err := build(shape.pts, shape.metric)
		if err != nil { // a back-end without L1 still gets two sizes and dimensions
			shape.metric = vecmath.Euclidean{}
			if ix, err = build(shape.pts, shape.metric); err != nil {
				t.Fatalf("build: %v", err)
			}
		}
		rng := rand.New(rand.NewSource(int64(23 + i)))
		for j := 0; j < 4; j++ {
			st := recycleStream{ix: ix, skipID: -1, q: RandPoints(1, len(shape.pts[0]), int64(30+j))[0]}
			if j%2 == 0 {
				st.skipID = rng.Intn(len(shape.pts))
				st.q = shape.pts[st.skipID]
			}
			st.want = RefKNN(shape.pts, shape.metric, st.q, len(shape.pts), st.skipID)
			streams = append(streams, st)
		}
	}

	// churn opens, advances and closes cursors over the streams in an order
	// drawn from seed, at most four open at a time. A cursor closed twice
	// must shrug the second Close off — which only a caller alone with the
	// back-end may try: otherwise the cursor may be another query's already.
	churn := func(seed int64, alone bool) {
		type open struct {
			recycleStream
			cur       index.Cursor
			pos, stop int // rows read; the row to close at (len(want)+1: read the end too)
		}
		rng := rand.New(rand.NewSource(seed))
		var opened []*open
		for step := 0; step < 150 || len(opened) > 0; step++ {
			if step < 150 && len(opened) < 4 && (len(opened) == 0 || rng.Intn(3) == 0) {
				st := streams[rng.Intn(len(streams))]
				opened = append(opened, &open{recycleStream: st, cur: st.ix.NewCursor(st.q, st.skipID), stop: rng.Intn(len(st.want) + 2)})
				continue
			}
			i := rng.Intn(len(opened))
			o := opened[i]
			for n := 1 + rng.Intn(40); n > 0 && o.pos < o.stop; n-- {
				got, ok := o.cur.Next()
				if o.pos == len(o.want) {
					if ok {
						t.Errorf("seed %d: cursor yielded %+v past the dataset", seed, got)
					}
				} else if !ok || got != o.want[o.pos] {
					t.Errorf("seed %d: dim %d, skip %d: position %d = %+v (ok=%v), want %+v",
						seed, o.ix.Dim(), o.skipID, o.pos, got, ok, o.want[o.pos])
					o.stop = o.pos // a stream that went wrong once is reported once
				}
				o.pos++
			}
			if o.pos >= o.stop {
				o.cur.Close()
				if alone && rng.Intn(4) == 0 {
					o.cur.Close()
				}
				opened = append(opened[:i], opened[i+1:]...)
			}
		}
	}

	for seed := int64(1); seed <= 3; seed++ {
		churn(seed, true)
		runtime.GC()
	}
	for round := 0; round < 3 && !t.Failed(); round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				churn(seed, false)
			}(int64(100 + 8*round + g))
		}
		wg.Wait()
		runtime.GC()
	}
}

// TieOrder requires the cursors of the back-end built by build to stream in
// ascending (distance, ID) order exactly — equal distances in ascending ID
// order — on a coarse integer grid, where duplicates and exact distance ties
// are everywhere, bare and under an overlay with memtable rows and
// tombstones. It is the property that makes a k-way merge of shard cursors
// the cursor of the whole dataset, and a stream resumable by its last
// (distance, ID) key.
func TieOrder(t *testing.T, build func(points [][]float64, metric vecmath.Metric) (index.Index, error)) {
	t.Helper()
	metric := vecmath.Euclidean{}
	rng := rand.New(rand.NewSource(45))
	pts := make([][]float64, 160)
	for i := range pts {
		pts[i] = []float64{float64(rng.Intn(4)), float64(rng.Intn(4)), float64(rng.Intn(3))}
	}
	bare, err := build(pts, metric)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	split := len(pts) - len(pts)/4
	base, err := build(pts[:split], metric)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ov := index.NewOverlay(base)
	for _, p := range pts[split:] {
		if _, err := ov.Insert(p); err != nil {
			t.Fatalf("overlay insert: %v", err)
		}
	}
	gone := map[int]bool{3: true, split - 1: true, split + 2: true}
	for id := range gone {
		if !ov.Delete(id) {
			t.Fatalf("overlay delete %d failed", id)
		}
	}
	for name, c := range map[string]struct {
		ix   index.Index
		gone map[int]bool
	}{"bare": {bare, nil}, "overlay": {ov, gone}} {
		for _, skipID := range []int{-1, 0, 7, split + 5} {
			q := []float64{1, 2, 1}
			if skipID >= 0 {
				q = pts[skipID]
			}
			var want []index.Neighbor
			for _, nb := range RefKNN(pts, metric, q, len(pts), skipID) {
				if !c.gone[nb.ID] {
					want = append(want, nb)
				}
			}
			cur := c.ix.NewCursor(q, skipID)
			for i, w := range want {
				if got, ok := cur.Next(); !ok || got != w {
					t.Fatalf("%s, skip %d: cursor position %d = %+v (ok=%v), want %+v", name, skipID, i, got, ok, w)
				}
			}
			if extra, ok := cur.Next(); ok {
				t.Fatalf("%s, skip %d: cursor yielded %+v past the dataset", name, skipID, extra)
			}
		}
	}
}

func withDuplicates(pts [][]float64, copies, ofFirst int) [][]float64 {
	out := append([][]float64{}, pts...)
	for i := 0; i < copies; i++ {
		out = append(out, vecmath.Clone(pts[i%ofFirst]))
	}
	return out
}

func verifyIndex(t *testing.T, ix index.Index, pts [][]float64, metric vecmath.Metric) {
	t.Helper()
	if ix.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(pts))
	}
	if ix.Dim() != len(pts[0]) {
		t.Fatalf("Dim = %d, want %d", ix.Dim(), len(pts[0]))
	}
	rng := rand.New(rand.NewSource(42))
	queries := 8
	if len(pts) < queries {
		queries = len(pts)
	}
	for qi := 0; qi < queries; qi++ {
		var q []float64
		skipID := -1
		if qi%2 == 0 && len(pts) > 1 {
			skipID = rng.Intn(len(pts))
			q = pts[skipID]
		} else {
			q = make([]float64, len(pts[0]))
			for j := range q {
				q[j] = rng.Float64()
			}
		}
		verifyCursor(t, ix, pts, metric, q, skipID)
		for _, k := range []int{1, 3, len(pts)} {
			verifyKNN(t, ix, pts, metric, q, k, skipID)
		}
	}
	verifyCountCloser(t, ix, pts, nil, metric)
}

func verifyCursor(t *testing.T, ix index.Index, pts [][]float64, metric vecmath.Metric, q []float64, skipID int) {
	t.Helper()
	want := RefKNN(pts, metric, q, len(pts), skipID)
	cur := ix.NewCursor(q, skipID)
	prev := -1.0
	var got []index.Neighbor
	seen := map[int]bool{}
	for {
		nb, ok := cur.Next()
		if !ok {
			break
		}
		if nb.Dist < prev-1e-12 {
			t.Fatalf("cursor out of order: %g after %g", nb.Dist, prev)
		}
		if seen[nb.ID] {
			t.Fatalf("cursor repeated id %d", nb.ID)
		}
		if nb.ID == skipID {
			t.Fatalf("cursor returned skipped id %d", skipID)
		}
		if wantD := metric.Distance(q, pts[nb.ID]); math.Abs(wantD-nb.Dist) > 1e-9 {
			t.Fatalf("cursor distance for id %d is %g, true %g", nb.ID, nb.Dist, wantD)
		}
		seen[nb.ID] = true
		prev = nb.Dist
		got = append(got, nb)
	}
	if len(got) != len(want) {
		t.Fatalf("cursor yielded %d items, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("cursor position %d: dist %g, want %g", i, got[i].Dist, want[i].Dist)
		}
	}
}

func verifyKNN(t *testing.T, ix index.Index, pts [][]float64, metric vecmath.Metric, q []float64, k, skipID int) {
	t.Helper()
	got := ix.KNN(q, k, skipID)
	want := RefKNN(pts, metric, q, k, skipID)
	if len(got) != len(want) {
		t.Fatalf("KNN(k=%d) returned %d items, want %d", k, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("KNN(k=%d) position %d: dist %g, want %g", k, i, got[i].Dist, want[i].Dist)
		}
		if got[i].ID == skipID {
			t.Fatalf("KNN returned skipped id")
		}
	}
}

// verifyCountCloser checks ix.CountCloser against a brute-force count over
// pts (row i is ID i; gone holds the IDs ix has no live point for) on random
// (q, r, limit, skip, dead) probes. Every probe point is tried with r = 0,
// with r exactly equal to existing distances — where only a strict
// comparison gives the right count, and where duplicate points tie — and
// with radii between and beyond them; with limits below, at and above the
// true count and the dataset size, and at math.MaxInt; with the member, a
// tombstoned ID and no ID skipped; and with and without a caller-supplied
// dead set.
func verifyCountCloser(t *testing.T, ix index.Index, pts [][]float64, gone map[int]bool, metric vecmath.Metric) {
	t.Helper()
	rng := rand.New(rand.NewSource(43))
	n := len(pts)
	var goneIDs []int
	for id := range gone {
		goneIDs = append(goneIDs, id)
	}
	sort.Ints(goneIDs)
	for qi := 0; qi < 12; qi++ {
		var q []float64
		member := -1
		if qi%2 == 0 {
			member = rng.Intn(n)
			q = pts[member]
		} else {
			q = make([]float64, len(pts[0]))
			for j := range q {
				q[j] = rng.Float64()
			}
		}
		dists := make([]float64, n)
		for id, p := range pts {
			dists[id] = metric.Distance(q, p)
		}
		sorted := append([]float64(nil), dists...)
		sort.Float64s(sorted)
		radii := []float64{0, sorted[0], sorted[n/2], sorted[n-1], sorted[rng.Intn(n)],
			(sorted[0] + sorted[n-1]) / 2, 2*sorted[n-1] + 1, math.Inf(1)}
		skips := []int{-1, member, rng.Intn(n)}
		if len(goneIDs) > 0 {
			skips = append(skips, goneIDs[rng.Intn(len(goneIDs))])
		}
		deads := []*index.Tombstones{nil, Tombstones(rng.Intn(n), rng.Intn(n), rng.Intn(n))}
		for _, r := range radii {
			for _, skip := range skips {
				for _, dead := range deads {
					count := 0
					for id, d := range dists {
						if id != skip && !gone[id] && !dead.Has(id) && d < r {
							count++
						}
					}
					for _, limit := range []int{0, 1, 3, count, count + 1, n, n + 5, math.MaxInt} {
						want := min(count, limit)
						if got := ix.CountCloser(q, r, limit, skip, dead); got != want {
							t.Fatalf("CountCloser(r=%g, limit=%d, skip=%d, dead=%v) = %d, want %d (member %d)",
								r, limit, skip, dead.Sorted(), got, want, member)
						}
					}
				}
			}
		}
	}
}

// verifyCloner is the index.Cloner contract, for back-ends that are one: a
// clone and its original are independent in both directions. A clone may
// share any structure with the original, so both are extended after the
// Clone — different rows under the same IDs, different deletions — and a
// second clone is taken and left alone. Then the two that grew must hold
// their own rows and count as brute force over them does, and the third
// must answer every query form as the original did before any of it.
func verifyCloner(t *testing.T, build func(points [][]float64, metric vecmath.Metric) (index.Index, error), pts [][]float64, metric vecmath.Metric) {
	t.Helper()
	if len(pts) < 16 {
		return
	}
	third := len(pts) / 3
	ix, err := build(pts[:third], metric)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	orig, ok := ix.(index.Cloner)
	if !ok {
		return
	}
	clone, untouched := orig.Clone(), orig.Clone()
	grow := func(name string, d index.Dynamic, rows [][]float64, gone map[int]bool) [][]float64 {
		for i, p := range rows {
			if id, err := d.Insert(p); err != nil || id != third+i {
				t.Fatalf("%s: Insert = %d, %v; want id %d", name, id, err, third+i)
			}
		}
		for id := range gone {
			if !d.Delete(id) {
				t.Fatalf("%s: Delete(%d) failed", name, id)
			}
		}
		return append(append([][]float64(nil), pts[:third]...), rows...)
	}
	cloneGone := map[int]bool{1: true, third + 2: true}
	origGone := map[int]bool{2: true, third: true}
	// The clone first, then the original: a write through the original after
	// Clone must be as invisible to the clone as the clone's are to it.
	cloneRows := grow("clone", clone, pts[third:2*third], cloneGone)
	origRows := grow("original", orig, pts[2*third:], origGone)
	verifyCountCloser(t, clone, cloneRows, cloneGone, metric)
	verifyCountCloser(t, orig, origRows, origGone, metric)
	verifyIndex(t, untouched, pts[:third], metric)
	for name, c := range map[string]struct {
		d    index.Dynamic
		rows [][]float64
	}{"clone": {clone, cloneRows}, "original": {orig, origRows}} {
		for id, p := range c.rows {
			if got := c.d.Point(id); !slices.Equal(got, p) {
				t.Fatalf("%s: Point(%d) = %v, want its own row %v", name, id, got, p)
			}
		}
	}
}

// CloneRows is the row half of the index.Cloner contract, which holds for
// approximate back-ends too: a back-end built over a sub-slice of the
// caller's array never writes past its length, and clones of one base that
// each insert — twice, so the second clone's first append meets a slot the
// first has claimed — hold their own rows under the same IDs, while the base
// holds none of them. Each inserted row is its own nearest neighbor in the
// clone that holds it, which an LSH back-end answers exactly too (a point
// always collides with itself). Run calls it; a back-end outside Run calls
// it directly.
func CloneRows(t *testing.T, build func(points [][]float64, metric vecmath.Metric) (index.Index, error)) {
	t.Helper()
	const n, extra = 40, 3
	all := RandPoints(n+3*extra, 3, 91)
	tail := slices.Clone(all[n:])
	ix, err := build(all[:n], vecmath.Euclidean{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	base, ok := ix.(index.Cloner)
	if !ok {
		return
	}
	own := map[string][][]float64{"first": tail[:extra], "second": tail[extra : 2*extra], "base": tail[2*extra : 3*extra]}
	clones := map[string]index.Dynamic{"first": base.Clone(), "second": base.Clone(), "base": base}
	for i := range extra {
		for _, name := range []string{"first", "second", "base"} {
			p := slices.Clone(own[name][i])
			if id, err := clones[name].Insert(p); err != nil || id != n+i {
				t.Fatalf("%s: Insert = %d, %v; want id %d", name, id, err, n+i)
			}
		}
	}
	for name, d := range clones {
		if d.Len() != n+extra {
			t.Errorf("%s: Len = %d, want %d", name, d.Len(), n+extra)
		}
		for i, p := range own[name] {
			if got := d.Point(n + i); !slices.Equal(got, p) {
				t.Errorf("%s: Point(%d) = %v, want its own row %v", name, n+i, got, p)
			}
			if nb := d.KNN(p, 1, -1); len(nb) != 1 || nb[0].ID != n+i || nb[0].Dist != 0 {
				t.Errorf("%s: nearest neighbor of its row %d = %v", name, n+i, nb)
			}
		}
	}
	for i, p := range all[n:] {
		if !slices.Equal(p, tail[i]) || &p[0] != &tail[i][0] {
			t.Errorf("the caller's row %d past the indexed slice was overwritten", n+i)
		}
	}
}

// CloneSharesTombstones is the tombstone half of the index.Cloner contract's
// cost: a clone shares the tombstones of the index it copies until one side
// deletes, so Clone allocates as many objects on an index carrying 1 000
// tombstones as on one carrying none. Run calls it; a back-end outside Run
// calls it directly.
func CloneSharesTombstones(t *testing.T, build func(points [][]float64, metric vecmath.Metric) (index.Index, error)) {
	t.Helper()
	const tombstones = 1000
	pts := RandPoints(tombstones+200, 3, 92)
	cloneAllocs := func(deletes int) float64 {
		ix, err := build(pts, vecmath.Euclidean{})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		c, ok := ix.(index.Cloner)
		if !ok {
			t.Skip("not an index.Cloner")
		}
		for id := range deletes {
			if !c.Delete(id) {
				t.Fatalf("Delete(%d) failed", id)
			}
		}
		return testing.AllocsPerRun(20, func() { c.Clone() })
	}
	if none, some := cloneAllocs(0), cloneAllocs(tombstones); some != none {
		t.Errorf("Clone allocates %v objects with %d tombstones, %v with none: it copies the tombstone set", some, tombstones, none)
	}
}

// verifyOverlays runs verifyCountCloser over index.Overlay wrappings of the
// back-end: a clean overlay, one whose tail rows live in the memtable, that
// one again with tombstones in both the base and the memtable region, and —
// the state every fold leaves — a base that carries tombstones of its own
// under an overlay that adds more.
func verifyOverlays(t *testing.T, build func(points [][]float64, metric vecmath.Metric) (index.Index, error), pts [][]float64, metric vecmath.Metric) {
	t.Helper()
	full, err := build(pts, metric)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	verifyCountCloser(t, index.NewOverlay(full), pts, nil, metric)
	if len(pts) < 8 {
		return
	}
	split := len(pts) - len(pts)/4
	base, err := build(pts[:split], metric)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ov := index.NewOverlay(base)
	for i, p := range pts[split:] {
		id, err := ov.Insert(p)
		if err != nil {
			t.Fatalf("overlay insert: %v", err)
		}
		if id != split+i {
			t.Fatalf("overlay insert assigned id %d, want %d", id, split+i)
		}
	}
	verifyCountCloser(t, ov, pts, nil, metric)
	rng := rand.New(rand.NewSource(44))
	gone := map[int]bool{}
	for i := 0; i < 6; i++ {
		gone[rng.Intn(split)] = true
		gone[split+rng.Intn(len(pts)-split)] = true
	}
	for id := range gone {
		if !ov.Delete(id) {
			t.Fatalf("overlay delete %d failed", id)
		}
	}
	verifyCountCloser(t, ov, pts, gone, metric)

	folded, err := build(pts[:split], metric)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	d, ok := folded.(index.Dynamic)
	if !ok {
		return
	}
	gone = map[int]bool{}
	for i := 0; i < 6; i++ {
		gone[rng.Intn(split)] = true
	}
	for id := range gone {
		if !d.Delete(id) {
			t.Fatalf("base delete %d failed", id)
		}
	}
	ov = index.NewOverlay(d)
	for _, p := range pts[split:] {
		if _, err := ov.Insert(p); err != nil {
			t.Fatalf("overlay insert: %v", err)
		}
	}
	for i := 0; i < 6; i++ {
		for _, id := range []int{rng.Intn(split), split + rng.Intn(len(pts)-split)} {
			if got := ov.Delete(id); got == gone[id] {
				t.Fatalf("overlay Delete(%d) = %v, want %v", id, got, !gone[id])
			}
			gone[id] = true
		}
	}
	for id := range pts {
		if got := ov.Live(id); got == gone[id] {
			t.Fatalf("overlay Live(%d) = %v, want %v", id, got, !gone[id])
		}
	}
	verifyCountCloser(t, ov, pts, gone, metric)
}
