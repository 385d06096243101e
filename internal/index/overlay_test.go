package index

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/vecmath"
)

// oracleIndex is the Dynamic contract every test compares against: a scan
// re-implemented inline so the overlay tests do not import internal/scan
// (which imports this package).
type oracleIndex struct {
	points  [][]float64
	deleted map[int]bool
	metric  vecmath.Metric
}

func newOracle(points [][]float64) *oracleIndex {
	pts := make([][]float64, len(points))
	copy(pts, points)
	return &oracleIndex{points: pts, deleted: map[int]bool{}, metric: vecmath.Euclidean{}}
}

func (o *oracleIndex) insert(p []float64) int {
	o.points = append(o.points, p)
	return len(o.points) - 1
}

func (o *oracleIndex) delete(id int) bool {
	if id < 0 || id >= len(o.points) || o.deleted[id] {
		return false
	}
	o.deleted[id] = true
	return true
}

func (o *oracleIndex) neighbors(q []float64, skipID int) []Neighbor {
	var out []Neighbor
	for id, p := range o.points {
		if id == skipID || o.deleted[id] {
			continue
		}
		out = append(out, Neighbor{ID: id, Dist: o.metric.Distance(q, p)})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if a.Dist < b.Dist || (a.Dist == b.Dist && a.ID < b.ID) {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
	return out
}

func randRow(rng *rand.Rand, dim int) []float64 {
	p := make([]float64, dim)
	for i := range p {
		p[i] = rng.NormFloat64()
	}
	return p
}

// testScan is a minimal Cloner base over a RowStore, as the real back-ends
// are: a scan re-implemented inline, counting its cursors' Close calls.
type testScan struct {
	RowStore
	closes int // Close calls its cursors have received
}

var _ Cloner = (*testScan)(nil)

func newTestScan(points [][]float64) *testScan {
	ix := new(testScan)
	if err := ix.Init(append([][]float64(nil), points...), vecmath.Euclidean{}); err != nil {
		panic(err)
	}
	return ix
}

func (ix *testScan) Insert(p []float64) (int, error) { return ix.Append(p) }

func (ix *testScan) Clone() Cloner {
	c := new(testScan)
	ix.CloneInto(&c.RowStore)
	return c
}

func (ix *testScan) TableBounds([]float64) []float64 { return nil }

func (ix *testScan) ReverseByTable(q []float64, skipID int, kd, _ []float64, out []int) []int {
	for id, p := range ix.Rows() {
		if !ix.Skip(id, skipID) && ix.Metric().Distance(q, p) <= kd[id] {
			out = append(out, id)
		}
	}
	return out
}

func (ix *testScan) sorted(q []float64, skipID int) []Neighbor {
	var out []Neighbor
	for id, p := range ix.Rows() {
		if ix.Skip(id, skipID) {
			continue
		}
		out = append(out, Neighbor{ID: id, Dist: ix.Metric().Distance(q, p)})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if a.Dist < b.Dist || (a.Dist == b.Dist && a.ID < b.ID) {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
	return out
}

func (ix *testScan) NewCursor(q []float64, skipID int) Cursor {
	return &testCursor{ix: ix, order: ix.sorted(q, skipID)}
}

type testCursor struct {
	ix    *testScan
	order []Neighbor
	next  int
}

func (c *testCursor) Close() { c.ix.closes++ }

func (c *testCursor) Next() (Neighbor, bool) {
	if c.next >= len(c.order) {
		return Neighbor{}, false
	}
	c.next++
	return c.order[c.next-1], true
}

func (ix *testScan) KNN(q []float64, k int, skipID int) []Neighbor {
	order := ix.sorted(q, skipID)
	if k < len(order) {
		order = order[:k]
	}
	return order
}

func (ix *testScan) CountCloser(q []float64, r float64, limit, skipID int, dead *Tombstones) int {
	count := 0
	for _, n := range ix.sorted(q, skipID) {
		if n.Dist < r && !dead.Has(n.ID) {
			count++
		}
	}
	return min(count, limit)
}

func sameNeighbors(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// TestOverlayMatchesOracle drives a long interleaved insert/delete stream
// through an overlay (with periodic Fold/Rebase compactions) and an oracle,
// verifying after every step that KNN, CountCloser, the cursor stream and
// Liveness agree exactly.
func TestOverlayMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim = 3
	base := make([][]float64, 12)
	for i := range base {
		base[i] = randRow(rng, dim)
	}
	ov := NewOverlay(newTestScan(base))
	or := newOracle(base)

	check := func(step int) {
		t.Helper()
		if ov.Len() != len(or.points)-len(or.deleted) {
			t.Fatalf("step %d: overlay Len %d, oracle %d", step, ov.Len(), len(or.points)-len(or.deleted))
		}
		if ov.IDSpan() != len(or.points) {
			t.Fatalf("step %d: overlay IDSpan %d, oracle %d", step, ov.IDSpan(), len(or.points))
		}
		for id := -1; id <= len(or.points); id++ {
			want := id >= 0 && id < len(or.points) && !or.deleted[id]
			if ov.Live(id) != want {
				t.Fatalf("step %d: Live(%d) = %v, want %v", step, id, ov.Live(id), want)
			}
		}
		q := randRow(rng, dim)
		skips := []int{-1, rng.Intn(len(or.points))}
		for _, skip := range skips {
			want := or.neighbors(q, skip)
			for _, k := range []int{1, 3, len(or.points) + 5} {
				wk := want
				if k < len(wk) {
					wk = wk[:k]
				}
				if got := ov.KNN(q, k, skip); !sameNeighbors(got, wk) {
					t.Fatalf("step %d: KNN(k=%d, skip=%d) = %v, want %v", step, k, skip, got, wk)
				}
			}
			r := 0.0
			if len(want) > 0 {
				r = want[len(want)/2].Dist
			}
			closer := 0 // r is an existing distance, so strictness is exercised
			for _, n := range want {
				if n.Dist < r {
					closer++
				}
			}
			for _, limit := range []int{1, closer, closer + 3} {
				if got := ov.CountCloser(q, r, limit, skip, nil); got != min(closer, limit) {
					t.Fatalf("step %d: CountCloser(r=%v, limit=%d, skip=%d) = %d, want %d", step, r, limit, skip, got, min(closer, limit))
				}
			}
			cur := ov.NewCursor(q, skip)
			var streamed []Neighbor
			for {
				n, ok := cur.Next()
				if !ok {
					break
				}
				streamed = append(streamed, n)
			}
			if !sameNeighbors(streamed, want) {
				t.Fatalf("step %d: cursor stream = %v, want %v", step, streamed, want)
			}
		}
	}

	check(0)
	for step := 1; step <= 120; step++ {
		switch {
		case rng.Intn(3) == 0 && ov.Len() > 2:
			id := rng.Intn(ov.IDSpan())
			got := ov.Delete(id)
			want := or.delete(id)
			if got != want {
				t.Fatalf("step %d: Delete(%d) = %v, oracle %v", step, id, got, want)
			}
		default:
			p := randRow(rng, dim)
			id, err := ov.Insert(p)
			if err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
			if want := or.insert(p); id != want {
				t.Fatalf("step %d: insert id %d, oracle %d", step, id, want)
			}
		}
		if step%17 == 0 { // periodic compaction, mid-stream
			folded, err := ov.Fold()
			if err != nil {
				t.Fatalf("step %d: fold: %v", step, err)
			}
			ov = ov.Rebase(ov, folded)
			if ov.Dirty() {
				t.Fatalf("step %d: self-rebased overlay still dirty", step)
			}
		}
		check(step)
	}
}

// TestOverlayCloneIsolation pins the copy-on-write contract: mutations on a
// clone are invisible through the original, and Clone never clones the base.
func TestOverlayCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := make([][]float64, 6)
	for i := range base {
		base[i] = randRow(rng, 2)
	}
	ov := NewOverlay(newTestScan(base))
	if _, err := ov.Insert(randRow(rng, 2)); err != nil {
		t.Fatal(err)
	}

	before := BaseClones()
	cl := ov.Clone()
	if BaseClones() != before {
		t.Fatalf("Clone performed %d base clones, want 0", BaseClones()-before)
	}
	if _, err := cl.Insert(randRow(rng, 2)); err != nil {
		t.Fatal(err)
	}
	if !cl.Delete(2) {
		t.Fatal("clone delete failed")
	}
	if ov.Len() != 7 || ov.IDSpan() != 7 {
		t.Fatalf("original perturbed by clone mutations: Len %d IDSpan %d", ov.Len(), ov.IDSpan())
	}
	if !ov.Live(2) {
		t.Fatal("clone tombstone leaked into original")
	}
	if cl.Len() != 7 || cl.IDSpan() != 8 || cl.Live(2) {
		t.Fatalf("clone state wrong: Len %d IDSpan %d Live(2) %v", cl.Len(), cl.IDSpan(), cl.Live(2))
	}
}

// TestOverlaySiblingClonesStayApart is the failed-write-then-retry shape: a
// writer clones the published overlay, extends the clone, drops it, and the
// next writer clones the same overlay again. Both clones share the
// original's memtable array and tombstone set; neither may see the other's
// row or deletion, and the original — extended last, after both — neither's.
func TestOverlaySiblingClonesStayApart(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := make([][]float64, 6)
	for i := range base {
		base[i] = randRow(rng, 2)
	}
	ov := NewOverlay(newTestScan(base))
	shared := randRow(rng, 2)
	if _, err := ov.Insert(shared); err != nil {
		t.Fatal(err)
	}
	ov.Delete(0)

	first, second := ov.Clone(), ov.Clone()
	rows := map[*Overlay][]float64{first: randRow(rng, 2), second: randRow(rng, 2), ov: randRow(rng, 2)}
	dels := map[*Overlay]int{first: 1, second: 2, ov: 3}
	for _, o := range []*Overlay{first, second, ov} {
		id, err := o.Insert(rows[o])
		if err != nil || id != 7 {
			t.Fatalf("Insert = %d, %v; want id 7", id, err)
		}
		if !o.Delete(dels[o]) {
			t.Fatalf("Delete(%d) failed", dels[o])
		}
	}
	for _, o := range []*Overlay{first, second, ov} {
		if !reflect.DeepEqual(o.Point(6), shared) || !reflect.DeepEqual(o.Point(7), rows[o]) {
			t.Errorf("an overlay's memtable rows are %v, %v; want %v and its own %v", o.Point(6), o.Point(7), shared, rows[o])
		}
		for id := 0; id < 8; id++ {
			if want := id != 0 && id != dels[o]; o.Live(id) != want {
				t.Errorf("Live(%d) = %v on the overlay that deleted 0 and %d", id, !want, dels[o])
			}
		}
		if o.Len() != 6 || o.IDSpan() != 8 || o.MemtableLen() != 2 {
			t.Errorf("Len %d, IDSpan %d, MemtableLen %d; want 6, 8, 2", o.Len(), o.IDSpan(), o.MemtableLen())
		}
		if nn := o.KNN(rows[o], 1, -1); len(nn) != 1 || nn[0].ID != 7 || nn[0].Dist != 0 {
			t.Errorf("KNN of an overlay's own row = %v, want id 7 at distance 0", nn)
		}
	}
}

// TestOverlayRebaseCarriesPostFreezeDelta pins the background-compaction
// rebase: the delta accumulated after the frozen overlay was captured
// survives onto the folded base.
func TestOverlayRebaseCarriesPostFreezeDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := make([][]float64, 5)
	for i := range base {
		base[i] = randRow(rng, 2)
	}
	frozen := NewOverlay(newTestScan(base))
	for i := 0; i < 4; i++ {
		if _, err := frozen.Insert(randRow(rng, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if !frozen.Delete(1) {
		t.Fatal("delete failed")
	}

	// Writers keep going on a clone while the frozen overlay folds.
	cur := frozen.Clone()
	lateID, err := cur.Insert(randRow(rng, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Delete(6) {
		t.Fatal("late delete failed")
	}

	folded, err := frozen.Fold()
	if err != nil {
		t.Fatal(err)
	}
	reb := cur.Rebase(frozen, folded)
	if reb.MemtableLen() != 1 {
		t.Fatalf("rebased memtable has %d rows, want 1", reb.MemtableLen())
	}
	if reb.IDSpan() != cur.IDSpan() || reb.Len() != cur.Len() {
		t.Fatalf("rebase changed shape: IDSpan %d/%d Len %d/%d", reb.IDSpan(), cur.IDSpan(), reb.Len(), cur.Len())
	}
	q := randRow(rng, 2)
	if !sameNeighbors(reb.KNN(q, 20, -1), cur.KNN(q, 20, -1)) {
		t.Fatal("rebased overlay answers differently from its pre-rebase state")
	}
	if reb.Live(1) || reb.Live(6) || !reb.Live(lateID) {
		t.Fatal("rebased liveness wrong")
	}
}

// TestOverlayStaticBaseRefused pins the contract for bases without Cloner
// support: an overlay holds only a base it can fold and walk by a table, so
// NewOverlay refuses any other Index.
func TestOverlayStaticBaseRefused(t *testing.T) {
	// A testScan stripped to a plain Index via an embedding that hides the
	// Dynamic methods.
	type staticOnly struct{ Index }
	defer func() {
		if recover() == nil {
			t.Fatal("NewOverlay over a non-Cloner base succeeded, want a panic")
		}
	}()
	NewOverlay(staticOnly{newTestScan([][]float64{{0, 0}, {1, 1}})})
}

// TestOverlayCursorCloseReachesBase checks the cursor lifecycle through the
// overlay: closing an overlay cursor closes the base cursor it reads — that
// is where a pooling back-end gets its memory back — and a traced cursor
// emits its overlay.base and overlay.memtable spans on Close, once however
// often it is closed.
func TestOverlayCursorCloseReachesBase(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([][]float64, 20)
	for i := range pts {
		pts[i] = randRow(rng, 3)
	}
	base := newTestScan(pts)
	ov := NewOverlay(base)
	if _, err := ov.Insert(randRow(rng, 3)); err != nil {
		t.Fatal(err)
	}

	cur := ov.NewCursor(pts[0], 0)
	cur.Next()
	cur.Close()
	if base.closes != 1 {
		t.Fatalf("base cursor closed %d times after the overlay cursor's Close, want 1", base.closes)
	}

	tr := trace.New("test", true)
	cur = ov.NewCursorCtx(trace.With(context.Background(), tr.Root()), pts[0], 0)
	for i := 0; i < 5; i++ {
		cur.Next()
	}
	cur.Close()
	cur.Close()
	if base.closes != 2 {
		t.Fatalf("base cursor closed %d times after the traced cursor's Close, want 2", base.closes)
	}
	tr.Root().End()
	names := map[string]int{}
	for _, sp := range tr.Export().Root.Children {
		names[sp.Name]++
	}
	if names["overlay.base"] != 1 || names["overlay.memtable"] != 1 {
		t.Fatalf("spans after two Closes: %v, want one overlay.base and one overlay.memtable", names)
	}
}
