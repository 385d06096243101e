package covertree

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/index"
	"repro/internal/indextest"
	"repro/internal/vecmath"
)

// deepClone is the Clone this package had before clones shared structure: a
// recursive copy of every node, of the ID→row table and of the tombstones.
// It survives as the reference the sharing Clone is compared with — a fold
// through either must build the same tree — and as the cost the fold pin
// measures against. The copy shares nothing, so it builds in place.
func deepClone(t *Tree) *Tree {
	c := &Tree{root: deepCloneNode(t.root)}
	if err := c.Init(slices.Clone(t.Rows()), t.Metric()); err != nil {
		panic(err)
	}
	for id := range c.IDSpan() {
		if !t.Live(id) {
			c.Delete(id)
		}
	}
	return c
}

// liveIDs lists the live IDs of t.
func liveIDs(t *Tree) []int {
	var ids []int
	for id := range t.IDSpan() {
		if t.Live(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

func deepCloneNode(n *node) *node {
	if n == nil {
		return nil
	}
	c := &node{row: n.row, id: n.id, level: n.level, maxDist: n.maxDist}
	if len(n.children) > 0 {
		c.children = make([]*node, len(n.children))
		for i, child := range n.children {
			c.children[i] = deepCloneNode(child)
		}
	}
	return c
}

// applyDelta does to next what Overlay.Fold does to a base clone: the rows
// inserted in order, then the tombstones in ascending ID order.
func applyDelta(t *testing.T, next *Tree, rows [][]float64, tombs []int) {
	t.Helper()
	for _, p := range rows {
		if _, err := next.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	sort.Ints(tombs)
	for _, id := range tombs {
		if !next.Delete(id) {
			t.Fatalf("Delete(%d) failed", id)
		}
	}
}

// generation is one retained tree of a clone chain with what it must hold:
// every row it ever assigned an ID, and the IDs it tombstoned.
type generation struct {
	name  string
	tree  *Tree
	rows  [][]float64
	tombs []int
}

// clone starts a new generation from a Clone of g's tree.
func (g *generation) clone(name string) *generation {
	return &generation{
		name:  name,
		tree:  g.tree.Clone().(*Tree),
		rows:  append([][]float64(nil), g.rows...),
		tombs: append([]int(nil), g.tombs...),
	}
}

// mutate applies a random delta to g's own tree: rows drawn from rng, and
// deletions of IDs old and new.
func (g *generation) mutate(t *testing.T, rng *rand.Rand, inserts, deletes int) *generation {
	t.Helper()
	for i := 0; i < inserts; i++ {
		p := make([]float64, g.tree.Dim())
		for j := range p {
			p[j] = rng.Float64()
		}
		id, err := g.tree.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		if id != len(g.rows) {
			t.Fatalf("%s: Insert assigned id %d, want %d", g.name, id, len(g.rows))
		}
		g.rows = append(g.rows, p)
	}
	for i := 0; i < deletes; i++ {
		if id := rng.Intn(len(g.rows)); g.tree.Delete(id) {
			g.tombs = append(g.tombs, id)
		}
	}
	return g
}

// check compares every query form of g's tree with a tree built fresh over
// g's own rows and tombstones.
func (g *generation) check(t *testing.T, metric vecmath.Metric) {
	t.Helper()
	if err := g.tree.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
	fresh, err := New(append([][]float64(nil), g.rows...), metric)
	if err != nil {
		t.Fatal(err)
	}
	applyDelta(t, fresh, nil, append([]int(nil), g.tombs...))
	if g.tree.Len() != fresh.Len() || g.tree.IDSpan() != fresh.IDSpan() {
		t.Fatalf("%s: Len %d, IDSpan %d; a fresh tree over its rows has %d, %d",
			g.name, g.tree.Len(), g.tree.IDSpan(), fresh.Len(), fresh.IDSpan())
	}
	for id, p := range g.rows {
		if !reflect.DeepEqual(g.tree.Point(id), p) || g.tree.Live(id) != fresh.Live(id) {
			t.Fatalf("%s: id %d is not the row, or not as live, as the generation recorded", g.name, id)
		}
	}
	rng := rand.New(rand.NewSource(int64(len(g.rows))))
	for trial := 0; trial < 12; trial++ {
		skipID := rng.Intn(len(g.rows))
		q := g.rows[skipID]
		if trial%3 == 0 {
			skipID, q = -1, make([]float64, len(q))
			for j := range q {
				q[j] = rng.Float64()
			}
		}
		if got, want := g.tree.KNN(q, 9, skipID), fresh.KNN(q, 9, skipID); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: KNN(%d) = %v, fresh tree %v", g.name, skipID, got, want)
		}
		if got, want := drain(g.tree, q, skipID), drain(fresh, q, skipID); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cursor(%d) streams %d neighbors differently from a fresh tree's %d", g.name, skipID, len(got), len(want))
		}
		r := metric.Distance(q, g.rows[rng.Intn(len(g.rows))])
		for _, limit := range []int{1, 7, len(g.rows)} {
			if got, want := g.tree.CountCloser(q, r, limit, skipID, nil), fresh.CountCloser(q, r, limit, skipID, nil); got != want {
				t.Fatalf("%s: CountCloser(%d, %v, %d) = %d, fresh tree %d", g.name, skipID, r, limit, got, want)
			}
		}
	}
}

// drain reads a cursor to exhaustion.
func drain(t *Tree, q []float64, skipID int) []index.Neighbor {
	cur := t.NewCursor(q, skipID)
	defer cur.Close()
	var out []index.Neighbor
	for {
		n, ok := cur.Next()
		if !ok {
			return out
		}
		out = append(out, n)
	}
}

// TestCloneGenerationsStayIndependent grows a chain of clones, keeps every
// generation, and ends with two siblings cloned from a middle one and
// extended with different rows under the same IDs, and with that middle one
// extended itself. Only then is anything checked: every
// retained tree must still answer as a tree built fresh over its own rows,
// so a write that reached a shared node, table slot or tombstone map — from
// a later generation or from a sibling — shows in an earlier one.
func TestCloneGenerationsStayIndependent(t *testing.T) {
	metric := vecmath.Euclidean{}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		pts := indextest.ClusteredPoints(300, 4, 5, seed)
		built, err := New(pts, metric)
		if err != nil {
			t.Fatal(err)
		}
		gens := []*generation{{name: "built", tree: built, rows: pts}}
		for g := 1; g <= 8; g++ {
			next := gens[len(gens)-1].clone(fmt.Sprintf("generation %d", g))
			gens = append(gens, next.mutate(t, rng, 20+rng.Intn(40), rng.Intn(8)))
		}
		// The parent is extended too, after it was cloned three times over:
		// a mutation of the original must be as invisible to its clones as
		// theirs are to it.
		parent := gens[4]
		gens = append(gens,
			parent.clone("left sibling").mutate(t, rng, 30, 4),
			parent.clone("right sibling").mutate(t, rng, 45, 0))
		parent.mutate(t, rng, 25, 6)
		for _, g := range gens {
			g.check(t, metric)
		}
	}
}

// TestReadersQueryParentWhileCloneAbsorbsInserts is the sharing contract
// under the race detector: four goroutines query a published tree while its
// clone absorbs a thousand inserts. An insertion that wrote one shared node
// in place is a reported race, and a parent answer that moved fails here
// without the detector too.
func TestReadersQueryParentWhileCloneAbsorbsInserts(t *testing.T) {
	metric := vecmath.Euclidean{}
	pts := indextest.ClusteredPoints(3000, 4, 6, 9)
	parent, err := New(pts[:2000], metric)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		knn    []index.Neighbor
		stream []index.Neighbor
		within int
		closer int
	}
	ask := func(qid int) answer {
		q := pts[qid]
		a := answer{knn: parent.KNN(q, 10, qid), within: parent.CountCloser(q, 0.05, len(pts), qid, nil), closer: parent.CountCloser(q, 0.08, 50, qid, nil)}
		cur := parent.NewCursor(q, qid)
		defer cur.Close()
		for i := 0; i < 25; i++ {
			n, _ := cur.Next()
			a.stream = append(a.stream, n)
		}
		return a
	}
	const queries = 40
	want := make([]answer, queries)
	for i := range want {
		want[i] = ask(i * 47)
	}

	clone := parent.Clone()
	var done atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 2 || !done.Load(); pass++ {
				for i := g; i < queries; i += 4 {
					if got := ask(i * 47); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("parent's answer to query %d changed while its clone was written", i)
						return
					}
				}
			}
		}()
	}
	for _, p := range pts[2000:] {
		if _, err := clone.Insert(p); err != nil {
			t.Error(err)
			break
		}
	}
	for id := 0; id < 2000; id += 40 {
		clone.Delete(id)
	}
	done.Store(true)
	wg.Wait()
	if parent.Len() != 2000 || clone.Len() != 3000-50 {
		t.Fatalf("parent holds %d points, clone %d; want 2000 and 2950", parent.Len(), clone.Len())
	}
	if err := clone.(*Tree).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPathCopyFoldMatchesDeepCopyFold folds the same memtable twice over —
// through Overlay.Fold, whose base clone shares the tree and copies the
// paths it changes, and through the deep copy it replaced, extended in place
// — and requires the two trees to encode to the same bytes. The second round
// folds into the first round's result: a tree that is itself path copies.
func TestPathCopyFoldMatchesDeepCopyFold(t *testing.T) {
	metric := vecmath.Euclidean{}
	pts := indextest.ClusteredPoints(2600, 5, 7, 21)
	base, err := New(pts[:2000], metric)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for round, rows := range [][][]float64{pts[2000:2256], pts[2256:2600]} {
		ov := index.NewOverlay(base)
		for _, p := range rows {
			if _, err := ov.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		var tombs []int
		for i := 0; i < 20; i++ {
			if id := rng.Intn(ov.IDSpan()); ov.Delete(id) {
				tombs = append(tombs, id)
			}
		}
		before := base.EncodeStructure()
		folded, err := ov.Fold()
		if err != nil {
			t.Fatal(err)
		}
		ref := deepClone(base)
		applyDelta(t, ref, rows, tombs)
		got := folded.(*Tree)
		if !bytes.Equal(got.EncodeStructure(), ref.EncodeStructure()) {
			t.Fatalf("round %d: the path-copy fold and the deep-copy fold encode differently", round)
		}
		if !reflect.DeepEqual(liveIDs(got), liveIDs(ref)) || got.Len() != ref.Len() {
			t.Fatalf("round %d: folds disagree on tombstones or size (%d vs %d live)", round, got.Len(), ref.Len())
		}
		if !bytes.Equal(base.EncodeStructure(), before) {
			t.Fatalf("round %d: the fold changed the base it was cloned from", round)
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		base = got
	}
}
