//go:build !race

package covertree

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/vecmath"
)

// allocated runs f and returns the heap objects and bytes it allocated, from
// the runtime's own cumulative counters. Nothing else runs beside the test.
func allocated(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestFoldCopiesThePathNotTheTree pins what a compaction costs: folding a
// 256-row memtable into a 20 000-point cover tree allocates less than a
// tenth of the objects and bytes the same fold cost when Clone deep-copied
// the tree (deepClone, extended in place), and is still counted as one base
// clone. The data is the benchmark's own d=53 surrogate, on which an
// insertion descends four to five nodes; both folds are deterministic (9.1 %
// and 9.0 % measured — two objects a level against 1.35 a point). The base
// is itself the result of a fold, as every base but an engine's first is:
// its ID→row table has the slack a copy leaves, so the measured fold appends
// to it in place.
func TestFoldCopiesThePathNotTheTree(t *testing.T) {
	const n, delta = 20000, 256
	pts := dataset.FCT(n+2*delta, 31).Points
	built, err := New(pts[:n], vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	memtable := func(base index.Index, rows [][]float64) *index.Overlay {
		ov := index.NewOverlay(base)
		for _, p := range rows {
			if _, err := ov.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		return ov
	}
	base, err := memtable(built, pts[n:n+delta]).Fold()
	if err != nil {
		t.Fatal(err)
	}
	rows := pts[n+delta:]
	ov := memtable(base, rows)

	clones := index.BaseClones()
	var folded index.Dynamic
	objects, bytes := allocated(func() { folded, err = ov.Fold() })
	if err != nil {
		t.Fatal(err)
	}
	if got := index.BaseClones() - clones; got != 1 {
		t.Errorf("the fold counted %d base clones, want 1", got)
	}
	var ref *Tree
	deepObjects, deepBytes := allocated(func() {
		ref = deepClone(base.(*Tree))
		applyDelta(t, ref, rows, nil)
	})
	if folded.Len() != n+2*delta || ref.Len() != folded.Len() {
		t.Fatalf("folded tree holds %d points, deep-copied %d, want %d", folded.Len(), ref.Len(), n+2*delta)
	}
	t.Logf("path-copy fold: %d objects, %d bytes; deep-copy fold: %d objects, %d bytes (%.1f%%, %.1f%%)",
		objects, bytes, deepObjects, deepBytes,
		100*float64(objects)/float64(deepObjects), 100*float64(bytes)/float64(deepBytes))
	if 10*objects >= deepObjects {
		t.Errorf("the fold allocated %d objects, the deep copy %d: want under a tenth", objects, deepObjects)
	}
	if 10*bytes >= deepBytes {
		t.Errorf("the fold allocated %d bytes, the deep copy %d: want under a tenth", bytes, deepBytes)
	}
}

// TestBuiltTreeBytesPerPoint pins what a built tree holds beyond the rows it
// is handed, on the benchmark's d=53 surrogate at lib-lowdim's n: one slab
// node and one child pointer a point (56 B) and the ID→row table's header,
// measured at 56.1–56.2 B against 58.0 B when nodes and children lists were
// allocated one by one. A field added to the node shows here before it
// shows on heap_mb.
func TestBuiltTreeBytesPerPoint(t *testing.T) {
	const n = 50000
	pts := dataset.FCT(n, 1).Points
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tree, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perPoint := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	runtime.KeepAlive(tree)
	t.Logf("built tree: %.1f B a point at n = %d", perPoint, n)
	if perPoint > 56.5 {
		t.Errorf("a built tree holds %.1f B a point, want at most 56.5", perPoint)
	}
}
