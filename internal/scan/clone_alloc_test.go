//go:build !race

package scan

import (
	"runtime"
	"testing"

	"repro/internal/vecmath"
)

// TestCloneSharesTheRows pins what a fold's Clone of a scan index costs: the
// ID→row table is shared, not copied, so cloning a 50 000-row index
// allocates a few hundred bytes whatever n is — a copy of the row headers
// alone is 50 000 × 24 B. The minimum of a few clones is taken, so a
// collection landing inside one cannot fail the pin.
func TestCloneSharesTheRows(t *testing.T) {
	const n = 50000
	pts := make([][]float64, n)
	block := make([]float64, 2*n)
	for i := range pts {
		pts[i] = block[2*i : 2*i+2 : 2*i+2]
		pts[i][0], pts[i][1] = float64(i), float64(i%7)
	}
	ix, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	least := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cl := ix.Clone()
		runtime.ReadMemStats(&after)
		if cl.Len() != n {
			t.Fatalf("clone holds %d rows, want %d", cl.Len(), n)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("Clone of %d rows allocated %d bytes", n, least)
	if least > 1024 {
		t.Errorf("Clone of %d rows allocated %d bytes, want O(1) (≤ 1 KB)", n, least)
	}
}
