package index

import (
	"errors"
	"maps"
	"slices"
	"sync/atomic"

	"repro/internal/vecmath"
)

// Tombstones is a set of deleted IDs: every back-end's (through RowStore)
// and the overlay's, and the dead set CountCloser is handed. Copies share it
// by one rule: a clone takes the map as it is and marks both sides as
// sharing it, and the first Add on either side after that copies the map.
// The flag is atomic because a clone is taken beside readers, and beside
// other clones, of the set it copies; Add, like any write, runs alone.
//
// The zero value is the empty set. A nil *Tombstones reads as empty too,
// which is how a caller passes CountCloser no dead set.
type Tombstones struct {
	ids    map[int]bool
	shared atomic.Bool // ids is another set's too: Add copies it first
}

// Has reports whether id is in the set. While the set is empty — the
// common case, asked per node or row of every query — it reads nothing but
// the map's length.
func (t *Tombstones) Has(id int) bool { return t != nil && len(t.ids) != 0 && t.ids[id] }

// Len returns the number of IDs in the set.
func (t *Tombstones) Len() int {
	if t == nil {
		return 0
	}
	return len(t.ids)
}

// Add puts id in the set and reports whether it was absent.
func (t *Tombstones) Add(id int) bool {
	if t.ids[id] {
		return false
	}
	switch {
	case t.ids == nil:
		t.ids = make(map[int]bool)
	case t.shared.Load():
		t.ids = maps.Clone(t.ids)
	}
	t.shared.Store(false)
	t.ids[id] = true
	return true
}

// Sorted lists the set in ascending order (nil when it is empty).
func (t *Tombstones) Sorted() []int {
	if t.Len() == 0 {
		return nil
	}
	return slices.Sorted(maps.Keys(t.ids))
}

// cloneInto makes c a copy of t that shares t's map until either side adds.
func (t *Tombstones) cloneInto(c *Tombstones) {
	t.shared.Store(true)
	c.ids = t.ids
	c.shared.Store(true)
}

// union returns t ∪ other: t itself when other is empty, otherwise a set of
// its own.
func (t *Tombstones) union(other *Tombstones) *Tombstones {
	if other.Len() == 0 {
		return t
	}
	u := &Tombstones{ids: make(map[int]bool, t.Len()+other.Len())}
	maps.Copy(u.ids, t.ids)
	maps.Copy(u.ids, other.ids)
	return u
}

// RowStore is what every back-end holds beside its search structure: the
// ID→row table, the metric with its resolved kernels, the dimension, the
// tombstones and the live count. Embedded, it is the back-end's Len, Dim,
// Point, Metric, IDSpan and Live, and its Delete — a tombstone, which query
// forms honor through Skip — so a back-end writes out only its structure
// and its query forms. Rows and tombstones are copied by RowStore's one
// rule, CloneInto.
type RowStore struct {
	rows   Table[[]float64] // ID → row; clones share it by the claimed-length rule
	metric vecmath.Metric
	dist   vecmath.DistanceFunc      // resolved kernel; falls back to metric.Distance
	batch  vecmath.BatchDistanceFunc // resolved one-vs-many kernel
	dim    int
	dead   Tombstones
	alive  int
}

// Init validates points under metric and holds them, every one live. The
// points slice is retained by reference (RowsOf) and never written.
func (s *RowStore) Init(points [][]float64, metric vecmath.Metric) error {
	if metric == nil {
		return errors.New("index: nil metric")
	}
	if err := vecmath.ValidateAllFor(metric, points); err != nil {
		return err
	}
	s.rows = RowsOf(points)
	s.metric = metric
	s.dist = vecmath.KernelFor(metric)
	s.batch = vecmath.BatchFor(metric)
	s.dim = len(points[0])
	s.alive = len(points)
	return nil
}

// Append validates p and holds it, by reference, under the next ID, which
// it returns. The back-end threads the row into its structure afterwards.
func (s *RowStore) Append(p []float64) (int, error) {
	if err := vecmath.ValidateRowFor(s.metric, s.dim, p); err != nil {
		return 0, err
	}
	s.rows.Append(p)
	s.alive++
	return len(s.rows.Rows) - 1, nil
}

// CloneInto makes c a copy of s that shares everything s holds: the rows by
// the claimed-length rule (Table), the tombstones until either side deletes
// (Tombstones). Either may grow afterwards without the other seeing it. It
// may run beside readers and other clones of s, not beside a write to s.
func (s *RowStore) CloneInto(c *RowStore) {
	c.rows, c.metric, c.dist, c.batch, c.dim, c.alive = s.rows, s.metric, s.dist, s.batch, s.dim, s.alive
	s.dead.cloneInto(&c.dead)
}

// Len implements Index; deleted points are excluded.
func (s *RowStore) Len() int { return s.alive }

// Dim implements Index.
func (s *RowStore) Dim() int { return s.dim }

// Point implements Index. It keeps returning a deleted point's row.
func (s *RowStore) Point(id int) []float64 { return s.rows.Rows[id] }

// Metric implements Index.
func (s *RowStore) Metric() vecmath.Metric { return s.metric }

// IDSpan implements Liveness.
func (s *RowStore) IDSpan() int { return len(s.rows.Rows) }

// Live implements Liveness.
func (s *RowStore) Live(id int) bool { return id >= 0 && id < len(s.rows.Rows) && !s.dead.Has(id) }

// Delete implements Dynamic with a tombstone: the row stays where it is —
// IDs are never reused — and every query form skips it.
func (s *RowStore) Delete(id int) bool {
	if id < 0 || id >= len(s.rows.Rows) || !s.dead.Add(id) {
		return false
	}
	s.alive--
	return true
}

// Rows returns the ID→row table: index it and range over it, never write
// through it.
func (s *RowStore) Rows() [][]float64 { return s.rows.Rows }

// Dist measures a to b through the resolved kernel.
func (s *RowStore) Dist(a, b []float64) float64 { return s.dist(a, b) }

// Batch measures q to every row of rows into out through the resolved
// one-vs-many kernel.
func (s *RowStore) Batch(q []float64, rows [][]float64, out []float64) { s.batch(q, rows, out) }

// Skip reports whether a query that excludes member skipID (−1 for none)
// leaves out point id: it is that member, or it is deleted.
func (s *RowStore) Skip(id, skipID int) bool { return id == skipID || s.dead.Has(id) }
