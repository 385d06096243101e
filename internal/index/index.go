// Package index defines the contract between the RkNN algorithms and the
// similarity-search back-ends that feed them.
//
// The RDT algorithm (Casanova et al., PVLDB 2017, Section 4) requires only an
// auxiliary structure that can process *incremental* forward nearest-neighbor
// queries: neighbors of a query point are pulled one at a time, in
// non-decreasing distance order, until the dimensional test terminates the
// search. Cursor captures exactly that capability; Index adds the two
// queries the refinement asks of the same structure: batch kNN, and
// CountCloser, the bounded strict count that decides whether fewer than k
// points lie closer to a candidate than the query does. Nothing else — no
// range query — is part of the contract. The competing methods that walk
// their own trees (the M-tree and R-tree baselines) are not Index
// implementations; they read those trees directly.
package index

import (
	"context"

	"repro/internal/vecmath"
)

// Neighbor is one element of a query result: a dataset member identified by
// its stable integer ID, together with its distance from the query.
type Neighbor struct {
	ID   int
	Dist float64
}

// Before is the (distance, ID) total order: ascending distance, ties broken
// by the smaller ID. Every merge, stream and resumption key in the module
// runs under it, so S shard streams merge into exactly the stream over their
// union, whatever the partition.
func Before(a, b Neighbor) bool {
	return a.Dist < b.Dist || a.Dist == b.Dist && a.ID < b.ID
}

// Cursor streams the members of a dataset in non-decreasing distance from a
// fixed query point. A Cursor is single-use and not safe for concurrent use:
// NewCursor, then Next as often as wanted, then Close, all on one goroutine.
type Cursor interface {
	// Next returns the next-nearest unvisited neighbor. ok is false once
	// the dataset is exhausted.
	Next() (n Neighbor, ok bool)

	// Close ends the scan. Whoever opened the cursor calls it once, when it
	// will read no further — exhausted or not — and does not touch the
	// cursor again: a back-end may hand its memory to the next cursor it
	// opens. (Until it does, a repeated Close is a no-op, and Next never
	// serves another query's neighbors.) A cursor that is never closed is
	// legal: it is collected like any other garbage, and the next query
	// merely allocates afresh.
	Close()
}

// Collect reads the first k neighbors off c (fewer if it ends sooner),
// closes it and returns them: the KNN answer of an index whose cursor
// streams its kNN order. The caller clamps k to the live count, so a huge k
// sizes no buffer.
func Collect(c Cursor, k int) []Neighbor {
	defer c.Close()
	out := make([]Neighbor, 0, max(k, 0))
	for len(out) < k {
		n, ok := c.Next()
		if !ok {
			break
		}
		out = append(out, n)
	}
	return out
}

// Index is a read-only similarity-search structure over a finite point set.
// Implementations must be safe for concurrent readers.
//
// IDs are dense integers in [0, IDSpan()) assigned in dataset order, so
// results from different Index implementations over the same dataset are
// directly comparable; a deleted ID stays assigned and is no longer Live.
type Index interface {
	Liveness

	// Len returns the number of live points.
	Len() int

	// Dim returns the dimensionality of the indexed points.
	Dim() int

	// Point returns the coordinates of the point with the given ID. The
	// returned slice is owned by the index and must not be modified.
	Point(id int) []float64

	// Metric returns the distance under which the index operates.
	Metric() vecmath.Metric

	// NewCursor begins an incremental nearest-neighbor traversal from q.
	// If skipID >= 0, the point with that ID is omitted from the stream;
	// RkNN algorithms use this to exclude a query that is itself a
	// dataset member (see the self-exclusion convention in DESIGN.md).
	NewCursor(q []float64, skipID int) Cursor

	// KNN returns the k nearest neighbors of q in ascending distance
	// order (fewer if the dataset is smaller). skipID as in NewCursor.
	KNN(q []float64, k int, skipID int) []Neighbor

	// CountCloser returns min(limit, |{x : d(q,x) < r}|) over the live
	// points, excluding skipID and every ID in dead (nil excludes nothing).
	// It is the refinement test of the RkNN algorithms — "do fewer than k
	// points lie strictly closer to x than q does?" is
	// CountCloser(x, d(q,x), k, x, nil) < k — so the comparison is strict
	// (a point at exactly r is not counted), the search stops at limit, and
	// nothing is allocated or ranked. Subtrees may be pruned only when
	// their lower bound is > r, the rule KNN prunes by, so the answer
	// agrees with KNN(q, limit, skipID) on every tie.
	//
	// The dead set exists because a count, unlike a neighbor list, cannot
	// be filtered after the fact: a layered index (Overlay) passes the
	// tombstones it holds over this index's IDs.
	CountCloser(q []float64, r float64, limit, skipID int, dead *Tombstones) int
}

// CountQuery is one CountCloser call as a value: count the live points
// strictly closer to Point than Radius, not counting member Skip (-1 for
// none), no further than Limit.
type CountQuery struct {
	Point  []float64
	Radius float64
	Limit  int
	Skip   int
}

// BatchCounter is an optional capability of an index for which a count is
// expensive to reach but cheap to batch — a federation of shards, some across
// a network. The RkNN refinement hands such an index every candidate it could
// not settle in one call (out[i] answers qs[i] as CountCloser would, with no
// dead set), so verification costs one round trip per query, not one per
// candidate. ctx carries the query's trace span and cancellation.
type BatchCounter interface {
	CountCloserBatch(ctx context.Context, qs []CountQuery) []int
}

// TableReverser is what an exact index answers by a k-distance table: given
// kd, a table over its IDs (kd[x] the distance from x to its k-th nearest
// other live member, −Inf for an ID that is not live), it answers a reverse
// k-nearest-neighbor query in one pass, for the reverse neighbors of q are
// exactly the x ≠ skipID with d(q,x) ≤ kd[x]. No kNN order is needed. Every
// Cloner is one; a federation of shards is not.
type TableReverser interface {
	// TableBounds returns the pruning state ReverseByTable takes beside kd,
	// computed once per table (the cover tree's subtree maxima of kd; nil
	// for an index that prunes nothing).
	TableBounds(kd []float64) (bounds []float64)

	// ReverseByTable appends to out, in no particular order, every x ≠
	// skipID with d(q,x) ≤ kd[x], and returns it. bounds is TableBounds(kd).
	ReverseByTable(q []float64, skipID int, kd, bounds []float64, out []int) []int
}

// Dynamic is implemented by indexes that support online updates, the
// property the paper highlights for dynamic scenarios (Section 4: "no
// additional costs ... other than those due to changes made to the auxiliary
// forward kNN index structure").
type Dynamic interface {
	Index

	// Insert adds a point and returns its assigned ID.
	Insert(p []float64) (int, error)

	// Delete removes the point with the given ID. It reports whether the
	// ID was present (and not already deleted).
	Delete(id int) bool
}

// Liveness is the part of Index that names its IDs. The ID space outgrows
// Len() through tombstoned deletes: IDs are never reused, so after a delete
// the live IDs are no longer the dense prefix [0, Len()). Query layers use
// it to validate member-query IDs; core asks it of a source that is no
// Index (a source without it has every ID in [0, Len()) live).
type Liveness interface {
	// IDSpan returns the number of IDs ever assigned; valid IDs lie in
	// [0, IDSpan()).
	IDSpan() int

	// Live reports whether id is assigned and not deleted.
	Live(id int) bool
}

// Cloner is the contract of a serving back-end, the base an Overlay holds:
// an exact dynamic index that answers by a k-distance table and can hand out
// an independent copy of itself. Independent both ways: no mutation of the
// clone is ever observable through the original, and none of the original
// through the clone, so a frozen original keeps serving concurrent readers
// while the clone absorbs updates. The two may share immutable structure —
// every back-end shares its rows and tombstones (RowStore.CloneInto); the
// cover tree's Clone is O(1) and its insertions copy the path they change —
// and Clone itself may run beside readers and other Clones of the same index.
// This is the primitive behind the facade's copy-on-write snapshots
// (DESIGN.md).
type Cloner interface {
	Dynamic
	TableReverser

	// Clone returns an independent copy of the index.
	Clone() Cloner
}
