package index

import "sync/atomic"

// Table is an append-only table whose copies share one backing array — the
// form the stack's three ID-indexed tables take (a cover tree's ID→row
// table, an overlay's memtable, a shard map's arrays), because each is
// copied by every write or fold and only ever grows at the end.
//
// Copying a Table is copying the struct: both values then view the same
// array, each with its own length. The claimed-length rule keeps them
// independent. The array carries one shared counter, the number of slots
// some view has written; Append writes in place only when it moves that
// counter from its own length to one more — a compare-and-swap, so of all
// the views that end where the written slots end, exactly one wins each slot
// and the others fall through to a copy. A view therefore never writes a
// slot another view can read: every view's length is at most the counter,
// and a slot is claimed before it is written. The usual shape — writers
// serialized, each copying the latest published table — appends in place
// every time; a copy taken from an older view (a failed write retried from
// the previous snapshot, two folds of one base) pays one copy and then owns
// its own array.
//
// Rows is the view: index it and range over it freely, never write through
// it. Reading one copy while another appends needs no synchronization
// beyond whatever published the reader's copy to it. A single Table value
// is, like any slice, not safe for concurrent Append.
type Table[T any] struct {
	Rows  []T
	claim *atomic.Int64 // slots of Rows' backing array written so far, shared by every view of it
}

// TableOf wraps rows, which the caller hands over: slack past its length is
// appended into, as append would.
func TableOf[T any](rows []T) Table[T] {
	t := Table[T]{Rows: rows, claim: new(atomic.Int64)}
	t.claim.Store(int64(len(rows)))
	return t
}

// RowsOf is how every back-end holds the rows it is built over: the caller's
// slice itself, no copy, clipped to its length. Rows are shared, never
// written, so a back-end, its clones and the caller may all read them; the
// clip keeps the first Append — the back-end's own or a clone's — from
// writing a row into the caller's array past its length.
func RowsOf(points [][]float64) Table[[]float64] {
	return TableOf(points[:len(points):len(points)])
}

// tableMinSlack is the least slack a copy leaves, so a table that starts
// empty (a memtable after a rebase) is not copied on every append.
const tableMinSlack = 32

// Append adds v at the end: in place when this view claims the next slot of
// its array, otherwise into a copy with slack for len/8 more rows (at least
// tableMinSlack) — never the doubling append would do, which on an n-row
// table leaves n slots live and unused.
func (t *Table[T]) Append(v T) {
	n := len(t.Rows)
	if t.claim != nil && n < cap(t.Rows) && t.claim.CompareAndSwap(int64(n), int64(n+1)) {
		t.Rows = t.Rows[:n+1]
		t.Rows[n] = v
		return
	}
	rows := make([]T, n+1, n+1+max(n/8, tableMinSlack))
	copy(rows, t.Rows)
	rows[n] = v
	*t = TableOf(rows)
}
