package index

// State is the backend-independent persistable content of an Index: every
// point ever assigned an ID (including tombstoned ones, so that the dense
// ID space survives a round trip) plus the sorted list of tombstoned IDs.
// It is the unit internal/persist serializes; restoring is the reverse —
// rebuild the back-end over Points, then re-apply Deleted.
type State struct {
	// Points holds one row per ID in [0, len(Points)), in ID order.
	Points [][]float64
	// Deleted lists tombstoned IDs in ascending order (nil when none).
	Deleted []int
}

// Capture extracts the persistable state of an index: its full ID span and
// tombstone set.
func Capture(ix Index) State {
	var deleted []int
	points := make([][]float64, ix.IDSpan())
	for id := range points {
		points[id] = ix.Point(id)
		if !ix.Live(id) {
			deleted = append(deleted, id)
		}
	}
	return State{Points: points, Deleted: deleted}
}
