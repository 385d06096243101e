package index

import (
	"fmt"
	"slices"
)

// ShardMap is the stable bidirectional mapping between the global ID space
// of a sharded engine and the (shard, local ID) spaces of its per-shard
// indexes. Global IDs are dense integers assigned in insertion order, like
// the IDs of any single Index; each global ID is hash-partitioned to a
// shard by ShardOf and receives the next local ID of that shard. Local IDs
// therefore grow densely per shard in global insertion order, which makes
// the whole mapping a pure function of (global count, shard count) — the
// property the durable recovery path relies on (RebuildShardMap).
//
// A ShardMap is immutable from the reader side: queries hold one map value
// and translate freely, while writers Clone, Assign, and publish the clone
// (the same copy-on-write discipline as the index snapshots, DESIGN.md).
// Deletes never touch the map — tombstones live in the shard indexes — so a
// once-published (global, shard, local) triple is valid forever. The map is
// append-only, so a clone shares its arrays by the claimed-length rule
// (Table): a write costs the triple it assigns, not a copy of the map.
type ShardMap struct {
	shards  int
	shardOf Table[int32]   // global -> shard
	localOf Table[int32]   // global -> local
	globals []Table[int32] // shard -> local -> global
}

// ShardOf returns the shard a global ID is partitioned to, a fixed
// splitmix64-style mix of the ID so that consecutive IDs spread evenly.
// It is a pure function: the same (global, shards) pair maps identically
// across processes, restarts, and releases — on-disk stores depend on it.
func ShardOf(global, shards int) int {
	z := uint64(global) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(shards))
}

// NewShardMap returns an empty mapping over the given number of shards.
func NewShardMap(shards int) (*ShardMap, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("index: shard count must be positive, got %d", shards)
	}
	return &ShardMap{shards: shards, globals: make([]Table[int32], shards)}, nil
}

// RebuildShardMap reconstructs the mapping for n global IDs, exactly as n
// successive Assign calls on a fresh map would have built it. Recovery uses
// it to re-derive the mapping from per-shard ID spans instead of persisting
// the map itself.
func RebuildShardMap(shards, n int) (*ShardMap, error) {
	m, err := NewShardMap(shards)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		m.Assign()
	}
	return m, nil
}

// Partition replays the hash assignment over points in ID order: the map of
// len(points) global IDs, and each shard's rows in local-ID order. Every
// topology that partitions a dataset — the in-process sharded engine and each
// shard daemon of a cluster — partitions through it, so shard s holds the
// same rows in the same order everywhere.
func Partition(points [][]float64, shards int) (*ShardMap, [][][]float64, error) {
	m, err := NewShardMap(shards)
	if err != nil {
		return nil, nil, err
	}
	parts := make([][][]float64, shards)
	for range points {
		g, s, _ := m.Assign()
		parts[s] = append(parts[s], points[g])
	}
	return m, parts, nil
}

// Shards returns the shard count.
func (m *ShardMap) Shards() int { return m.shards }

// Len returns the number of global IDs ever assigned (the global ID span;
// tombstoned IDs are still counted, exactly like Liveness.IDSpan).
func (m *ShardMap) Len() int { return len(m.shardOf.Rows) }

// ShardLen returns the number of global IDs ever assigned to one shard —
// the shard index's expected ID span.
func (m *ShardMap) ShardLen(shard int) int { return len(m.globals[shard].Rows) }

// Assign allocates the next global ID, places it on its shard, and returns
// the full (global, shard, local) triple. Not safe for concurrent use;
// writers must hold their update lock and publish a Clone.
func (m *ShardMap) Assign() (global, shard, local int) {
	global = len(m.shardOf.Rows)
	shard = ShardOf(global, m.shards)
	local = len(m.globals[shard].Rows)
	m.shardOf.Append(int32(shard))
	m.localOf.Append(int32(local))
	m.globals[shard].Append(int32(global))
	return global, shard, local
}

// Locate translates a global ID to its (shard, local) placement. ok is
// false for IDs never assigned.
func (m *ShardMap) Locate(global int) (shard, local int, ok bool) {
	if global < 0 || global >= len(m.shardOf.Rows) {
		return 0, 0, false
	}
	return int(m.shardOf.Rows[global]), int(m.localOf.Rows[global]), true
}

// Global translates a (shard, local) placement back to its global ID. ok is
// false for locals never assigned.
func (m *ShardMap) Global(shard, local int) (global int, ok bool) {
	if shard < 0 || shard >= m.shards || local < 0 || local >= len(m.globals[shard].Rows) {
		return 0, false
	}
	return int(m.globals[shard].Rows[local]), true
}

// Globals returns the ascending global IDs living on one shard, indexed by
// local ID. The returned slice is owned by the map and must not be
// modified.
func (m *ShardMap) Globals(shard int) []int32 { return m.globals[shard].Rows }

// Clone returns an independent copy for a writer to extend and publish. It
// copies S table headers; the arrays are shared, and the clone's Assign
// never writes a slot the original (or a reader still holding it) can see.
func (m *ShardMap) Clone() *ShardMap {
	return &ShardMap{
		shards:  m.shards,
		shardOf: m.shardOf,
		localOf: m.localOf,
		globals: slices.Clone(m.globals),
	}
}
