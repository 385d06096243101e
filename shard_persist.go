package repro

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/vecmath"
)

// This file is the durable face of the sharded engine. A sharded store is
// a directory holding one persist.Store per populated shard plus a
// manifest naming the shard count:
//
//	dir/
//	  MANIFEST      "rknn-sharded-store v1" + the shard count
//	  shard-0/      persist.Store of shard 0 (snap-*.rknn, wal-*.log)
//	  shard-1/      ...
//
// Shards that never received a point have no directory. Nothing else needs
// persisting: the global<->(shard,local) mapping is a pure function of the
// global ID count and the shard count (index.RebuildShardMap), and the
// global count is the sum of the per-shard ID spans. Recovery therefore
// opens each shard store independently — snapshot, WAL replay, torn-tail
// discard, exactly as a single store recovers — rebuilds the map, and
// cross-checks that every shard's ID span matches the count the map
// assigns it, so a lost or truncated shard store fails loudly instead of
// silently renumbering the survivors. The manifest is written last during
// bootstrap, as the commit record: a crash mid-bootstrap leaves no
// manifest and the directory is not a sharded store.

const shardManifestName = "MANIFEST"
const shardManifestMagic = "rknn-sharded-store v1"

func shardDirName(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d", shard))
}

// ShardedStoreExists reports whether dir contains a sharded store manifest
// that OpenSharded could try to recover.
func ShardedStoreExists(dir string) bool {
	_, err := readShardManifest(dir)
	return err == nil
}

func readShardManifest(dir string) (int, error) {
	raw, err := os.ReadFile(filepath.Join(dir, shardManifestName))
	if err != nil {
		return 0, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || strings.TrimSpace(lines[0]) != shardManifestMagic {
		return 0, fmt.Errorf("rknnd: %s is not a sharded store manifest", dir)
	}
	fields := strings.Fields(lines[1])
	if len(fields) != 2 || fields[0] != "shards" {
		return 0, fmt.Errorf("rknnd: malformed sharded store manifest in %s", dir)
	}
	shards, err := strconv.Atoi(fields[1])
	if err != nil || shards <= 0 {
		return 0, fmt.Errorf("rknnd: malformed shard count in %s manifest", dir)
	}
	return shards, nil
}

// writeShardManifest commits the manifest via temp-file + rename + dir
// fsync, the same crash discipline as the snapshot files.
func writeShardManifest(dir string, shards int) error {
	tmp, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return err
	}
	content := fmt.Sprintf("%s\nshards %d\n", shardManifestMagic, shards)
	if _, err := tmp.WriteString(content); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, shardManifestName)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// DurableShardedSearcher is a ShardedSearcher whose shards each live in
// their own on-disk store: every Insert and Delete is write-ahead logged in
// the owning shard's log before being acknowledged, and Snapshot cuts a
// new generation in every shard store. Queries are served exactly as by
// the embedded ShardedSearcher. All mutations go through the logs
// automatically: every shard slot's writer is the shard's DurableSearcher,
// so the embedded engine's one write path is the logged one.
//
// Relaxed sync caveat: with WithWALSync(0) or n > 1, an OS crash (not a
// process crash — unsynced appends still reach the OS immediately) can
// lose unsynced log tails unevenly across shards. Recovery detects the
// skewed ID spans and refuses to open rather than silently renumbering
// survivors, so a sharded store under a relaxed policy trades its loss
// window for a manual restore-from-backup path. The default every-write
// sync can only lose the single torn final record — always the globally
// last write — which recovery discards consistently.
type DurableShardedSearcher struct {
	*ShardedSearcher

	dir      string
	walOpts  []StoreOption
	durables []*DurableSearcher // indexed by shard; nil until first point
	recovery []RecoveryInfo     // indexed by shard; zero-valued when absent
	closed   bool               // guarded by the embedded engine's mu
}

// NewDurableSharded binds an existing ShardedSearcher to a fresh sharded
// store in dir: one per-shard store with an initial snapshot for every
// populated shard, then the manifest as the commit record. It refuses to
// overwrite an existing store of either kind.
func NewDurableSharded(dir string, ss *ShardedSearcher, opts ...StoreOption) (*DurableShardedSearcher, error) {
	if ss == nil {
		return nil, errors.New("rknnd: nil sharded searcher")
	}
	if ShardedStoreExists(dir) {
		return nil, fmt.Errorf("rknnd: %s already holds a sharded store", dir)
	}
	if StoreExists(dir) {
		return nil, fmt.Errorf("rknnd: %s already holds a single-engine store", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rknnd: create sharded store in %s: %w", dir, err)
	}
	d := &DurableShardedSearcher{
		dir:      dir,
		walOpts:  opts,
		durables: make([]*DurableSearcher, ss.Shards()),
		recovery: make([]RecoveryInfo, ss.Shards()),
	}
	for i, slot := range ss.slots {
		eng := slot.eng.Load()
		if eng == nil {
			continue
		}
		ds, err := NewDurable(shardDirName(dir, i), eng, opts...)
		if err != nil {
			d.closeStores()
			return nil, fmt.Errorf("rknnd: shard %d: %w", i, err)
		}
		d.durables[i] = ds
		d.recovery[i] = RecoveryInfo{Generation: 1}
	}
	if err := writeShardManifest(dir, ss.Shards()); err != nil {
		d.closeStores()
		return nil, fmt.Errorf("rknnd: commit sharded store manifest: %w", err)
	}
	d.bind(ss)
	return d, nil
}

// OpenSharded recovers a DurableShardedSearcher from the sharded store in
// dir: every shard store is recovered independently (newest intact
// snapshot, WAL replay with ID verification, torn final record
// discarded), the global ID mapping is rebuilt from the per-shard ID
// spans, and the engine configuration is cross-checked across shards.
// Nothing is re-estimated.
func OpenSharded(dir string, opts ...StoreOption) (*DurableShardedSearcher, error) {
	shards, err := readShardManifest(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("rknnd: open sharded %s: %w", dir, ErrNoStore)
		}
		return nil, err
	}
	d := &DurableShardedSearcher{
		dir:      dir,
		walOpts:  opts,
		durables: make([]*DurableSearcher, shards),
		recovery: make([]RecoveryInfo, shards),
	}
	spans := make([]int, shards)
	total := 0
	var proto *Searcher
	for i := 0; i < shards; i++ {
		sd := shardDirName(dir, i)
		if !persist.Exists(sd) {
			continue
		}
		ds, err := Open(sd, opts...)
		if err != nil {
			d.closeStores()
			return nil, fmt.Errorf("rknnd: open sharded %s: shard %d: %w", dir, i, err)
		}
		d.durables[i] = ds
		d.recovery[i] = ds.Recovery()
		spans[i] = ds.IDSpan()
		total += spans[i]
		if proto == nil {
			proto = ds.Searcher
		} else if err := sameEngineConfig(proto, ds.Searcher); err != nil {
			d.closeStores()
			return nil, fmt.Errorf("rknnd: open sharded %s: shard %d: %w", dir, i, err)
		}
	}
	if proto == nil {
		d.closeStores()
		return nil, fmt.Errorf("rknnd: open sharded %s: no shard holds a readable snapshot: %w", dir, ErrNoStore)
	}
	m, err := index.RebuildShardMap(shards, total)
	if err != nil {
		d.closeStores()
		return nil, fmt.Errorf("rknnd: open sharded %s: %w", dir, err)
	}
	for i := 0; i < shards; i++ {
		if m.ShardLen(i) != spans[i] {
			d.closeStores()
			return nil, fmt.Errorf("rknnd: open sharded %s: shard %d holds %d ids, the global mapping over %d ids expects %d — the store is inconsistent (a shard store was lost or truncated, or an OS crash under a relaxed -wal-sync policy lost log tails unevenly across shards; restore the affected shard from backup)",
				dir, i, spans[i], total, m.ShardLen(i))
		}
	}

	ss := newShardedSearcher(proto.engineConfig, proto.snap.Load().ix.Metric(), proto.Dim(), shards)
	for i := range ss.slots {
		if ds := d.durables[i]; ds != nil {
			ss.slots[i].eng.Store(ds.Searcher)
			// A store written before the filter was carried across restarts
			// can hold a shard without a codebook (which is why
			// sameEngineConfig does not compare it): the filter is on if any
			// shard has it, and shards created from here on train their own.
			ss.quant = ss.quant || ds.quant
		}
	}
	ss.smap.Store(m)
	d.bind(ss)
	return d, nil
}

// sameEngineConfig verifies that two recovered shard engines carry the
// same engine configuration; shards of one store must be interchangeable.
func sameEngineConfig(a, b *Searcher) error {
	ac, bc := a.engineConfig, b.engineConfig
	ac.quant, bc.quant = false, false // see OpenSharded
	if ac != bc {
		return fmt.Errorf("shard engine configuration mismatch (scale %v/%v, backend %s/%s)", a.scale, b.scale, a.backend, b.backend)
	}
	if a.Dim() != b.Dim() {
		return fmt.Errorf("shard dimension mismatch: %d vs %d", a.Dim(), b.Dim())
	}
	// Distances computed under different metrics must never be merged: a
	// shard restored from the wrong store would silently corrupt every
	// query, so compare the persisted metric identities too.
	aID, aParam, errA := vecmath.IdentifyMetric(a.snap.Load().ix.Metric())
	bID, bParam, errB := vecmath.IdentifyMetric(b.snap.Load().ix.Metric())
	if errA != nil || errB != nil || aID != bID || aParam != bParam {
		return fmt.Errorf("shard metric mismatch (%d(%v) vs %d(%v))", aID, aParam, bID, bParam)
	}
	return nil
}

// bind makes ss the embedded engine and routes its writes through the shard
// stores: every populated slot writes through its DurableSearcher, and a
// shard populated later opens its store through openShardStore.
func (d *DurableShardedSearcher) bind(ss *ShardedSearcher) {
	d.ShardedSearcher = ss
	for i, ds := range d.durables {
		if ds != nil {
			ss.slots[i].w = ds
		}
	}
	ss.openStore = d.openShardStore
}

func (d *DurableShardedSearcher) closeStores() {
	for _, ds := range d.durables {
		if ds != nil {
			ds.Close()
		}
	}
}

// openShardStore opens the store of a shard engine just built for a
// previously empty shard; the initial snapshot carries the engine's points.
// A process crash between the appends of different shards' groups can tear
// a multi-shard batch across logs; recovery then refuses to open (the
// ID-span cross-check) rather than renumber survivors.
func (d *DurableShardedSearcher) openShardStore(shard int, eng *Searcher) (shardWriter, error) {
	if d.closed {
		return nil, errClosed
	}
	// The new store's snapshot is fully fsynced the moment it exists.
	// Under a relaxed sync policy the sibling shards may still hold
	// unsynced WAL tails for earlier acknowledged writes; an OS crash
	// then would persist these (later) points while losing those (earlier)
	// ones, skewing the per-shard ID spans the recovery cross-check
	// relies on. Syncing every sibling log first keeps the durable state
	// a prefix of the acknowledged writes. (Callers hold the engine's
	// update lock, so no append races these syncs.)
	for i, ds := range d.durables {
		if ds == nil || ds.store == nil {
			continue
		}
		if err := ds.store.Sync(); err != nil {
			return nil, fmt.Errorf("syncing shard %d's log first: %w", i, err)
		}
	}
	ds, err := NewDurable(shardDirName(d.dir, shard), eng, d.walOpts...)
	if err != nil {
		return nil, err
	}
	d.durables[shard] = ds
	d.recovery[shard] = RecoveryInfo{Generation: 1}
	return ds, nil
}

// Recovery returns what OpenSharded found on disk, indexed by shard
// (zero-valued entries for shards with no store).
func (d *DurableShardedSearcher) Recovery() []RecoveryInfo {
	out := make([]RecoveryInfo, len(d.recovery))
	copy(out, d.recovery)
	return out
}

// Generation returns the lowest snapshot generation across the populated
// shard stores — "every shard is durable at least to generation g". The
// per-shard detail is available from Generations.
func (d *DurableShardedSearcher) Generation() uint64 {
	var min uint64
	for _, ds := range d.durables {
		if ds == nil {
			continue
		}
		if g := ds.Generation(); min == 0 || g < min {
			min = g
		}
	}
	return min
}

// Generations returns the per-shard store generations (0 for shards with
// no store).
func (d *DurableShardedSearcher) Generations() []uint64 {
	out := make([]uint64, len(d.durables))
	for i, ds := range d.durables {
		if ds != nil {
			out[i] = ds.Generation()
		}
	}
	return out
}

// Snapshot cuts a new snapshot generation in every populated shard store.
// It holds the engine's update lock, so the set of cuts reflects one
// consistent prefix of the acknowledged writes.
func (d *DurableShardedSearcher) Snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	for i, ds := range d.durables {
		if ds == nil {
			continue
		}
		if err := ds.Snapshot(); err != nil {
			return fmt.Errorf("rknnd: shard %d: %w", i, err)
		}
	}
	return nil
}

// Close syncs and closes every shard log. Further mutations fail; queries
// keep working against the in-memory state.
func (d *DurableShardedSearcher) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var first error
	for _, ds := range d.durables {
		if ds == nil {
			continue
		}
		if err := ds.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
