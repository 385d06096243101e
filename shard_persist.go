package repro

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/persist"
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
// discard, exactly as a single store recovers — and runs the assembly rule a
// Coordinator's handshake runs over the shards' descriptions: it rebuilds the
// map and cross-checks that every shard's ID span matches the count the map
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

// writeShardManifest commits the manifest under the same crash discipline
// as the snapshot files.
func writeShardManifest(dir string, shards int) error {
	return persist.WriteFileAtomic(filepath.Join(dir, shardManifestName), func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s\nshards %d\n", shardManifestMagic, shards)
		return err
	})
}

// A ShardedSearcher with a sharded store attached keeps each shard in its
// own on-disk store: every Insert and Delete is write-ahead logged in the
// owning shard's log before being acknowledged — each populated slot's
// engine holds its shard's store, so the engine's one write path is the
// logged one — and Snapshot cuts a new generation in every shard store.
//
// Relaxed sync caveat: with WithWALSync(0) or n > 1, an OS crash (not a
// process crash — unsynced appends still reach the OS immediately) can
// lose unsynced log tails unevenly across shards. Recovery detects the
// skewed ID spans and refuses to open rather than silently renumbering
// survivors, so a sharded store under a relaxed policy trades its loss
// window for a manual restore-from-backup path. The default every-write
// sync can only lose the single torn final record — always the globally
// last write — which recovery discards consistently.

// NewDurableSharded attaches a fresh sharded store in dir to ss — one
// per-shard store with an initial snapshot for every populated shard, then
// the manifest as the commit record — and returns ss: every later Insert and
// Delete on ss, through any handle, is write-ahead logged. It refuses to
// overwrite an existing store of either kind, and refuses an engine that
// already holds a sharded store. It holds the engine's update lock, so a
// write racing the call waits for it and is then logged.
func NewDurableSharded(dir string, ss *ShardedSearcher, opts ...StoreOption) (_ *ShardedSearcher, err error) {
	if ss == nil {
		return nil, errors.New("rknnd: nil sharded searcher")
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.dir != "" {
		return nil, errors.New("rknnd: the engine already holds a durable store")
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
	defer func() {
		if err == nil {
			return
		}
		// No manifest, so dir is not a sharded store: give the shard engines
		// back as they were, in memory and writable.
		for _, eng := range ss.engines() {
			eng.Close()
			eng.durable.Store(nil)
		}
	}()
	for i, eng := range ss.engines() {
		if err := eng.createStore(shardDirName(dir, i), opts); err != nil {
			return nil, fmt.Errorf("rknnd: shard %d: %w", i, err)
		}
	}
	if err := writeShardManifest(dir, ss.Shards()); err != nil {
		return nil, fmt.Errorf("rknnd: commit sharded store manifest: %w", err)
	}
	ss.dir, ss.walOpts = dir, opts
	return ss, nil
}

// OpenSharded recovers a ShardedSearcher from the sharded store in dir and
// leaves the store attached: every shard store is recovered independently
// (newest intact snapshot, WAL replay with ID verification, torn final
// record discarded), and the shards' descriptions go through the assembly
// rule a Coordinator's handshake runs (shardedCore.assemble): one engine
// configuration across shards, the global ID mapping rebuilt from the
// per-shard ID spans and cross-checked against them. Nothing is re-estimated.
func OpenSharded(dir string, opts ...StoreOption) (*ShardedSearcher, error) {
	shards, err := readShardManifest(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("rknnd: open sharded %s: %w", dir, ErrNoStore)
		}
		return nil, err
	}
	persist.RemoveTemps(dir) // a manifest write a crash cut short
	engines := make([]*Searcher, shards)
	fail := func(err error) (*ShardedSearcher, error) {
		for _, eng := range engines {
			if eng != nil {
				eng.Close()
			}
		}
		return nil, err
	}
	descs := make([]*ShardDescription, shards)
	populated := false
	for i := 0; i < shards; i++ {
		sd := shardDirName(dir, i)
		if !persist.Exists(sd) {
			continue
		}
		eng, err := Open(sd, opts...)
		if err != nil {
			return fail(fmt.Errorf("rknnd: open sharded %s: shard %d: %w", dir, i, err))
		}
		eng.sharded = true
		engines[i], populated = eng, true
		d, err := eng.Describe(i, shards)
		if err != nil {
			return fail(fmt.Errorf("rknnd: open sharded %s: shard %d: %w", dir, i, err))
		}
		descs[i] = &d
	}
	if !populated {
		return fail(fmt.Errorf("rknnd: open sharded %s: no shard holds a readable snapshot: %w", dir, ErrNoStore))
	}
	ss, of := newShardedSearcher(shards)
	if err := ss.assemble(descs, of); err != nil {
		return fail(fmt.Errorf("rknnd: open sharded %s: %w", dir, err))
	}
	for i, eng := range engines {
		if eng != nil {
			// The shard reports its folds where the sharded engine does; a
			// fold its recovery started may still be running.
			eng.compacting.Lock()
			eng.bg = ss.bg
			eng.compacting.Unlock()
			ss.slots[i].eng.Store(eng)
			// A store written before the filter was carried across restarts
			// can hold a shard without a codebook (which is why the shard
			// description does not carry it): the filter is on if any shard
			// has it, and shards created from here on train their own.
			ss.quant = ss.quant || eng.quant
		}
	}
	ss.dir, ss.walOpts = dir, opts
	return ss, nil
}

// createShardStore creates the store of a shard engine just built for a
// previously empty shard; the initial snapshot carries the engine's points.
// A process crash between the appends of different shards' groups can tear
// a multi-shard batch across logs; recovery then refuses to open (the
// ID-span cross-check) rather than renumber survivors. Callers hold mu.
func (ss *ShardedSearcher) createShardStore(shard int, eng *Searcher) error {
	if ss.closed {
		return errClosed
	}
	// The new store's snapshot is fully fsynced the moment it exists.
	// Under a relaxed sync policy the sibling shards may still hold
	// unsynced WAL tails for earlier acknowledged writes; an OS crash
	// then would persist these (later) points while losing those (earlier)
	// ones, skewing the per-shard ID spans the recovery cross-check
	// relies on. Syncing every sibling log first keeps the durable state
	// a prefix of the acknowledged writes. (Callers hold the engine's
	// update lock, so no append races these syncs.)
	for i, sibling := range ss.engines() {
		if h := sibling.durable.Load(); h != nil && h.store != nil {
			if err := h.store.Sync(); err != nil {
				return fmt.Errorf("syncing shard %d's log first: %w", i, err)
			}
		}
	}
	return eng.createStore(shardDirName(ss.dir, shard), ss.walOpts)
}

// Recovery returns what OpenSharded found on disk, indexed by shard
// (zero-valued entries for shards with no store).
func (ss *ShardedSearcher) Recovery() []RecoveryInfo {
	out := make([]RecoveryInfo, len(ss.slots))
	for i, eng := range ss.engines() {
		out[i] = eng.Recovery()
	}
	return out
}

// Generation returns the lowest snapshot generation across the populated
// shard stores — "every shard is durable at least to generation g" — and 0
// with no sharded store attached. The per-shard detail is available from
// Generations.
func (ss *ShardedSearcher) Generation() uint64 {
	var min uint64
	for _, g := range ss.Generations() {
		if g != 0 && (min == 0 || g < min) {
			min = g
		}
	}
	return min
}

// Generations returns the per-shard store generations (0 for shards with
// no store).
func (ss *ShardedSearcher) Generations() []uint64 {
	out := make([]uint64, len(ss.slots))
	for i, eng := range ss.engines() {
		out[i] = eng.Generation()
	}
	return out
}

// Snapshot cuts a new snapshot generation in every populated shard store.
// It holds the engine's update lock, so the set of cuts reflects one
// consistent prefix of the acknowledged writes. It fails on an engine with no
// sharded store attached.
func (ss *ShardedSearcher) Snapshot() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.dir == "" {
		return errNoStore
	}
	if ss.closed {
		return errClosed
	}
	for i, eng := range ss.engines() {
		if err := eng.Snapshot(); err != nil {
			return fmt.Errorf("rknnd: shard %d: %w", i, err)
		}
	}
	return nil
}

// Close syncs and closes every shard log. Further mutations fail; queries
// keep working against the in-memory state. A no-op with no sharded store
// attached, and on a store already closed.
func (ss *ShardedSearcher) Close() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.dir == "" || ss.closed {
		return nil
	}
	ss.closed = true
	var first error
	for _, eng := range ss.engines() {
		if err := eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
