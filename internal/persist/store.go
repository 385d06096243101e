package persist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Store is a durable home for one engine: a directory holding the latest
// snapshot generation plus the write-ahead log of mutations applied since
// that snapshot was cut. File layout:
//
//	snap-<gen>.rknn   snapshot of generation <gen> (16 hex digits)
//	wal-<gen>.log     mutations applied after snapshot <gen>
//
// Snapshots are written to a temporary file, fsynced, and renamed into
// place, then the directory is fsynced — a crash at any point leaves
// either the old or the new generation fully intact, never a partial file
// under a live name. Cutting generation g+1 deletes generation g's files;
// recovery loads the newest readable snapshot and replays its log,
// discarding a torn final record.
//
// A Store assumes a single process: it does not lock the directory.
type Store struct {
	dir     string
	policy  SyncPolicy
	gen     uint64
	nextGen uint64
	wal     *WAL
}

// ErrNoStore reports that a directory holds no readable snapshot.
var ErrNoStore = errors.New("persist: no readable snapshot in store directory")

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.rknn", gen))
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", gen))
}

// parseGen extracts the generation from a store file name, or ok=false.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hexa := name[len(prefix) : len(name)-len(suffix)]
	if len(hexa) != 16 {
		return 0, false
	}
	gen, err := strconv.ParseUint(hexa, 16, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// RemoveTemps removes every *.tmp file in dir: the partial write a crash
// inside WriteFileAtomic leaves behind, never read since. Open runs it on a
// store's directory, and a caller that writes its own files there through
// WriteFileAtomic — the sharded store's manifest — runs it on its own. A dir
// that cannot be listed is left alone.
func RemoveTemps(dir string) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// Exists reports whether dir contains at least one snapshot file (readable
// or not); Open decides which one actually loads.
func Exists(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if _, ok := parseGen(e.Name(), "snap-", ".rknn"); ok {
			return true
		}
	}
	return false
}

// Create initializes a new store in dir (created if missing) with snap as
// generation 1 and an empty log. It refuses to overwrite an existing store.
func Create(dir string, snap *Snapshot, policy SyncPolicy) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if Exists(dir) {
		return nil, fmt.Errorf("persist: store already exists in %s", dir)
	}
	if err := writeSnapshotFile(dir, 1, snap); err != nil {
		return nil, err
	}
	wal, err := OpenWAL(walPath(dir, 1), 0, policy)
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, policy: policy, gen: 1, nextGen: 2, wal: wal}, nil
}

// Recovery describes what Open found on disk.
type Recovery struct {
	// Gen is the snapshot generation recovered.
	Gen uint64
	// WALRecords is the number of intact log records replayed on top.
	WALRecords int
	// WALTorn reports that the log ended in a torn or corrupt record,
	// which was discarded (the expected signature of a crash mid-append).
	WALTorn bool
	// SkippedSnapshots lists newer snapshot files that failed to load and
	// were passed over for an older intact generation. Each is renamed to
	// a ".corrupt" suffix so generation cleanup can never delete the
	// evidence; new generations are numbered past them.
	SkippedSnapshots []string
}

// Open recovers the store in dir: it loads the newest readable snapshot,
// replays the intact prefix of that generation's log through apply (in
// append order), truncates any torn tail, and leaves the store ready for
// further appends. Stale temporary files and superseded generations are
// cleaned up. Returns ErrNoStore when no snapshot loads.
func Open(dir string, policy SyncPolicy, apply func(WALRecord) error) (*Store, *Snapshot, Recovery, error) {
	RemoveTemps(dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, Recovery{}, err
	}
	var gens []uint64
	maxSeen := uint64(0)
	for _, e := range entries {
		name := e.Name()
		if gen, ok := parseGen(name, "snap-", ".rknn"); ok {
			gens = append(gens, gen)
			if gen > maxSeen {
				maxSeen = gen
			}
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })

	var (
		snap    *Snapshot
		rec     Recovery
		current uint64
	)
	var skipped []uint64
	for _, gen := range gens {
		f, err := os.Open(snapPath(dir, gen))
		if err != nil {
			skipped = append(skipped, gen)
			continue
		}
		s, err := ReadSnapshot(f)
		f.Close()
		if err != nil {
			skipped = append(skipped, gen)
			continue
		}
		snap, current = s, gen
		break
	}
	if snap == nil {
		// Nothing readable: leave every file untouched (so the store
		// still registers via Exists and cannot be bootstrapped over)
		// and report the failures.
		for _, gen := range skipped {
			rec.SkippedSnapshots = append(rec.SkippedSnapshots, snapPath(dir, gen))
		}
		return nil, nil, rec, ErrNoStore
	}
	rec.Gen = current
	for _, gen := range skipped {
		// Set each unreadable newer file aside under a name generation
		// cleanup never touches, so the forensic evidence outlives later
		// Cuts.
		name := snapPath(dir, gen)
		if err := os.Rename(name, name+".corrupt"); err == nil {
			name += ".corrupt"
		}
		rec.SkippedSnapshots = append(rec.SkippedSnapshots, name)
	}

	valid, torn, err := ReplayWAL(walPath(dir, current), func(r WALRecord) error {
		rec.WALRecords++
		return apply(r)
	})
	if err != nil {
		return nil, nil, rec, err
	}
	rec.WALTorn = torn

	wal, err := OpenWAL(walPath(dir, current), valid, policy)
	if err != nil {
		return nil, nil, rec, err
	}
	st := &Store{dir: dir, policy: policy, gen: current, nextGen: maxSeen + 1, wal: wal}
	st.removeGenerationsBelow(current)
	return st, snap, rec, nil
}

// Append logs the mutations with one write and at most one sync, spanned
// under ctx's trace when present.
func (st *Store) Append(ctx context.Context, records ...WALRecord) error {
	return st.wal.Append(ctx, records...)
}

// Sync forces the log to stable storage regardless of policy.
func (st *Store) Sync() error { return st.wal.Sync() }

// Gen returns the current snapshot generation.
func (st *Store) Gen() uint64 { return st.gen }

// Cut atomically installs snap as the next generation and starts a fresh
// log, then retires the previous generation's files. The caller must pass
// a snapshot reflecting every mutation it has appended (the facade holds
// its writer lock across capture and Cut).
//
// The new log is opened BEFORE the new snapshot is renamed into place: once
// snap-(g+1) exists, Open prefers it and replays wal-(g+1), so installing
// the snapshot while unable to log to the new generation would silently
// orphan every later write still going to wal-g. A failed Cut must leave no
// trace of generation g+1.
func (st *Store) Cut(snap *Snapshot) error {
	gen := st.nextGen
	wal, err := OpenWAL(walPath(st.dir, gen), 0, st.policy)
	if err != nil {
		return err
	}
	if err := writeSnapshotFile(st.dir, gen, snap); err != nil {
		wal.Close()
		os.Remove(walPath(st.dir, gen))
		return err
	}
	oldWAL := st.wal
	st.gen, st.nextGen, st.wal = gen, gen+1, wal
	oldWAL.Close()
	st.removeGenerationsBelow(gen)
	return nil
}

// removeGenerationsBelow deletes snapshot and log files older than keep.
// Best-effort: a leftover file is re-collected at the next Open or Cut.
func (st *Store) removeGenerationsBelow(keep uint64) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if gen, ok := parseGen(name, "snap-", ".rknn"); ok && gen < keep {
			os.Remove(filepath.Join(st.dir, name))
		}
		if gen, ok := parseGen(name, "wal-", ".log"); ok && gen < keep {
			os.Remove(filepath.Join(st.dir, name))
		}
	}
}

// Close syncs and closes the log. The store must not be used afterwards.
func (st *Store) Close() error {
	if st.wal == nil {
		return nil
	}
	err := st.wal.Close()
	st.wal = nil
	return err
}

// writeSnapshotFile commits snap as generation gen of the store in dir.
func writeSnapshotFile(dir string, gen uint64, snap *Snapshot) error {
	return WriteFileAtomic(snapPath(dir, gen), func(w io.Writer) error { return WriteSnapshot(w, snap) })
}

// WriteFileAtomic commits a file under the crash discipline every file of a
// store follows: write a temporary file beside path, fsync it, rename it over
// path, then fsync the directory so the new entry is durable. A failed write,
// sync or rename leaves path as it was and removes the temporary file; a
// crash leaves at worst a stale *.tmp file, which Open collects in a store
// directory. The directory fsync's own failure is ignored: several
// filesystems reject directory syncs, and durability then falls back to the
// filesystem's own ordering.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
