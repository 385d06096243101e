package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/covertree"
	"repro/internal/index"
	"repro/internal/lsh"
	"repro/internal/persist"
	"repro/internal/vecmath"
)

// This file is the public face of the durability layer (internal/persist):
// snapshotting a Searcher to a stream, restoring one without re-estimating
// the scale parameter, and the store a Searcher can hold — attached, its
// Insert/Delete are write-ahead logged and the engine recovers its exact
// state (snapshot + log replay) after a crash or restart. See DESIGN.md,
// "Durable persistence".

// ErrNoStore reports that Open found no readable snapshot in the directory.
var ErrNoStore = persist.ErrNoStore

// Save writes a versioned, checksummed binary snapshot of the Searcher's
// current state — metric, back-end, scale configuration, points, and
// tombstones — to w. Load restores it without re-estimating the scale. Save
// runs against one immutable index snapshot, so it is safe to call
// concurrently with queries and updates; updates racing the call may or may
// not be included. Only built-in metrics serialize; a custom Metric makes
// Save fail.
func (s *Searcher) Save(w io.Writer) error {
	rec, err := s.snapshotRecord()
	if err != nil {
		return err
	}
	if err := persist.WriteSnapshot(w, rec); err != nil {
		return fmt.Errorf("rknnd: save: %w", err)
	}
	return nil
}

// snapshotRecord captures the Searcher's current state as a persist record.
func (s *Searcher) snapshotRecord() (*persist.Snapshot, error) {
	// Fold the delta overlay first so the record can ship the base
	// back-end's native structure blob. Racing writers may leave a residual
	// delta; the record then captures generically (rows + tombstones) and a
	// restore rebuilds — exactly the existing corrupted-blob degradation.
	s.compactNow()
	ix := s.snap.Load().ix
	metricID, metricParam, err := vecmath.IdentifyMetric(ix.Metric())
	if err != nil {
		return nil, fmt.Errorf("rknnd: save: %w", err)
	}
	st := index.Capture(ix)
	rec := &persist.Snapshot{
		MetricID:    metricID,
		MetricParam: metricParam,
		Backend:     string(s.backend),
		Plus:        s.plus,
		Adaptive:    s.adaptive,
		Scale:       s.scale,
		Margin:      s.margin,
		Dim:         ix.Dim(),
		Points:      st.Points,
		Deleted:     st.Deleted,
	}
	// Backend-native fast path: the cover tree ships its node topology so
	// a restore reattaches it to the point rows with zero distance
	// computations instead of re-inserting every point; the LSH index ships
	// its projections, offsets, width, and buckets so a restore performs
	// zero hash computations and reproduces byte-identical candidate sets.
	// A clean overlay exposes its base for the blob; a dirty one stays
	// generic.
	if !ix.Dirty() {
		switch nx := ix.Base().(type) {
		case *covertree.Tree:
			rec.Native = nx.EncodeStructure()
		case *lsh.Index:
			rec.Native = nx.EncodeStructure()
		}
	}
	// The quantized-filter codebook ships with the snapshot so a restore
	// screens with the original training bounds instead of retraining on
	// the (possibly mutated) row set.
	if cb := s.quantCodebook(); cb != nil {
		rec.Quant = cb.MarshalBinary()
	}
	return rec, nil
}

// Load restores a Searcher from a snapshot written by Save. The scale
// parameter, metric, back-end, and tombstone state all come from the
// snapshot — nothing is re-estimated, so loading is build-cost only (and
// for the cover tree back-end, cheaper still via its native structure
// blob).
func Load(r io.Reader) (*Searcher, error) {
	rec, err := persist.ReadSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("rknnd: load: %w", err)
	}
	ix, err := restoreIndex(rec)
	if err != nil {
		return nil, err
	}
	return searcherForSnapshot(rec, ix)
}

// restoreIndex rebuilds the forward index described by a snapshot record,
// under a clean overlay: via the back-end's native structure when present
// and intact, otherwise by a fresh build over the stored rows; either way
// the tombstones are re-applied after.
func restoreIndex(rec *persist.Snapshot) (*index.Overlay, error) {
	metric, err := vecmath.MetricFromID(rec.MetricID, rec.MetricParam)
	if err != nil {
		return nil, fmt.Errorf("rknnd: load: %w", err)
	}
	if rec.Backend == "kdtree" || rec.Backend == "vptree" {
		// Written by a back-end since retired. Those engines never took a
		// write, so the record is rows and engine configuration; every exact
		// back-end gives the same answers over them, and the engine goes on
		// (and saves) as a cover tree.
		rec.Backend = string(BackendCoverTree)
	}
	var ix index.Dynamic
	if rec.Backend == string(BackendCoverTree) && len(rec.Native) > 0 {
		if t, err := covertree.Restore(rec.Points, metric, rec.Native); err == nil {
			ix = t
		}
		// A malformed native blob is recoverable: the rows and tombstones
		// are intact, so fall through to the generic rebuild.
	}
	if rec.Backend == string(BackendLSH) && len(rec.Native) > 0 {
		if l, err := lsh.Restore(rec.Points, metric, rec.Native); err == nil {
			ix = l
		}
		// Same recoverability as the cover tree — but the rebuild below
		// re-hashes with default options, so a restored-from-rows LSH index
		// may produce different (still approximate) candidate sets than the
		// saved one. Only a corrupted-yet-checksum-valid blob takes this
		// path.
	}
	if ix == nil {
		// Every row the snapshot holds has its Dim coordinates (the points
		// section is read that way), so the rebuild has the record's dimension.
		if ix, err = backend.Build(rec.Backend, rec.Points, metric); err != nil {
			if errors.Is(err, vecmath.ErrZeroVector) {
				// Snapshots written before the angular metric rejected zero
				// vectors can contain one; the rebuild now refuses it. Name the
				// migration instead of failing opaquely.
				return nil, fmt.Errorf("rknnd: load: %w (the snapshot predates zero-vector validation for the angular metric: delete the offending rows with the release that wrote it and re-save)", err)
			}
			return nil, fmt.Errorf("rknnd: load: %w", err)
		}
	}
	if len(rec.Quant) > 0 {
		// Re-enable the filter with the stored codebook. A corrupt blob is
		// recoverable — the codebook only affects screening speed, never
		// results — so degrade to retraining on the restored rows.
		cb, err := vecmath.DecodeCodebook(rec.Quant)
		if err != nil {
			cb = nil
		}
		if err := enableQuantFilter(ix, cb); err != nil {
			return nil, err
		}
	}
	for _, id := range rec.Deleted {
		if !ix.Delete(id) {
			return nil, fmt.Errorf("rknnd: load: tombstone %d not deletable", id)
		}
	}
	return index.NewOverlay(ix), nil
}

// searcherForSnapshot assembles a Searcher around a restored index using
// the persisted engine configuration — deliberately never calling estimate.
func searcherForSnapshot(rec *persist.Snapshot, ix *index.Overlay) (*Searcher, error) {
	cfg := engineConfig{
		scale:    rec.Scale,
		plus:     rec.Plus,
		adaptive: rec.Adaptive,
		margin:   rec.Margin,
		backend:  Backend(rec.Backend),
		quant:    len(rec.Quant) > 0,
	}
	if rec.Adaptive {
		if rec.Margin < 0 {
			return nil, fmt.Errorf("rknnd: load: negative adaptive margin %v", rec.Margin)
		}
		cfg.scale = 0
	} else if !(rec.Scale > 0) {
		return nil, fmt.Errorf("rknnd: load: scale parameter %v not positive", rec.Scale)
	}
	return newSearcher(cfg, ix), nil
}

// StoreOption configures the on-disk store behind Open and NewDurable.
type StoreOption func(*persist.SyncPolicy)

// WithWALSync sets how often the write-ahead log fsyncs: every n-th
// acknowledged write. n = 1 (the default) makes every acknowledged write
// survive an OS crash; n = 0 never fsyncs (writes still reach the OS
// immediately, surviving a process crash); n > 1 bounds the loss window to
// n−1 writes.
func WithWALSync(n int) StoreOption {
	return func(p *persist.SyncPolicy) { p.Every = n }
}

// syncPolicy applies opts over the default (fsync every write).
func syncPolicy(opts []StoreOption) persist.SyncPolicy {
	p := persist.DefaultSync()
	for _, opt := range opts {
		opt(&p)
	}
	return p
}

// DurableSearcher is the name a Searcher with a store attached used to have.
//
// Deprecated: durability is state of the engine; use Searcher.
type DurableSearcher = Searcher

// engineStore is the on-disk store a Searcher holds once NewDurable or Open
// attached one: from then on the engine's one write path appends every
// applied Insert and Delete to the write-ahead log before acknowledging it,
// and Snapshot cuts a new full snapshot generation and truncates the log.
// Queries never touch it. A nil *engineStore is an in-memory engine; begin
// and end are inert on it.
type engineStore struct {
	mu       sync.Mutex     // orders WAL appends with their in-memory application; taken outside Searcher.mu
	store    *persist.Store // nil once closed
	broken   error          // set on a log failure: the store can no longer be trusted
	gen      atomic.Uint64
	recovery RecoveryInfo
}

// RecoveryInfo describes what Open found on disk.
type RecoveryInfo struct {
	// Generation is the snapshot generation recovered (1 for a store that
	// has never cut a snapshot since creation).
	Generation uint64
	// WALRecords is the number of logged mutations replayed on top of the
	// snapshot.
	WALRecords int
	// WALTorn reports that the log ended in a torn or corrupt record —
	// the signature of a crash mid-append — which was discarded.
	WALTorn bool
	// SkippedSnapshots lists newer snapshot files that failed validation
	// and were passed over for an older intact generation.
	SkippedSnapshots []string
}

// StoreExists reports whether dir contains a persisted store that Open
// could try to recover.
func StoreExists(dir string) bool { return persist.Exists(dir) }

// Open recovers a Searcher from the store in dir and leaves the store
// attached: it loads the newest intact snapshot, replays the write-ahead log
// over it (verifying that every replayed insert lands on the ID it was
// originally assigned), discards a torn final log record, and resumes
// logging. The scale parameter is restored, never re-estimated. Returns
// ErrNoStore (wrapped) when dir holds no readable snapshot.
func Open(dir string, opts ...StoreOption) (*Searcher, error) {
	var records []persist.WALRecord
	st, rec, info, err := persist.Open(dir, syncPolicy(opts), func(r persist.WALRecord) error {
		records = append(records, r)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("rknnd: open %s: %w", dir, err)
	}
	ix, err := restoreIndex(rec)
	if err != nil {
		st.Close()
		return nil, err
	}
	// Replay lands in the overlay's memtable: O(records) appends with zero
	// distance or hash computations, while insert-ID verification still
	// holds (row positions reproduce the logged IDs exactly).
	if err := replayRecords(ix, records); err != nil {
		st.Close()
		return nil, fmt.Errorf("rknnd: open %s: %w", dir, err)
	}
	s, err := searcherForSnapshot(rec, ix)
	if err != nil {
		st.Close()
		return nil, err
	}
	s.attach(st, RecoveryInfo{
		Generation:       info.Gen,
		WALRecords:       info.WALRecords,
		WALTorn:          info.WALTorn,
		SkippedSnapshots: info.SkippedSnapshots,
	})
	// A large replayed log may exceed the compaction threshold; fold it in
	// the background rather than on the first unlucky write.
	s.maybeCompact()
	return s, nil
}

// replayRecords applies logged mutations to a freshly-restored index. The
// index is not yet shared, so mutations go straight to it — no
// copy-on-write clones, making replay O(records), not O(records·n).
func replayRecords(ix *index.Overlay, records []persist.WALRecord) error {
	for i, r := range records {
		switch r.Op {
		case persist.WALInsert:
			id, err := ix.Insert(r.Point)
			if err != nil {
				return fmt.Errorf("wal record %d: %w", i, err)
			}
			if id != r.ID {
				return fmt.Errorf("wal record %d: replayed insert got id %d, logged id %d", i, id, r.ID)
			}
		case persist.WALDelete:
			if !ix.Delete(r.ID) {
				return fmt.Errorf("wal record %d: logged delete of %d not applicable", i, r.ID)
			}
		default:
			return fmt.Errorf("wal record %d: unknown op %d", i, r.Op)
		}
	}
	return nil
}

// NewDurable attaches a fresh store in dir to s — the initial snapshot
// (generation 1) and an empty log — and returns s: every later Insert and
// Delete on s, through any handle, is write-ahead logged. It refuses to
// overwrite an existing store, and refuses an engine that already holds a
// store (open, poisoned or closed) or is a shard of a ShardedSearcher (its
// store is NewDurableSharded's to attach); a refusal leaves s and dir
// untouched. No write may run on s concurrently with the call itself: one
// landing between the snapshot and the attachment would be in neither.
func NewDurable(dir string, s *Searcher, opts ...StoreOption) (*Searcher, error) {
	if s.sharded {
		return nil, errors.New("rknnd: the engine is a shard of a ShardedSearcher; attach a store to that with NewDurableSharded")
	}
	if err := s.createStore(dir, opts); err != nil {
		return nil, err
	}
	return s, nil
}

// createStore is NewDurable for any engine, a shard engine included.
func (s *Searcher) createStore(dir string, opts []StoreOption) error {
	if s.durable.Load() != nil {
		return errors.New("rknnd: the engine already holds a durable store")
	}
	rec, err := s.snapshotRecord()
	if err != nil {
		return err
	}
	st, err := persist.Create(dir, rec, syncPolicy(opts))
	if err != nil {
		return fmt.Errorf("rknnd: create store in %s: %w", dir, err)
	}
	s.attach(st, RecoveryInfo{Generation: 1})
	return nil
}

// attach makes st the engine's store, at the generation rec names.
func (s *Searcher) attach(st *persist.Store, rec RecoveryInfo) {
	h := &engineStore{store: st, recovery: rec}
	h.gen.Store(rec.Generation)
	s.durable.Store(h)
}

var (
	errClosed  = errors.New("rknnd: durable searcher is closed")
	errNoStore = errors.New("rknnd: no durable store attached")
)

// begin opens one logged write: it takes the log mutex and refuses when the
// store is closed or poisoned. A nil error must be paired with end.
func (h *engineStore) begin() error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	err := h.broken
	if h.store == nil {
		err = errClosed
	}
	if err != nil {
		h.mu.Unlock()
	}
	return err
}

func (h *engineStore) end() {
	if h != nil {
		h.mu.Unlock()
	}
}

// append logs the records of one applied write as one frame — one write and
// at most one fsync — between begin and end. A failure poisons the store: the
// write was applied in memory but not durably recorded, so any further logged
// write would fork the on-disk state (a lost insert would even make the log
// unreplayable, since insert IDs are verified on recovery). All subsequent
// mutations fail with the original cause; queries keep working.
func (h *engineStore) append(ctx context.Context, records ...persist.WALRecord) error {
	if err := h.store.Append(ctx, records...); err != nil {
		h.broken = fmt.Errorf("rknnd: durable store disabled after write-ahead log failure: %w", err)
		return h.broken
	}
	return nil
}

// Recovery returns what Open found on disk ({Generation: 1} for a store made
// by NewDurable, zero-valued with no store attached).
func (s *Searcher) Recovery() RecoveryInfo {
	if h := s.durable.Load(); h != nil {
		return h.recovery
	}
	return RecoveryInfo{}
}

// Generation returns the current snapshot generation of the attached store,
// which starts at 1; 0 means no store is attached. It is lock-free, so
// monitoring endpoints never wait behind a snapshot cut.
func (s *Searcher) Generation() uint64 {
	if h := s.durable.Load(); h != nil {
		return h.gen.Load()
	}
	return 0
}

// Snapshot cuts a new snapshot generation reflecting all acknowledged
// writes — written to a temporary file and renamed into place, so a crash
// mid-cut preserves the previous generation — then truncates the log.
// Queries are never blocked; concurrent Insert and Delete calls simply wait
// for the cut like any other logged write. It fails on an engine with no
// store attached.
func (s *Searcher) Snapshot() error {
	h := s.durable.Load()
	if h == nil {
		return errNoStore
	}
	if err := h.begin(); err != nil {
		return err
	}
	defer h.end()
	rec, err := s.snapshotRecord()
	if err != nil {
		return err
	}
	if err := h.store.Cut(rec); err != nil {
		return fmt.Errorf("rknnd: snapshot: %w", err)
	}
	h.gen.Store(h.store.Gen())
	return nil
}

// Close cancels the k-distance fills and waits for them to stop, then syncs
// and closes the attached store's log. Further mutations fail; queries keep
// working against the in-memory state, by Algorithm 1 wherever no table was
// complete, and no fill starts again. Closing a store already closed, or
// none, does nothing more.
func (s *Searcher) Close() error {
	s.fills.Close()
	h := s.durable.Load()
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.store == nil {
		return nil
	}
	err := h.store.Close()
	h.store = nil
	return err
}
