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
// the scale parameter, and the DurableSearcher — a Searcher bound to an
// on-disk store whose Insert/Delete are write-ahead logged and which
// recovers its exact state (snapshot + log replay) after a crash or
// restart. See DESIGN.md, "Durable persistence".

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
	native := ix
	if ov, ok := ix.(*index.Overlay); ok && !ov.Dirty() {
		native = ov.Base()
	}
	switch nx := native.(type) {
	case *covertree.Tree:
		rec.Native = nx.EncodeStructure()
	case *lsh.Index:
		rec.Native = nx.EncodeStructure()
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

// restoreIndex rebuilds the forward index described by a snapshot record:
// via the cover tree's native structure when present and intact, otherwise
// by a fresh build over the stored rows followed by re-applying tombstones.
func restoreIndex(rec *persist.Snapshot) (index.Index, error) {
	metric, err := vecmath.MetricFromID(rec.MetricID, rec.MetricParam)
	if err != nil {
		return nil, fmt.Errorf("rknnd: load: %w", err)
	}
	if rec.Backend == string(BackendCoverTree) && len(rec.Native) > 0 {
		if t, err := covertree.Restore(rec.Points, metric, rec.Deleted, rec.Native); err == nil {
			return t, nil
		}
		// A malformed native blob is recoverable: the rows and tombstones
		// are intact, so fall through to the generic rebuild.
	}
	if rec.Backend == string(BackendLSH) && len(rec.Native) > 0 {
		if ix, err := lsh.Restore(rec.Points, metric, rec.Deleted, rec.Native); err == nil {
			return ix, nil
		}
		// Same recoverability as the cover tree — but the rebuild below
		// re-hashes with default options, so a restored-from-rows LSH index
		// may produce different (still approximate) candidate sets than the
		// saved one. Only a corrupted-yet-checksum-valid blob takes this
		// path.
	}
	ix, err := backend.Build(rec.Backend, rec.Points, metric)
	if err != nil {
		if errors.Is(err, vecmath.ErrZeroVector) {
			// Snapshots written before the angular metric rejected zero
			// vectors can contain one; the rebuild now refuses it. Name the
			// migration instead of failing opaquely.
			return nil, fmt.Errorf("rknnd: load: %w (the snapshot predates zero-vector validation for the angular metric: delete the offending rows with the release that wrote it and re-save)", err)
		}
		return nil, fmt.Errorf("rknnd: load: %w", err)
	}
	if ix.Dim() != rec.Dim {
		return nil, fmt.Errorf("rknnd: load: snapshot dimension %d, rebuilt index dimension %d", rec.Dim, ix.Dim())
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
	if len(rec.Deleted) > 0 {
		dyn, ok := ix.(index.Dynamic)
		if !ok {
			return nil, fmt.Errorf("rknnd: load: back-end %q cannot restore tombstones", rec.Backend)
		}
		for _, id := range rec.Deleted {
			if !dyn.Delete(id) {
				return nil, fmt.Errorf("rknnd: load: tombstone %d not deletable after rebuild", id)
			}
		}
	}
	return ix, nil
}

// searcherForSnapshot assembles a Searcher around a restored index using
// the persisted engine configuration — deliberately never calling estimate.
func searcherForSnapshot(rec *persist.Snapshot, ix index.Index) (*Searcher, error) {
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
	return newSearcher(cfg, wrapOverlay(ix)), nil
}

// StoreOption configures the on-disk store behind Open and NewDurable.
type StoreOption func(*storeConfig)

type storeConfig struct {
	sync persist.SyncPolicy
}

// WithWALSync sets how often the write-ahead log fsyncs: every n-th
// acknowledged write. n = 1 (the default) makes every acknowledged write
// survive an OS crash; n = 0 never fsyncs (writes still reach the OS
// immediately, surviving a process crash); n > 1 bounds the loss window to
// n−1 writes.
func WithWALSync(n int) StoreOption {
	return func(c *storeConfig) { c.sync = persist.SyncPolicy{Every: n} }
}

// DurableSearcher is a Searcher whose state lives in an on-disk store:
// every Insert and Delete is appended to a write-ahead log before being
// acknowledged, and Snapshot cuts a new full snapshot generation and
// truncates the log. Queries are served exactly as by the embedded
// Searcher — lock-free, against immutable snapshots. All mutations MUST go
// through the DurableSearcher: updating the embedded Searcher directly
// would bypass the log and silently fork the on-disk state.
type DurableSearcher struct {
	*Searcher

	wmu      sync.Mutex // orders WAL appends with their in-memory application
	store    *persist.Store
	broken   error // set on a log failure: the store can no longer be trusted
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

// Open recovers a DurableSearcher from the store in dir: it loads the
// newest intact snapshot, replays the write-ahead log over it (verifying
// that every replayed insert lands on the ID it was originally assigned),
// discards a torn final log record, and resumes logging. The scale
// parameter is restored, never re-estimated. Returns ErrNoStore (wrapped)
// when dir holds no readable snapshot.
func Open(dir string, opts ...StoreOption) (*DurableSearcher, error) {
	cfg := storeConfig{sync: persist.DefaultSync()}
	for _, opt := range opts {
		opt(&cfg)
	}
	var records []persist.WALRecord
	st, rec, info, err := persist.Open(dir, cfg.sync, func(r persist.WALRecord) error {
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
	ix = wrapOverlay(ix)
	if err := replayRecords(ix, records); err != nil {
		st.Close()
		return nil, fmt.Errorf("rknnd: open %s: %w", dir, err)
	}
	s, err := searcherForSnapshot(rec, ix)
	if err != nil {
		st.Close()
		return nil, err
	}
	d := &DurableSearcher{
		Searcher: s,
		store:    st,
		recovery: RecoveryInfo{
			Generation:       info.Gen,
			WALRecords:       info.WALRecords,
			WALTorn:          info.WALTorn,
			SkippedSnapshots: info.SkippedSnapshots,
		},
	}
	d.gen.Store(info.Gen)
	// A large replayed log may exceed the compaction threshold; fold it in
	// the background rather than on the first unlucky write.
	s.maybeCompact()
	return d, nil
}

// replayRecords applies logged mutations to a freshly-restored index. The
// index is not yet shared, so mutations go straight to it — no
// copy-on-write clones, making replay O(records), not O(records·n).
func replayRecords(ix index.Index, records []persist.WALRecord) error {
	if len(records) == 0 {
		return nil
	}
	dyn, ok := ix.(index.Dynamic)
	if !ok {
		return fmt.Errorf("back-end does not support the logged updates")
	}
	for i, r := range records {
		switch r.Op {
		case persist.WALInsert:
			id, err := dyn.Insert(r.Point)
			if err != nil {
				return fmt.Errorf("wal record %d: %w", i, err)
			}
			if id != r.ID {
				return fmt.Errorf("wal record %d: replayed insert got id %d, logged id %d", i, id, r.ID)
			}
		case persist.WALDelete:
			if !dyn.Delete(r.ID) {
				return fmt.Errorf("wal record %d: logged delete of %d not applicable", i, r.ID)
			}
		default:
			return fmt.Errorf("wal record %d: unknown op %d", i, r.Op)
		}
	}
	return nil
}

// NewDurable binds an existing Searcher to a fresh store in dir, writing
// the initial snapshot (generation 1) and an empty log. It refuses to
// overwrite an existing store. The Searcher must not receive further
// updates except through the returned DurableSearcher.
func NewDurable(dir string, s *Searcher, opts ...StoreOption) (*DurableSearcher, error) {
	cfg := storeConfig{sync: persist.DefaultSync()}
	for _, opt := range opts {
		opt(&cfg)
	}
	rec, err := s.snapshotRecord()
	if err != nil {
		return nil, err
	}
	st, err := persist.Create(dir, rec, cfg.sync)
	if err != nil {
		return nil, fmt.Errorf("rknnd: create store in %s: %w", dir, err)
	}
	d := &DurableSearcher{Searcher: s, store: st, recovery: RecoveryInfo{Generation: 1}}
	d.gen.Store(1)
	return d, nil
}

// Recovery returns what Open found on disk (zero-valued for a store made
// by NewDurable).
func (d *DurableSearcher) Recovery() RecoveryInfo { return d.recovery }

// Generation returns the current snapshot generation of the store. It is
// lock-free, so monitoring endpoints never wait behind a snapshot cut.
func (d *DurableSearcher) Generation() uint64 { return d.gen.Load() }

var errClosed = errors.New("rknnd: durable searcher is closed")

// usable reports whether the store can still accept mutations; callers
// hold wmu.
func (d *DurableSearcher) usable() error {
	if d.store == nil {
		return errClosed
	}
	return d.broken
}

// disable poisons the store after a log failure: the write that just
// failed was applied in memory but not durably recorded, so any further
// logged write would fork the on-disk state (a lost insert would even make
// the log unreplayable, since insert IDs are verified on recovery). All
// subsequent mutations fail with the original cause; queries keep working.
// Callers hold wmu.
func (d *DurableSearcher) disable(cause error) error {
	d.broken = fmt.Errorf("rknnd: durable store disabled after write-ahead log failure: %w", cause)
	return d.broken
}

// Insert applies the update in memory and appends it to the write-ahead
// log before acknowledging. A log failure returns an error beside the
// assigned ID and disables the store (see disable); the in-memory insert
// remains visible until restart.
func (d *DurableSearcher) Insert(p []float64) (int, error) {
	return d.InsertContext(context.Background(), p)
}

// InsertContext is Insert with a context: the one-point form of
// InsertBatchContext.
func (d *DurableSearcher) InsertContext(ctx context.Context, p []float64) (int, error) {
	return firstID(d.InsertBatchContext(ctx, [][]float64{p}))
}

// InsertBatch applies a batch of points in one copy-on-write step and logs
// the whole batch as one write-ahead append — one lock acquisition, one
// frame write, at most one fsync for the entire batch. The batch is atomic
// in memory and in the log: either every point is inserted and logged, or
// none are. A failure that returns no IDs left nothing applied; a log
// failure returns the assigned IDs beside the error, with the contract of
// Insert.
func (d *DurableSearcher) InsertBatch(points [][]float64) ([]int, error) {
	return d.InsertBatchContext(context.Background(), points)
}

// InsertBatchContext is InsertBatch with a context. It shadows the embedded
// engine's promoted method — without this override a context-taking caller
// would reach the in-memory engine directly and silently bypass the
// write-ahead log. A traced context records the WAL append and fsync as
// spans.
func (d *DurableSearcher) InsertBatchContext(ctx context.Context, points [][]float64) ([]int, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if err := d.usable(); err != nil {
		return nil, err
	}
	ids, err := d.Searcher.InsertBatchContext(ctx, points)
	if err != nil || len(ids) == 0 {
		return ids, err
	}
	records := make([]persist.WALRecord, len(ids))
	for i, id := range ids {
		records[i] = persist.WALRecord{Op: persist.WALInsert, ID: id, Point: points[i]}
	}
	if err := d.store.Append(ctx, records...); err != nil {
		return ids, d.disable(err)
	}
	return ids, nil
}

// Delete applies and logs a point deletion, with the same error contract
// as Insert. Deletes that change nothing are not logged.
func (d *DurableSearcher) Delete(id int) (bool, error) {
	return d.DeleteContext(context.Background(), id)
}

// DeleteContext is Delete with a context, shadowing the promoted method for
// the same WAL-bypass reason as InsertBatchContext.
func (d *DurableSearcher) DeleteContext(ctx context.Context, id int) (bool, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if err := d.usable(); err != nil {
		return false, err
	}
	ok, err := d.Searcher.DeleteContext(ctx, id)
	if err != nil || !ok {
		return ok, err
	}
	if err := d.store.Append(ctx, persist.WALRecord{Op: persist.WALDelete, ID: id}); err != nil {
		return false, d.disable(err)
	}
	return true, nil
}

// Snapshot cuts a new snapshot generation reflecting all acknowledged
// writes — written to a temporary file and renamed into place, so a crash
// mid-cut preserves the previous generation — then truncates the log.
// Queries and the embedded engine are never blocked; concurrent Insert and
// Delete calls simply wait for the cut like any other logged write.
func (d *DurableSearcher) Snapshot() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if err := d.usable(); err != nil {
		return err
	}
	rec, err := d.snapshotRecord()
	if err != nil {
		return err
	}
	if err := d.store.Cut(rec); err != nil {
		return fmt.Errorf("rknnd: snapshot: %w", err)
	}
	d.gen.Store(d.store.Gen())
	return nil
}

// Close syncs and closes the log. Further mutations fail; queries keep
// working against the in-memory state.
func (d *DurableSearcher) Close() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if d.store == nil {
		return nil
	}
	err := d.store.Close()
	d.store = nil
	return err
}
