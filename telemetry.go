package repro

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/telemetry"
)

// This file is the engine's observability face: an optional binding of an
// engine to an internal/telemetry Registry (EnableTelemetry), feeding every
// query's core.Stats into aggregate counters. The paper's central
// claim — dimensional testing settles most candidates without verification
// — becomes a live time series here: rknn_candidates_*_total track the
// filter/refinement machinery exactly as Stats reports it per query, and
// rknn_pruning_ratio exposes the settled fraction as a scrape-time gauge.
// See DESIGN.md, "Observability".
//
// Metric mapping (counter += per-query Stats field, per back-end):
//
//	rknn_scan_depth_total                 ScanDepth (Algorithm 1's scans only: 0 on a table-decided query)
//	rknn_candidates_generated_total       FilterSize + Excluded (= Stats.Candidates)
//	rknn_candidates_excluded_total        Excluded (RDT+ exclusions)
//	rknn_candidates_lazy_accepted_total   LazyAccepts (Assertion 2)
//	rknn_candidates_lazy_settled_total    LazyAccepts + LazyRejects
//	rknn_candidates_verified_total        Verified (refinement counts)
//	rknn_distance_comps_total             DistanceComps
//
// The mapping is the same for a sharded engine, and so are the values: a
// sharded query is one run of the algorithm over the merged shard streams,
// whose Stats are the unsharded query's. What is per shard is only what is
// drawn from a shard (counter += per query, by shard):
//
//	rknn_shard_scatter_queries_total      1 per shard whose stream the query opened
//	rknn_shard_neighbors_pulled_total     rows pulled from the shard's stream
//	rknn_shard_count_probes_total         refinement probes the shard answered: on a
//	                                      remote shard every one of Verified; on an
//	                                      in-process shard, counted in turn, those
//	                                      the shards before it left unsettled
//
// The /statsz engine windows are windowed sums over the same Stats fields
// (scan_depth, candidates_generated, candidates_verified, and the pruning
// ratio they give): each a telemetry.Windowed over a bucketless histogram.
//
// All instruments are resolved once at registration, so the per-query path
// is lock-free: counter increments and window observations.

// Operation labels: the query operations plus the write path (inserts and
// applied deletes), all series of rknn_queries_total and
// rknn_query_duration_seconds.
const (
	opRkNN      = "rknn"
	opRkNNPoint = "rknn_point"
	opBatch     = "batch"
	opKNN       = "knn"
	opInsert    = "insert"
	opDelete    = "delete"
)

var queryOps = []string{opRkNN, opRkNNPoint, opBatch, opKNN, opInsert, opDelete}

// opInstruments is the per-operation slice of the engine metrics. window
// wraps the cumulative latency histogram with the sliding-window ring, so
// one Observe feeds the lifetime exposition and the last-1m/5m views side
// by side.
type opInstruments struct {
	queries *telemetry.Counter
	window  *telemetry.Windowed
}

// engineTelemetry aggregates per-query work counters for one engine
// (labeled by back-end). An operation checks once that telemetry is on
// (telBegin) and then observes; only the window digests are read through a
// possibly nil receiver.
type engineTelemetry struct {
	reg          *telemetry.Registry // the registry the engine is bound to
	ops          map[string]opInstruments
	scanDepth    *telemetry.Counter
	generated    *telemetry.Counter
	excluded     *telemetry.Counter
	lazyAccepted *telemetry.Counter
	lazySettled  *telemetry.Counter
	verified     *telemetry.Counter
	distComps    *telemetry.Counter

	// Windowed sums shadowing the pruning counters, banked per query at its
	// completion time so /statsz can report the pruning ratio over the last
	// minute — the live form of the paper's pruning-effectiveness claim.
	scanWin *telemetry.Windowed
	genWin  *telemetry.Windowed
	verWin  *telemetry.Windowed

	// workload is the Space-Saving hot-region sketch behind
	// /v1/admin/analytics; grid quantizes query points into its signature
	// cells. Both are built by EnableTelemetry from the live dataset.
	workload *telemetry.Workload
	grid     *queryGrid
}

func newEngineTelemetry(reg *telemetry.Registry, backend string) *engineTelemetry {
	queries := reg.CounterVec("rknn_queries_total",
		"Operations answered successfully, by operation (queries and writes). Batch members count individually.",
		"backend", "op")
	latency := reg.HistogramVec("rknn_query_duration_seconds",
		"Engine-side operation latency, by operation. Batch calls observe once per batch.",
		telemetry.DefaultLatencyBuckets, "backend", "op")
	t := &engineTelemetry{
		reg:     reg,
		ops:     make(map[string]opInstruments, len(queryOps)),
		scanWin: sumWindow(),
		genWin:  sumWindow(),
		verWin:  sumWindow(),
	}
	for _, op := range queryOps {
		t.ops[op] = opInstruments{
			queries: queries.With(backend, op),
			window:  telemetry.NewDefaultWindowed(latency.With(backend, op)),
		}
	}
	t.scanDepth = reg.CounterVec("rknn_scan_depth_total",
		"Forward neighbors retrieved by Algorithm 1's expanding search (Stats.ScanDepth); a query answered by a filled k-distance table retrieves none and adds 0.",
		"backend").With(backend)
	t.generated = reg.CounterVec("rknn_candidates_generated_total",
		"Candidates that entered the witness machinery (Stats.FilterSize + Stats.Excluded).",
		"backend").With(backend)
	t.excluded = reg.CounterVec("rknn_candidates_excluded_total",
		"Candidates RDT+ refused to insert into the filter set (Stats.Excluded).",
		"backend").With(backend)
	t.lazyAccepted = reg.CounterVec("rknn_candidates_lazy_accepted_total",
		"Candidates accepted by Assertion 2 without verification (Stats.LazyAccepts).",
		"backend").With(backend)
	t.lazySettled = reg.CounterVec("rknn_candidates_lazy_settled_total",
		"Candidates settled without a verification kNN query (Stats.LazyAccepts + Stats.LazyRejects).",
		"backend").With(backend)
	t.verified = reg.CounterVec("rknn_candidates_verified_total",
		"Explicit refinement-phase verifications (Stats.Verified).",
		"backend").With(backend)
	t.distComps = reg.CounterVec("rknn_distance_comps_total",
		"Distances computed by the witness machinery (Stats.DistanceComps); at most the candidate pairs, since a pair whose counters are both settled is skipped.",
		"backend").With(backend)
	generated, verified := t.generated, t.verified
	reg.GaugeFunc("rknn_pruning_ratio",
		"Live fraction of candidates settled without verification: 1 - verified/generated.",
		func() float64 {
			g := float64(generated.Value())
			if g == 0 {
				return 0
			}
			return 1 - float64(verified.Value())/g
		},
		telemetry.Label{Name: "backend", Value: backend})
	return t
}

// observeOp records n answered queries and one latency observation for op,
// measured from begin. It returns the operation's completion time (begin
// plus the measured latency) so callers can feed observeStats and the
// workload sketch without a second clock read — the windowed instruments
// take the timestamp the latency measurement already paid for.
func (t *engineTelemetry) observeOp(op string, n int, begin time.Time) time.Time {
	t.countQueries(op, n)
	return t.observeLatency(op, begin)
}

// countQueries records n answered queries for op without a latency
// observation — the per-member half of batch accounting, whose latency is
// observed once per batch call so the histogram's semantics match the
// unsharded engine.
func (t *engineTelemetry) countQueries(op string, n int) {
	t.ops[op].queries.Add(int64(n))
}

// observeLatency records one latency observation for op, measured from
// begin, and returns the completion time (see observeOp).
func (t *engineTelemetry) observeLatency(op string, begin time.Time) time.Time {
	d := time.Since(begin)
	at := begin.Add(d)
	// Windowed.Observe feeds the cumulative histogram and the window slice
	// covering at in one call.
	t.ops[op].window.Observe(d.Seconds(), at)
	return at
}

// observeQuery records one answered reverse query, on every engine: its
// count and work counters and — unless it is a batch member, whose batch call
// observes the one latency and whose members would flood the sketch's top-K
// with their cells — its latency and workload signature, all stamped with
// the one completion time measured from begin.
func (t *engineTelemetry) observeQuery(op string, k int, q []float64, st Stats, begin time.Time) {
	t.countQueries(op, 1)
	d := time.Since(begin)
	at := begin.Add(d)
	if op != opBatch {
		t.ops[op].window.Observe(d.Seconds(), at)
	}
	t.observeStats(st, at)
	if op != opBatch {
		t.observeWorkload(op, k, q, st, d, at)
	}
}

// observeStats feeds one query's work counters into the aggregates, banking
// the windowed shadows at the query's completion time.
func (t *engineTelemetry) observeStats(st Stats, at time.Time) {
	t.scanDepth.Add(int64(st.ScanDepth))
	t.generated.Add(int64(st.FilterSize + st.Excluded))
	t.excluded.Add(int64(st.Excluded))
	t.lazyAccepted.Add(int64(st.LazyAccepts))
	t.lazySettled.Add(int64(st.LazyAccepts + st.LazyRejects))
	t.verified.Add(int64(st.Verified))
	t.distComps.Add(st.DistanceComps)
	t.scanWin.Observe(float64(st.ScanDepth), at)
	t.genWin.Observe(float64(st.FilterSize+st.Excluded), at)
	t.verWin.Observe(float64(st.Verified), at)
}

// observeWorkload records one query under its region signature in the
// analytics sketch. q may be nil (a member lookup that raced a delete, or a
// batch member — batches skip the sketch, see BatchReverseKNNContext); the
// query still counts under its op/k signature so hot traffic without a
// resolvable region remains visible.
func (t *engineTelemetry) observeWorkload(op string, k int, q []float64, st Stats, d time.Duration, at time.Time) {
	if t.workload == nil {
		return
	}
	sig := t.grid.signature(op, k, q)
	t.workload.Observe(sig, d.Seconds(), st.ScanDepth, st.FilterSize+st.Excluded, st.LazyAccepts+st.LazyRejects, at)
}

// shardTelemetry counts what sharded queries draw from one shard, so uneven
// shards show up as uneven series: a shard whose neighbors sit closer to the
// traffic has more rows pulled from its stream. The pruning counters
// themselves are engine-level only — a sharded query is one algorithm run
// over the merged streams, and no shard runs a filter set of its own.
type shardTelemetry struct {
	scatter *telemetry.Counter
	pulled  *telemetry.Counter
	probes  *telemetry.Counter
}

// newShardTelemetry registers the instruments of one shard; points reports
// the shard's live size at scrape time.
func newShardTelemetry(reg *telemetry.Registry, shard int, points func() int) *shardTelemetry {
	label := strconv.Itoa(shard)
	reg.GaugeFunc("rknn_shard_points",
		"Live points currently held by this shard.",
		func() float64 { return float64(points()) },
		telemetry.Label{Name: "shard", Value: label})
	return &shardTelemetry{
		scatter: reg.CounterVec("rknn_shard_scatter_queries_total",
			"Reverse queries that opened this shard's neighbor stream.", "shard").With(label),
		pulled: reg.CounterVec("rknn_shard_neighbors_pulled_total",
			"Rows drawn from this shard's forward neighbor stream by the merged expanding search.", "shard").With(label),
		probes: reg.CounterVec("rknn_shard_count_probes_total",
			"Refinement count probes this shard answered: every unsettled candidate of a query on a remote shard; on an in-process shard, where shards count in turn, those the shards before it left unsettled.", "shard").With(label),
	}
}

// Grid geometry for the workload signatures: cellsPerDim quantizes each
// sampled dimension into a handful of cells (the sketch wants regions, not
// points), gridSamplePoints bounds the dataset sample that calibrates the
// per-dimension ranges, and gridNamedDims is how many leading cell indices
// appear verbatim in the signature — the rest are folded into a short hash
// so high-dimensional signatures stay readable and bounded.
const (
	gridCellsPerDim  = 4
	gridSamplePoints = 256
	gridNamedDims    = 3
)

// queryGrid quantizes query points into coarse region cells, the spatial
// half of the workload signature. It is calibrated once from a dataset
// sample at EnableTelemetry time: per-dimension [min,max] split into
// gridCellsPerDim cells, with out-of-range queries clamped to the border
// cells. A nil grid degrades to op/k-only signatures.
type queryGrid struct {
	min   []float64
	width []float64 // 0 for a constant dimension: everything lands in cell 0
}

// newQueryGrid calibrates a grid from up to gridSamplePoints points of ix.
// IDs a delete has left dead are skipped (livePoint). Returns nil when no
// points could be sampled.
func newQueryGrid(ix *index.Overlay) *queryGrid {
	n, d := ix.Len(), ix.Dim()
	if n == 0 || d == 0 {
		return nil
	}
	g := &queryGrid{min: make([]float64, d), width: make([]float64, d)}
	max := make([]float64, d)
	sampled := 0
	step := n / gridSamplePoints
	if step < 1 {
		step = 1
	}
	for id := 0; id < n; id += step {
		p := livePoint(ix, id)
		if len(p) != d {
			continue
		}
		if sampled == 0 {
			copy(g.min, p)
			copy(max, p)
		} else {
			for j, v := range p {
				if v < g.min[j] {
					g.min[j] = v
				}
				if v > max[j] {
					max[j] = v
				}
			}
		}
		sampled++
	}
	if sampled == 0 {
		return nil
	}
	for j := range g.width {
		g.width[j] = (max[j] - g.min[j]) / gridCellsPerDim
	}
	return g
}

// cell renders q's grid cell: the first gridNamedDims indices verbatim,
// higher dimensions folded into a 4-hex-digit FNV hash.
func (g *queryGrid) cell(q []float64) string {
	if g == nil || len(q) != len(g.min) {
		return "?"
	}
	var b strings.Builder
	h := fnv.New32a()
	for j, v := range q {
		c := 0
		if g.width[j] > 0 {
			c = int((v - g.min[j]) / g.width[j])
			if c < 0 {
				c = 0
			}
			if c >= gridCellsPerDim {
				c = gridCellsPerDim - 1
			}
		}
		if j < gridNamedDims {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(c))
		} else {
			h.Write([]byte{byte(c)})
		}
	}
	if len(q) > gridNamedDims {
		fmt.Fprintf(&b, "+%04x", h.Sum32()&0xffff)
	}
	return b.String()
}

// signature builds the sketch key: operation, neighbor rank, region cell.
func (g *queryGrid) signature(op string, k int, q []float64) string {
	if q == nil {
		return op + " k=" + strconv.Itoa(k)
	}
	return op + " k=" + strconv.Itoa(k) + " @" + g.cell(q)
}

// sumWindow is a windowed sum (or mean): the default ring over a bucketless
// histogram, read through its window snapshot's Sum and Count.
func sumWindow() *telemetry.Windowed {
	return telemetry.NewDefaultWindowed(telemetry.NewHistogram(nil))
}

// EngineWindow is the pruning machinery's digest over one trailing window
// — the live form of the candidate aggregates /metrics exposes as
// lifetime totals.
type EngineWindow struct {
	// ScanDepth, Generated and Verified are window totals of the same
	// Stats fields the cumulative counters track.
	ScanDepth int64 `json:"scan_depth"`
	Generated int64 `json:"candidates_generated"`
	Verified  int64 `json:"candidates_verified"`
	// PruningRatio is 1 - Verified/Generated over the window (0 with no
	// candidates).
	PruningRatio float64 `json:"pruning_ratio"`
}

// queryWindowStats digests the per-operation latency windows: op ->
// window key -> stats. Operations silent over the longest window are
// omitted.
func (t *engineTelemetry) queryWindowStats(now time.Time) map[string]map[string]telemetry.WindowStats {
	if t == nil {
		return nil
	}
	out := make(map[string]map[string]telemetry.WindowStats)
	for op, ins := range t.ops {
		byWin := make(map[string]telemetry.WindowStats, len(telemetry.StatsWindows))
		seen := false
		for key, d := range telemetry.StatsWindows {
			st := ins.window.StatsAt(d, now)
			byWin[key] = st
			seen = seen || st.Count > 0
		}
		if seen {
			out[op] = byWin
		}
	}
	return out
}

// engineWindowStats digests the windowed pruning shadows per window key.
func (t *engineTelemetry) engineWindowStats(now time.Time) map[string]EngineWindow {
	if t == nil {
		return nil
	}
	out := make(map[string]EngineWindow, len(telemetry.StatsWindows))
	for key, d := range telemetry.StatsWindows {
		w := EngineWindow{
			ScanDepth: int64(t.scanWin.SnapshotWindowAt(d, now).Sum),
			Generated: int64(t.genWin.SnapshotWindowAt(d, now).Sum),
			Verified:  int64(t.verWin.SnapshotWindowAt(d, now).Sum),
		}
		if w.Generated > 0 {
			w.PruningRatio = 1 - float64(w.Verified)/float64(w.Generated)
		}
		out[key] = w
	}
	return out
}

// telemetryBinding is an engine's optional binding to its telemetry, which
// the surface every engine shares embeds (surface.go): nil until
// EnableTelemetry, then published atomically so it can be attached while
// queries are in flight.
type telemetryBinding struct {
	tel atomic.Pointer[engineTelemetry]
}

// telBegin starts one observed operation: the engine's telemetry and, only
// when it is on, a clock reading to measure the operation from.
func (b *telemetryBinding) telBegin() (*engineTelemetry, time.Time) {
	if t := b.tel.Load(); t != nil {
		return t, time.Now()
	}
	return nil, time.Time{}
}

// boundTo reports whether the engine already reports to reg: binding it
// there again is a no-op, so its windows and sketch keep their data.
func (b *telemetryBinding) boundTo(reg *telemetry.Registry) bool {
	t := b.tel.Load()
	return t != nil && t.reg == reg
}

// QueryWindowStats reports the per-operation windowed latency digests
// (op -> "1m"/"5m" -> stats) when telemetry is enabled; nil otherwise.
// The server surfaces these in /statsz next to the lifetime quantiles.
func (b *telemetryBinding) QueryWindowStats() map[string]map[string]telemetry.WindowStats {
	return b.tel.Load().queryWindowStats(time.Now())
}

// EngineWindowStats reports the windowed pruning digests
// ("1m"/"5m" -> window) when telemetry is enabled; nil otherwise.
func (b *telemetryBinding) EngineWindowStats() map[string]EngineWindow {
	return b.tel.Load().engineWindowStats(time.Now())
}

// WorkloadTopK reports the hottest query-region signatures tracked by the
// analytics sketch, each with its latency digest over the given window.
// Nil without telemetry.
func (b *telemetryBinding) WorkloadTopK(k int, window time.Duration) []telemetry.WorkloadStat {
	if t := b.tel.Load(); t != nil {
		return t.workload.TopK(k, window)
	}
	return nil
}

// EnableTelemetry registers the Searcher's metrics in reg and streams every
// answered query's work counters into it — the per-query Stats the engine
// already computes, aggregated as live Prometheus series. One Registry can
// back several engines, whose series are labeled by back-end, and the HTTP
// server (pass it to server.WithRegistry). Safe to call while queries are
// in flight; queries started before the call are not recorded. Binding to
// the registry the engine already reports to is a no-op; binding to another
// one moves the engine there with fresh windows and sketch.
func (s *Searcher) EnableTelemetry(reg *telemetry.Registry) {
	if s.boundTo(reg) {
		return
	}
	t := newEngineTelemetry(reg, string(s.backend))
	t.grid = newQueryGrid(s.snap.Load().ix)
	t.workload = telemetry.NewWorkload(0)
	s.tel.Store(t)
	registerWriteGauges(reg, string(s.backend), s.MemtableLen, s.Compactions)
	s.bg.compactHist.Store(compactionHistogram(reg, string(s.backend)))
}

// EnableTelemetry binds the ShardedSearcher to reg: engine-level metrics
// plus per-shard stream and probe counters and live shard size gauges (the
// sharded engine's own half, shardedCore.enableTelemetry), and the write-path
// surfaces of its in-process shard engines. Like the
// Searcher form, it is safe to call while queries are in flight.
func (ss *ShardedSearcher) EnableTelemetry(reg *telemetry.Registry) {
	if ss.boundTo(reg) {
		return
	}
	// Calibrate the workload grid from the first populated shard: shards
	// partition by hash, so any one shard's sample spans the dataset.
	var grid *queryGrid
	for _, eng := range ss.engines() {
		if grid = newQueryGrid(eng.snap.Load().ix); grid != nil {
			break
		}
	}
	ss.enableTelemetry(reg, grid)
	registerWriteGauges(reg, string(ss.backend), ss.MemtableLen, ss.Compactions)
	// Every shard engine, current and future, reports its folds through the
	// sharded engine's background binding, so the compaction-duration series
	// sums across shards.
	ss.bg.compactHist.Store(compactionHistogram(reg, string(ss.backend)))
}

// compactionHistogram resolves the per-backend compaction-duration
// histogram — the cost of each delta fold, previously only counted.
func compactionHistogram(reg *telemetry.Registry, backend string) *telemetry.Histogram {
	return reg.HistogramVec("rknn_compaction_duration_seconds",
		"Duration of delta-overlay compaction folds (the step of the write path that threads the delta into the base), per backend, summed across shards.",
		telemetry.DefaultLatencyBuckets, "backend").With(backend)
}

// registerWriteGauges registers the incremental-write-path surfaces: the
// live delta-overlay size and the monotone compaction count, both computed
// at scrape time from state the engine already tracks.
func registerWriteGauges(reg *telemetry.Registry, backend string, memtable func() int, compactions func() int64) {
	reg.GaugeFunc("rknn_memtable_points",
		"Delta-overlay memtable rows awaiting compaction (summed across shards for a sharded engine).",
		func() float64 { return float64(memtable()) },
		telemetry.Label{Name: "backend", Value: backend})
	reg.CounterFunc("rknn_compactions_total",
		"Delta-overlay compactions folded into a fresh base index (summed across shards for a sharded engine).",
		func() float64 { return float64(compactions()) },
		telemetry.Label{Name: "backend", Value: backend})
}

// fromCore converts the internal per-query counters to the public Stats.
func fromCore(st core.Stats) Stats { return Stats(st) }
