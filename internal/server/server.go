// Package server exposes a Searcher over HTTP/JSON — the serving layer of
// the `rknn serve` daemon. It is a thin, dependency-free stateless shell:
// all concurrency control lives in the snapshot machinery of the facade
// (see DESIGN.md), so handlers simply call into the engine and any number
// of requests may run in parallel, including point updates racing queries.
//
// Endpoints:
//
//	POST   /v1/rknn            {"id":3,"k":10} or {"point":[...],"k":10}
//	POST   /v1/rknn/batch      {"ids":[1,2,3],"k":10,"workers":0}
//	POST   /v1/knn             {"point":[...],"k":5}
//	POST   /v1/points          {"point":[...]}            (insert)
//	POST   /v1/points/batch    {"points":[[...],[...]]}   (bulk insert)
//	DELETE /v1/points/{id}                                (delete)
//	POST   /v1/admin/snapshot                             (cut a durable snapshot)
//	GET    /v1/admin/slowlog                              (recent slow requests)
//	PUT    /v1/admin/slowlog                              (retune the slow threshold live)
//	GET    /v1/admin/traces                               (recent trace summaries)
//	GET    /v1/admin/traces/{id}                          (one full span tree)
//	GET    /v1/admin/slo                                  (error budgets and burn rates)
//	GET    /v1/admin/analytics                            (hot query regions)
//	GET    /healthz                                       (?slo=1 degrades on fast burn)
//	GET    /statsz                                        (lifetime and windowed stats)
//	GET    /metrics                                       (Prometheus / OpenMetrics exposition)
//
// Every response is JSON except /metrics (Prometheus text format); errors
// are {"error":"..."} with a 4xx/5xx status. Request bodies are bounded
// (oversized bodies get a 413). Batch queries honor request cancellation:
// a client disconnect aborts the remaining queries of its batch. The admin
// snapshot endpoint requires an engine with a durable store attached
// (repro.NewDurable, repro.Open and their sharded forms); on a purely
// in-memory engine it answers 501.
//
// Tracing: with WithTracing, every data-plane request (the /v1 query and
// write routes; observability routes are exempt) runs under a per-request
// span tree that the engine layers extend — scatter, per-shard scan/filter/
// verify, overlay reads, WAL appends. Completed traces enter a bounded
// lock-free ring when head sampling selects them, when the request crossed
// the slow-log threshold (tail capture), when the client sent a sampled W3C
// traceparent, or when it asked for ?debug=1 — which also returns the span
// tree inline with the normal /v1/rknn response. Responses echo or assign
// X-Request-ID and carry a traceparent header naming the trace.
//
// Observability: every route records request/error counters and a
// log-bucket latency histogram in an internal/telemetry Registry — its own
// by default, or the one WithRegistry names; when the engine is bound to
// that registry too (EnableTelemetry), /metrics also exposes its pruning
// counters (rknn_candidates_*_total; see the repro facade). /statsz derives its
// latency quantiles from the same histograms that /metrics exposes, and a
// bounded ring buffer retains the slowest recent requests for
// /v1/admin/slowlog.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	repro "repro"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Engine is what the server serves and reads from every engine of package
// repro — *repro.Searcher, *repro.ShardedSearcher and the networked
// *repro.Coordinator all implement it: the engine's shape, its query and
// write surface, and its telemetry and tracing binding with the live views
// that binding feeds. What only some engines have, New resolves once; no
// handler probes the engine.
type Engine interface {
	Len() int
	Dim() int
	Scale() float64
	// Backend names the forward index the engine runs on — on a recovery
	// path it comes from the store, not from a flag.
	Backend() repro.Backend
	// The handlers call the Stats forms only — every engine computes the
	// counters either way. The plain forms stay for code that holds an
	// Engine and wants just the IDs.
	ReverseKNNContext(ctx context.Context, qid, k int) ([]int, error)
	ReverseKNNStatsContext(ctx context.Context, qid, k int) ([]int, repro.Stats, error)
	ReverseKNNPointContext(ctx context.Context, q []float64, k int) ([]int, error)
	ReverseKNNPointStatsContext(ctx context.Context, q []float64, k int) ([]int, repro.Stats, error)
	BatchReverseKNNContext(ctx context.Context, qids []int, k, workers int) ([][]int, error)
	KNNContext(ctx context.Context, q []float64, k int) ([]repro.Neighbor, error)
	InsertContext(ctx context.Context, p []float64) (int, error)
	// InsertBatchContext ingests many points under one lock acquisition and
	// — on an engine with a store — one WAL write and at most one sync.
	InsertBatchContext(ctx context.Context, pts [][]float64) ([]int, error)
	DeleteContext(ctx context.Context, id int) (bool, error)
	// EnableTelemetry and EnableTracing bind the engine to a registry and a
	// trace ring; binding is the caller's decision, and New makes none. What
	// the telemetry binding feeds comes back as the per-operation latency
	// windows and windowed pruning digests of /statsz and the hot-region
	// sketch of /v1/admin/analytics — nil on an unbound engine, which
	// answers analytics 501.
	EnableTelemetry(reg *telemetry.Registry)
	EnableTracing(ring *trace.Ring)
	QueryWindowStats() map[string]map[string]telemetry.WindowStats
	EngineWindowStats() map[string]repro.EngineWindow
	WorkloadTopK(k int, window time.Duration) []telemetry.WorkloadStat
}

// Local is the surface of an engine that holds its rows in this process
// (*repro.Searcher and *repro.ShardedSearcher, with or without a store):
// cutting a durable snapshot and the store generation — 0 until a store is
// attached, since a store's generations start at 1 — the delta-overlay
// memtable size and compaction count /statsz reports, and member point
// reads.
type Local interface {
	Snapshot() error
	Generation() uint64
	MemtableLen() int
	Compactions() int64
	MemberPoints(ids ...int) [][]float64
}

// Sharded is the surface of a sharded engine (*repro.ShardedSearcher and
// *repro.Coordinator): /statsz reports the shard count and the per-shard
// point and traffic counters.
type Sharded interface {
	Shards() int
	ShardStats() []repro.ShardInfo
}

// Server wraps an Engine with HTTP handlers and request-level telemetry.
// All methods are safe for concurrent use.
type Server struct {
	s     Engine
	start time.Time
	reg   *telemetry.Registry
	slow  *telemetry.SlowLog
	stats map[string]*endpointStats // fixed key set, populated at New
	// ring/sample: per-request tracing (WithTracing). ring retains completed
	// traces; sample is the head-sampling probability for ring admission.
	// A nil ring disables tracing entirely.
	ring   *trace.Ring
	sample float64
	// slo tracks the configured service-level objectives against the
	// data-plane request stream (WithSLO); nil disables the SLO surfaces.
	slo *telemetry.SLO
	// shard/shards is the daemon's cluster role (WithShardRole), reported
	// by GET /v1/shard/info. Default 0-of-1: a standalone server.
	shard, shards int
	// The surfaces only some engines have, resolved once at New: nil where
	// the engine has none.
	local   Local
	sharded Sharded
	shardSv ShardServing
	// streams is every upgraded /v1/binary connection still open (see
	// binary.go), which Close ends; once closed, no stream starts.
	streamMu sync.Mutex
	streams  map[net.Conn]struct{}
	closed   bool
}

// endpointStats holds one route's telemetry instruments, resolved once at
// New so the per-request path is lock-free. win wraps the same latency
// histogram with the sliding-window ring, so one Observe feeds both the
// lifetime exposition and the last-1m/5m views in /statsz.
type endpointStats struct {
	traced   bool // a tracedRoutes member: the data plane
	requests *telemetry.Counter
	errors   *telemetry.Counter
	latency  *telemetry.Histogram
	win      *telemetry.Windowed
}

// routes is the fixed set of stats keys, one per endpoint.
var routes = []string{
	"/v1/rknn", "/v1/rknn/batch", "/v1/knn", "/v1/points", "/v1/points/batch", "/v1/binary",
	"/v1/shard/info", "/v1/admin/snapshot",
	"/v1/admin/slowlog", "/v1/admin/traces", "/v1/admin/slo", "/v1/admin/analytics",
	"/healthz", "/statsz", "/metrics",
}

// tracedRoutes is the data plane: requests here run under a span tree when
// tracing is enabled. Observability routes are exempt — tracing a /metrics
// scrape would fill the ring with scrapes and bury the queries it exists
// to explain.
var tracedRoutes = map[string]bool{
	"/v1/rknn": true, "/v1/rknn/batch": true, "/v1/knn": true,
	"/v1/points": true, "/v1/points/batch": true, "/v1/binary": true,
}

// Slow-log defaults: requests at or above the threshold enter the ring.
const (
	DefaultSlowLogThreshold = 250 * time.Millisecond
	DefaultSlowLogSize      = 128
)

// Option configures New.
type Option func(*options)

type options struct {
	reg           *telemetry.Registry
	slowThreshold time.Duration
	slowSize      int
	ring          *trace.Ring
	sample        float64
	slo           *telemetry.SLO
	shard, shards int
}

// WithRegistry has the server record into reg instead of a private
// registry of its own. Pass the registry the engine is bound to
// (EnableTelemetry) so /metrics exposes engine and HTTP series together.
func WithRegistry(reg *telemetry.Registry) Option {
	return func(o *options) { o.reg = reg }
}

// WithSlowLog sets the slow-query log's recording threshold and capacity
// (entries); capacity < 1 keeps a single entry. A zero threshold records
// every request.
func WithSlowLog(threshold time.Duration, capacity int) Option {
	return func(o *options) { o.slowThreshold = threshold; o.slowSize = capacity }
}

// WithTracing enables per-request tracing: completed traces land in ring
// when head sampling (probability sample, clamped to [0,1]) selects them —
// slow requests, ?debug=1 requests, and requests carrying a sampled
// upstream traceparent are retained regardless. Pass the same ring to the
// engine's EnableTracing so background compaction traces land beside the
// request traces.
func WithTracing(ring *trace.Ring, sample float64) Option {
	return func(o *options) { o.ring = ring; o.sample = sample }
}

// WithSLO attaches a service-level-objective engine: every data-plane
// request is classified against its objectives, the burn-rate and
// error-budget gauges are registered on the server's registry, GET
// /v1/admin/slo reports the live status, and /healthz?slo=1 degrades when
// the multi-window fast-burn rule trips.
func WithSLO(slo *telemetry.SLO) Option {
	return func(o *options) { o.slo = slo }
}

// WithShardRole declares the daemon's place in a shard cluster: it
// serves shard `shard` of `shards` (reported by GET /v1/shard/info, and
// cross-checked by the coordinator against its own configuration). The
// default role is 0 of 1 — a standalone server.
func WithShardRole(shard, shards int) Option {
	return func(o *options) { o.shard = shard; o.shards = shards }
}

// New returns a Server over s. It leaves the engine's telemetry and tracing
// binding to the caller.
func New(s Engine, opts ...Option) *Server {
	o := options{slowThreshold: DefaultSlowLogThreshold, slowSize: DefaultSlowLogSize, shards: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if o.reg == nil {
		o.reg = telemetry.NewRegistry()
	}
	if o.sample < 0 {
		o.sample = 0
	} else if o.sample > 1 {
		o.sample = 1
	}
	srv := &Server{
		s:       s,
		start:   time.Now(),
		reg:     o.reg,
		slow:    telemetry.NewSlowLog(o.slowThreshold, o.slowSize),
		stats:   make(map[string]*endpointStats, len(routes)),
		ring:    o.ring,
		sample:  o.sample,
		slo:     o.slo,
		shard:   o.shard,
		shards:  o.shards,
		streams: map[net.Conn]struct{}{},
	}
	srv.local, _ = s.(Local)
	srv.sharded, _ = s.(Sharded)
	srv.shardSv, _ = s.(ShardServing)
	requests := o.reg.CounterVec("rknn_http_requests_total", "HTTP requests served, by route.", "route")
	errs := o.reg.CounterVec("rknn_http_request_errors_total", "HTTP requests that failed, by route.", "route")
	latency := o.reg.HistogramVec("rknn_http_request_duration_seconds",
		"Handler latency, by route.", telemetry.DefaultLatencyBuckets, "route")
	for _, r := range routes {
		lh := latency.With(r)
		srv.stats[r] = &endpointStats{
			traced:   tracedRoutes[r],
			requests: requests.With(r),
			errors:   errs.With(r),
			latency:  lh,
			win:      telemetry.NewDefaultWindowed(lh),
		}
	}
	srv.slo.Register(o.reg)
	srv.registerEngineGauges()
	telemetry.RegisterRuntimeMetrics(o.reg)
	return srv
}

// store returns the engine's durability surface when a store is attached.
func (srv *Server) store() Local {
	if srv.local != nil && srv.local.Generation() > 0 {
		return srv.local
	}
	return nil
}

// registerEngineGauges exposes the engine's live shape as scrape-time
// gauges, including the optional durability and sharding surfaces.
func (srv *Server) registerEngineGauges() {
	s := srv.s
	srv.reg.GaugeFunc("rknn_points", "Live points in the engine.", func() float64 { return float64(s.Len()) })
	srv.reg.GaugeFunc("rknn_scale", "Scale parameter t in effect (0 when adaptive).", s.Scale)
	if d := srv.store(); d != nil {
		srv.reg.GaugeFunc("rknn_store_generation", "Current durable snapshot generation.",
			func() float64 { return float64(d.Generation()) })
	}
	if sh := srv.sharded; sh != nil {
		srv.reg.GaugeFunc("rknn_shards", "Shard count of the scatter-gather engine.",
			func() float64 { return float64(sh.Shards()) })
	}
}

// Registry returns the telemetry registry backing /metrics.
func (srv *Server) Registry() *telemetry.Registry { return srv.reg }

// Handler returns the route table. The returned handler is safe for
// concurrent use and may be wrapped with middleware by the caller.
func (srv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/rknn", srv.instrument("/v1/rknn", srv.handleRkNN))
	mux.HandleFunc("POST /v1/rknn/batch", srv.instrument("/v1/rknn/batch", srv.handleRkNNBatch))
	mux.HandleFunc("POST /v1/knn", srv.instrument("/v1/knn", srv.handleKNN))
	mux.HandleFunc("POST /v1/points", srv.instrument("/v1/points", srv.handleInsert))
	mux.HandleFunc("POST /v1/points/batch", srv.instrument("/v1/points/batch", srv.handleInsertBatch))
	mux.HandleFunc("GET /v1/points/{id}", srv.instrument("/v1/points", srv.handlePointGet))
	mux.HandleFunc("DELETE /v1/points/{id}", srv.instrument("/v1/points", srv.handleDelete))
	mux.HandleFunc("POST /v1/binary", srv.instrument("/v1/binary", srv.handleBinary))
	mux.HandleFunc("GET /v1/binary", srv.handleStream)
	mux.HandleFunc("GET /v1/shard/info", srv.instrument("/v1/shard/info", srv.handleShardInfo))
	mux.HandleFunc("POST /v1/admin/snapshot", srv.instrument("/v1/admin/snapshot", srv.handleSnapshot))
	mux.HandleFunc("GET /v1/admin/slowlog", srv.instrument("/v1/admin/slowlog", srv.handleSlowlog))
	mux.HandleFunc("PUT /v1/admin/slowlog", srv.instrument("/v1/admin/slowlog", srv.handleSlowlogPut))
	mux.HandleFunc("GET /v1/admin/traces", srv.instrument("/v1/admin/traces", srv.handleTraces))
	mux.HandleFunc("GET /v1/admin/traces/{id}", srv.instrument("/v1/admin/traces", srv.handleTraceGet))
	mux.HandleFunc("GET /v1/admin/slo", srv.instrument("/v1/admin/slo", srv.handleSLO))
	mux.HandleFunc("GET /v1/admin/analytics", srv.instrument("/v1/admin/analytics", srv.handleAnalytics))
	mux.HandleFunc("GET /healthz", srv.instrument("/healthz", srv.handleHealth))
	mux.HandleFunc("GET /statsz", srv.instrument("/statsz", srv.handleStats))
	mux.HandleFunc("GET /metrics", srv.instrument("/metrics", srv.handleMetrics))
	return mux
}

// apiError carries the HTTP status a handler failure maps to.
type apiError struct {
	status int
	err    error
}

func (e *apiError) Error() string { return e.err.Error() }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// instrument adapts an error-returning handler: the request is one exchange
// on route (see open and close), whose trace — when there is one — joins the
// caller's traceparent header and its X-Request-ID, which the response
// echoes; failures are rendered as JSON.
func (srv *Server) instrument(route string, h func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	traced := srv.stats[route].traced && srv.ring != nil
	return func(w http.ResponseWriter, r *http.Request) {
		var x exchange
		if traced {
			var ctx context.Context
			ctx, x = srv.open(r.Context(), route, r.Header.Get("traceparent"), r.Header.Get("X-Request-ID"), r.Method, r.URL.Path)
			x.keep = x.keep || r.URL.Query().Get("debug") == "1"
			w.Header().Set("X-Request-ID", x.rid)
			w.Header().Set("Traceparent", x.tr.Traceparent())
			r = r.WithContext(ctx)
		} else {
			x = srv.begin(route)
		}
		err := h(w, r)
		srv.close(&x, r.Method+" "+r.URL.Path, err)
		if err != nil {
			writeError(w, err)
		}
	}
}

// exchange is the record of one request in progress, on either framing of
// the binary protocol or any JSON route: opened before the work, closed
// with its outcome.
type exchange struct {
	route string
	st    *endpointStats
	begin time.Time
	// tr is the exchange's trace (nil when the route is untraced or tracing
	// is off); keep retains it whatever head sampling says — the caller's
	// traceparent was sampled, or it asked for ?debug=1.
	tr   *trace.Trace
	keep bool
	rid  string
}

// begin starts the record of an untraced exchange on route.
func (srv *Server) begin(route string) exchange {
	return exchange{route: route, st: srv.stats[route], begin: time.Now()}
}

// open starts the record of a traced exchange on route (a tracedRoutes
// member, tracing on): every data-plane exchange runs under a trace, joined
// to traceparent when it parses; whether the ring retains it is decided at
// close, when the latency is known (tail capture needs the spans of
// requests it could not predict would be slow). The root span carries
// method, path and the request ID — requestID, or the trace's own ID when
// empty — and both ride the returned context, so engines that fan out over
// the network (the coordinator) propagate them to the next hop.
func (srv *Server) open(ctx context.Context, route, traceparent, requestID, method, path string) (context.Context, exchange) {
	x := srv.begin(route)
	name := "http." + route
	if id, sampled, ok := trace.ParseTraceparent(traceparent); ok {
		x.tr, x.keep = trace.NewWithID(id, name, sampled), sampled
	} else {
		x.tr = trace.New(name, true)
	}
	x.rid = requestID
	if x.rid == "" {
		x.rid = x.tr.ID()
	}
	root := x.tr.Root()
	root.SetStr("method", method)
	root.SetStr("path", path)
	root.SetStr("request_id", x.rid)
	return trace.WithRequestID(trace.With(ctx, root), x.rid), x
}

// close records the exchange's outcome: the route's request counter, its
// latency histogram and window, the SLO (data plane only), the slow log
// (detail names the request), and the trace's retention; a failure also
// counts as the route's error.
func (srv *Server) close(x *exchange, detail string, err error) {
	elapsed := time.Since(x.begin)
	// end is the completion timestamp every windowed instrument banks
	// against — derived from the latency measurement, not a second clock
	// read.
	end := x.begin.Add(elapsed)
	st := x.st
	st.requests.Inc()
	// One observation feeds the cumulative histogram /metrics exposes and
	// the slice ring behind the /statsz windows.
	st.win.Observe(elapsed.Seconds(), end)
	if st.traced {
		// SLO accounting covers the data plane only: a slow /metrics scrape
		// is not a user-visible latency violation.
		srv.slo.Observe(elapsed.Seconds(), err != nil, end)
	}
	entry := telemetry.SlowEntry{
		Time:     x.begin,
		Route:    x.route,
		Detail:   detail,
		Duration: elapsed,
	}
	if err != nil {
		entry.Err = err.Error()
	}
	if tr := x.tr; tr != nil {
		root := tr.Root()
		if err != nil {
			root.SetStr("error", err.Error())
		}
		root.EndWithDuration(elapsed)
		entry.TraceID = tr.ID()
		entry.RequestID = x.rid
		slow := elapsed >= srv.slow.Threshold()
		if slow || x.keep || rand.Float64() < srv.sample {
			srv.ring.Put(tr)
			// Retain the trace as this latency bucket's exemplar only
			// after it enters the ring, so the OpenMetrics trace_id
			// always resolves via /v1/admin/traces/{id}.
			st.latency.SetExemplar(elapsed.Seconds(), tr.ID(), end)
		}
	}
	srv.slow.Observe(entry)
	if err != nil {
		st.errors.Inc()
	}
}

// writeError renders a handler failure as {"error":...} under the status
// its apiError names (500 otherwise).
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var ae *apiError
	if errors.As(err, &ae) {
		status = ae.status
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeJSON commits the response. Encode failures after the header is sent
// mean the client went away mid-body; there is no useful recovery and
// returning them would make instrument write a second header and count a
// served query as an endpoint error, so they are dropped here.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
	return nil
}

// maxRequestBody bounds every JSON request body. 1 MiB fits batches of
// ~10^5 query IDs and points of ~10^5 dimensions — far past any legitimate
// request — while keeping a hostile stream from buffering unbounded input.
const maxRequestBody = 1 << 20

func decode(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &apiError{
				status: http.StatusRequestEntityTooLarge,
				err:    fmt.Errorf("request body exceeds %d bytes", mbe.Limit),
			}
		}
		return badRequest("invalid request body: %v", err)
	}
	return nil
}

// rknnRequest selects a query by member ID or by arbitrary point (exactly
// one of the two), at reverse-neighbor rank K.
type rknnRequest struct {
	ID        *int      `json:"id,omitempty"`
	Point     []float64 `json:"point,omitempty"`
	K         int       `json:"k"`
	WithStats bool      `json:"stats,omitempty"`
}

type rknnResponse struct {
	IDs   []int        `json:"ids"`
	Stats *repro.Stats `json:"stats,omitempty"`
	// Trace is the EXPLAIN-style span tree of this very request, present
	// only under ?debug=1 on a tracing-enabled server.
	Trace *trace.TraceJSON `json:"trace,omitempty"`
}

func (srv *Server) handleRkNN(w http.ResponseWriter, r *http.Request) error {
	var req rknnRequest
	if err := decode(w, r, &req); err != nil {
		return err
	}
	if (req.ID == nil) == (req.Point == nil) {
		return badRequest("exactly one of id and point must be given")
	}
	// Every engine computes the work counters anyway; stats are emitted only
	// when they were asked for.
	var (
		ids []int
		st  repro.Stats
		err error
	)
	ctx := r.Context()
	if req.ID != nil {
		ids, st, err = srv.s.ReverseKNNStatsContext(ctx, *req.ID, req.K)
	} else {
		ids, st, err = srv.s.ReverseKNNPointStatsContext(ctx, req.Point, req.K)
	}
	if err != nil {
		return badRequest("%v", err)
	}
	resp := rknnResponse{IDs: emptyNotNull(ids)}
	if req.WithStats {
		resp.Stats = &st
	}
	if r.URL.Query().Get("debug") == "1" {
		if tr := trace.FromContext(ctx).Trace(); tr != nil {
			// Exported before the root span ends; the export clamps open
			// spans to now, so the tree reads as "time spent so far".
			tj := tr.Export()
			resp.Trace = &tj
		}
	}
	return writeJSON(w, http.StatusOK, resp)
}

type batchRequest struct {
	IDs     []int `json:"ids"`
	K       int   `json:"k"`
	Workers int   `json:"workers,omitempty"`
}

type batchResponse struct {
	Results [][]int `json:"results"`
}

func (srv *Server) handleRkNNBatch(w http.ResponseWriter, r *http.Request) error {
	var req batchRequest
	if err := decode(w, r, &req); err != nil {
		return err
	}
	results, err := srv.s.BatchReverseKNNContext(r.Context(), req.IDs, req.K, req.Workers)
	if err != nil {
		// A cancelled request context is the client disconnecting or
		// timing out, not a bad request: there is nobody to answer and
		// counting it as an endpoint error would bury real 400s.
		if r.Context().Err() != nil {
			return nil
		}
		return badRequest("%v", err)
	}
	for i := range results {
		results[i] = emptyNotNull(results[i])
	}
	return writeJSON(w, http.StatusOK, batchResponse{Results: results})
}

type knnRequest struct {
	Point []float64 `json:"point"`
	K     int       `json:"k"`
}

type knnResponse struct {
	Neighbors []neighbor `json:"neighbors"`
}

type neighbor struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

func (srv *Server) handleKNN(w http.ResponseWriter, r *http.Request) error {
	var req knnRequest
	if err := decode(w, r, &req); err != nil {
		return err
	}
	nn, err := srv.s.KNNContext(r.Context(), req.Point, req.K)
	if err != nil {
		return badRequest("%v", err)
	}
	out := make([]neighbor, len(nn))
	for i, nb := range nn {
		out[i] = neighbor{ID: nb.ID, Dist: nb.Dist}
	}
	return writeJSON(w, http.StatusOK, knnResponse{Neighbors: out})
}

type insertRequest struct {
	Point []float64 `json:"point"`
}

func (srv *Server) handleInsert(w http.ResponseWriter, r *http.Request) error {
	var req insertRequest
	if err := decode(w, r, &req); err != nil {
		return err
	}
	id, err := srv.s.InsertContext(r.Context(), req.Point)
	if err != nil {
		return badRequest("%v", err)
	}
	return writeJSON(w, http.StatusCreated, map[string]int{"id": id})
}

type insertBatchRequest struct {
	Points [][]float64 `json:"points"`
}

// handleInsertBatch ingests many points through the engine's batch write
// path. The batch is atomic on a single engine (all points land or none);
// IDs come back in request order.
func (srv *Server) handleInsertBatch(w http.ResponseWriter, r *http.Request) error {
	var req insertBatchRequest
	if err := decode(w, r, &req); err != nil {
		return err
	}
	if len(req.Points) == 0 {
		return badRequest("points must be non-empty")
	}
	ids, err := srv.s.InsertBatchContext(r.Context(), req.Points)
	if err != nil {
		return badRequest("%v", err)
	}
	return writeJSON(w, http.StatusCreated, map[string][]int{"ids": emptyNotNull(ids)})
}

func (srv *Server) handleDelete(w http.ResponseWriter, r *http.Request) error {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return badRequest("invalid point id %q", r.PathValue("id"))
	}
	ok, err := srv.s.DeleteContext(r.Context(), id)
	if err != nil {
		return badRequest("%v", err)
	}
	if !ok {
		return &apiError{status: http.StatusNotFound, err: fmt.Errorf("point %d not found", id)}
	}
	return writeJSON(w, http.StatusOK, map[string]bool{"deleted": true})
}

// handleSnapshot cuts a durable snapshot generation on engines that have a
// store attached (see repro.Searcher.Snapshot).
func (srv *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) error {
	d := srv.store()
	if d == nil {
		return &apiError{
			status: http.StatusNotImplemented,
			err:    errors.New("no durable store attached (start the server with -data-dir)"),
		}
	}
	if err := d.Snapshot(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"generation": d.Generation(),
		"points":     srv.s.Len(),
	})
}

// handleHealth reports liveness; with ?slo=1 on an SLO-configured server
// it additionally turns 503 while the multi-window fast-burn rule trips,
// so a load balancer can shed traffic from an instance actively burning
// its error budget.
func (srv *Server) handleHealth(w http.ResponseWriter, r *http.Request) error {
	body := map[string]any{
		"status":         "ok",
		"points":         srv.s.Len(),
		"dim":            srv.s.Dim(),
		"uptime_seconds": time.Since(srv.start).Seconds(),
	}
	status := http.StatusOK
	if r.URL.Query().Get("slo") == "1" && srv.slo.Degraded() {
		body["status"] = "degraded"
		status = http.StatusServiceUnavailable
	}
	return writeJSON(w, status, body)
}

// statsz reports per-endpoint request counters and latency quantiles plus
// the engine parameters, the observability surface behind capacity
// planning for the daemon. The quantiles are estimated from the same
// log-bucket histograms /metrics exposes, so the two surfaces can never
// disagree.
func (srv *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	now := time.Now()
	endpoints := make(map[string]map[string]any, len(srv.stats))
	for route, st := range srv.stats {
		ep := map[string]any{
			"requests": st.requests.Value(),
			"errors":   st.errors.Value(),
		}
		// One snapshot per route, so the reported quantiles all describe
		// the same moment even while requests keep landing.
		if snap := st.latency.Snapshot(); snap.Count > 0 {
			ep["p50_us"] = snap.Quantile(0.50) * 1e6
			ep["p95_us"] = snap.Quantile(0.95) * 1e6
			ep["p99_us"] = snap.Quantile(0.99) * 1e6
			ep["mean_us"] = snap.Sum / float64(snap.Count) * 1e6
			// The windowed views next to the lifetime quantiles: what the
			// route looked like over the last minute and five.
			wins := make(map[string]any, len(telemetry.StatsWindows))
			active := false
			for key, d := range telemetry.StatsWindows {
				ws := st.win.StatsAt(d, now)
				wins[key] = windowJSON(ws)
				active = active || ws.Count > 0
			}
			if active {
				ep["windows"] = wins
			}
		}
		endpoints[route] = ep
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rt := map[string]any{
		"goroutines":       runtime.NumGoroutine(),
		"heap_alloc_bytes": ms.HeapAlloc,
		"gc_cycles":        ms.NumGC,
	}
	engine := map[string]any{
		"points": srv.s.Len(),
		"dim":    srv.s.Dim(),
		"scale":  srv.s.Scale(),
	}
	if d := srv.store(); d != nil {
		engine["generation"] = d.Generation()
	}
	if l := srv.local; l != nil {
		engine["memtable_points"] = l.MemtableLen()
		engine["compactions"] = l.Compactions()
	}
	if sh := srv.sharded; sh != nil {
		engine["shard_count"] = sh.Shards()
		engine["shards"] = sh.ShardStats()
	}
	if ops := srv.s.QueryWindowStats(); len(ops) > 0 {
		byOp := make(map[string]any, len(ops))
		for op, wins := range ops {
			byWin := make(map[string]any, len(wins))
			for key, ws := range wins {
				byWin[key] = windowJSON(ws)
			}
			byOp[op] = byWin
		}
		engine["ops"] = byOp
	}
	if wins := srv.s.EngineWindowStats(); len(wins) > 0 {
		engine["windows"] = wins
	}
	return writeJSON(w, http.StatusOK, map[string]any{
		"endpoints": endpoints,
		"engine":    engine,
		"runtime":   rt,
	})
}

// windowJSON renders one window digest in /statsz's unit conventions
// (microsecond quantiles, q/s rate).
func windowJSON(ws telemetry.WindowStats) map[string]any {
	return map[string]any{
		"count":   ws.Count,
		"qps":     ws.QPS,
		"mean_us": ws.Mean * 1e6,
		"p50_us":  ws.P50 * 1e6,
		"p95_us":  ws.P95 * 1e6,
		"p99_us":  ws.P99 * 1e6,
	}
}

// handleMetrics serves the Prometheus text exposition of the server's
// registry — including the engine's pruning counters when the engine was
// built over the same registry. A scraper negotiating OpenMetrics via the
// Accept header gets the 1.0 exposition instead, which carries the
// trace-ID exemplars on histogram buckets; the 0.0.4 output is untouched
// by that feature. Encoding errors after the header is sent mean the
// scraper went away; as in writeJSON, they are dropped.
func (srv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", telemetry.OpenMetricsContentType)
		_ = srv.reg.WriteOpenMetrics(w)
		return nil
	}
	w.Header().Set("Content-Type", telemetry.ContentType)
	_ = srv.reg.WritePrometheus(w)
	return nil
}

// slowEntry is the JSON shape of one slow-log record.
type slowEntry struct {
	Time       time.Time `json:"time"`
	Route      string    `json:"route"`
	Detail     string    `json:"detail,omitempty"`
	DurationUS int64     `json:"duration_us"`
	Error      string    `json:"error,omitempty"`
	TraceID    string    `json:"trace_id,omitempty"`
	RequestID  string    `json:"request_id,omitempty"`
}

// slowlogBody renders the slow log's current state — shared by GET and
// PUT so a retune response reflects exactly what a subsequent GET would.
func (srv *Server) slowlogBody() map[string]any {
	snap := srv.slow.Snapshot()
	entries := make([]slowEntry, len(snap))
	for i, e := range snap {
		entries[i] = slowEntry{
			Time:       e.Time,
			Route:      e.Route,
			Detail:     e.Detail,
			DurationUS: e.Duration.Microseconds(),
			Error:      e.Err,
			TraceID:    e.TraceID,
			RequestID:  e.RequestID,
		}
	}
	return map[string]any{
		"threshold_us": srv.slow.Threshold().Microseconds(),
		"capacity":     srv.slow.Cap(),
		"total":        srv.slow.Total(),
		"entries":      entries,
	}
}

// handleSlowlog reports the retained slow requests, newest first, plus the
// log's configuration and lifetime total.
func (srv *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) error {
	return writeJSON(w, http.StatusOK, srv.slowlogBody())
}

// handleSlowlogPut retunes the slow-query threshold on the live daemon —
// chasing an incident means lowering the bar without a restart, and a
// restart would lose the ring. Retained entries are preserved; the
// response reflects the now-active threshold and mirrors the GET shape.
func (srv *Server) handleSlowlogPut(w http.ResponseWriter, r *http.Request) error {
	var req struct {
		ThresholdUS *int64 `json:"threshold_us"`
	}
	if err := decode(w, r, &req); err != nil {
		return err
	}
	if req.ThresholdUS == nil {
		return badRequest("threshold_us must be given")
	}
	if *req.ThresholdUS < 0 {
		return badRequest("threshold_us must be non-negative, got %d", *req.ThresholdUS)
	}
	srv.slow.SetThreshold(time.Duration(*req.ThresholdUS) * time.Microsecond)
	return writeJSON(w, http.StatusOK, srv.slowlogBody())
}

// handleSLO reports the live error budgets and burn rates of the
// configured objectives.
func (srv *Server) handleSLO(w http.ResponseWriter, r *http.Request) error {
	if srv.slo == nil {
		return &apiError{
			status: http.StatusNotImplemented,
			err:    errors.New("no SLO configured (start the server with -slo-latency or -slo-availability)"),
		}
	}
	now := time.Now()
	short, long := srv.slo.Windows()
	return writeJSON(w, http.StatusOK, map[string]any{
		"fast_burn_threshold":  srv.slo.FastBurn(),
		"short_window_seconds": short.Seconds(),
		"long_window_seconds":  long.Seconds(),
		"degraded":             srv.slo.DegradedAt(now),
		"objectives":           srv.slo.StatusAt(now),
	})
}

// analyticsEntry is one hot region in the /v1/admin/analytics response:
// the sketch's digest plus the windowed latency view in /statsz units.
type analyticsEntry struct {
	telemetry.WorkloadStat
	Window map[string]any `json:"window"`
}

// handleAnalytics reports the hottest query-region signatures: the
// operator-facing readout of workload locality. ?n bounds the list
// (default 10), ?window selects the latency window ("1m" default, "5m").
func (srv *Server) handleAnalytics(w http.ResponseWriter, r *http.Request) error {
	n := 10
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			return badRequest("invalid n %q", v)
		}
		n = parsed
	}
	winKey := r.URL.Query().Get("window")
	if winKey == "" {
		winKey = "1m"
	}
	window, ok := telemetry.StatsWindows[winKey]
	if !ok {
		return badRequest("unknown window %q (want 1m or 5m)", winKey)
	}
	top := srv.s.WorkloadTopK(n, window)
	if top == nil {
		return &apiError{
			status: http.StatusNotImplemented,
			err:    errors.New("engine has no workload analytics (enable telemetry)"),
		}
	}
	entries := make([]analyticsEntry, len(top))
	for i, ws := range top {
		entries[i] = analyticsEntry{WorkloadStat: ws, Window: windowJSON(ws.Window)}
	}
	return writeJSON(w, http.StatusOK, map[string]any{
		"window": winKey,
		"top":    entries,
	})
}

// handleTraces reports summaries of the retained traces, newest first.
func (srv *Server) handleTraces(w http.ResponseWriter, r *http.Request) error {
	if srv.ring == nil {
		return &apiError{
			status: http.StatusNotImplemented,
			err:    errors.New("tracing is not enabled (start the server with -trace-sample)"),
		}
	}
	snap := srv.ring.Snapshot()
	sums := make([]trace.Summary, len(snap))
	for i, tr := range snap {
		sums[i] = tr.Summarize()
	}
	return writeJSON(w, http.StatusOK, map[string]any{
		"capacity": srv.ring.Cap(),
		"total":    srv.ring.Total(),
		"traces":   sums,
	})
}

// handleTraceGet returns one retained trace's full span tree by hex ID.
func (srv *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) error {
	if srv.ring == nil {
		return &apiError{
			status: http.StatusNotImplemented,
			err:    errors.New("tracing is not enabled (start the server with -trace-sample)"),
		}
	}
	id := r.PathValue("id")
	tr := srv.ring.Get(id)
	if tr == nil {
		return &apiError{status: http.StatusNotFound, err: fmt.Errorf("trace %q not found (evicted or never retained)", id)}
	}
	return writeJSON(w, http.StatusOK, tr.Export())
}

// emptyNotNull keeps empty result lists serializing as [] rather than null.
func emptyNotNull(ids []int) []int {
	if ids == nil {
		return []int{}
	}
	return ids
}
