package repro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/telemetry"
	"repro/internal/vecmath"
)

// Coordinator is the networked form of ShardedSearcher: the same federated
// index (shard_client.go) over S `rknn shard-serve` daemons instead of S
// in-process snapshots, with the same core.Querier run over it. Because
// nothing in that code knows where a shard's index lives, a Coordinator
// over daemons holding the hash partition of a dataset returns
// byte-identical answers — and work counters — to a ShardedSearcher and to
// a Searcher over the same dataset; the cluster conformance suite in
// internal/server pins this.
//
// Each shard may be served by several replicas (ShardSpec.Addrs); the
// first is the primary and takes the writes, the rest are read-only
// copies a background health loop checks over /healthz. Reads retry with
// backoff across healthy replicas, so losing a replica mid-stream costs
// queries a failover, not a failure. Replicas that fall behind the
// primary's live count after a write are marked down until they catch up,
// keeping reads from traveling back in time relative to acknowledged
// writes.
//
// Writes route to the owning shard's primary by replaying the same
// hash-assignment the in-process engine uses (index.ShardOf over the
// global assignment counter), then the coordinator verifies the daemon
// assigned exactly the local ID the shared shard map predicts. A daemon
// answering out of step means its state has diverged from the cluster's
// assignment history; the coordinator then refuses further writes rather
// than scattering queries over a map it knows is wrong.
//
// Coordinator implements the server Engine surface, so `rknn coordinate`
// serves the same /v1 API (and the same response bytes) as a single
// process serving the whole dataset.
type Coordinator struct {
	engineConfig // of the daemons: the coordinator runs their algorithm itself
	shards       []*remoteShard
	cc           *clusterClient
	metric       Metric
	dim          int
	approx       bool

	// mu serializes writes: assignment replay depends on the global ID
	// counter, so writes are ordered here exactly as the in-process engine
	// orders them under its write lock.
	mu     sync.Mutex
	smap   atomic.Pointer[index.ShardMap]
	live   []atomic.Int64
	broken atomic.Bool

	reg          *telemetry.Registry
	shardTel     atomic.Pointer[[]*shardTelemetry] // per-shard stream/probe counters
	healthEvery  time.Duration
	stopHealth   chan struct{}
	healthDone   chan struct{}
	healthOnce   sync.Once
	healthActive bool
}

// ShardSpec names the replicas serving one shard. Addrs[0] is the primary
// (the only address that takes writes); the rest are read-only replicas.
type ShardSpec struct {
	Addrs []string
}

// CoordinatorOption configures NewCoordinator.
type CoordinatorOption func(*coordConfig)

type coordConfig struct {
	timeout     time.Duration
	retries     int
	backoff     time.Duration
	healthEvery time.Duration
	transport   http.RoundTripper
}

// WithRequestTimeout bounds each individual shard RPC attempt (default
// 5s; 0 disables the bound).
func WithRequestTimeout(d time.Duration) CoordinatorOption {
	return func(c *coordConfig) { c.timeout = d }
}

// WithRetries sets how many extra attempts a failed read RPC gets
// (default 2), and the backoff before the first retry (default 25ms,
// doubling per attempt). Writes are never retried — a timed-out write may
// have landed, and replaying it would assign a second ID.
func WithRetries(n int, backoff time.Duration) CoordinatorOption {
	return func(c *coordConfig) { c.retries = n; c.backoff = backoff }
}

// WithHealthInterval sets the period of the background replica health
// loop (default 1s; 0 disables it, leaving every replica presumed
// healthy until a read fails over).
func WithHealthInterval(d time.Duration) CoordinatorOption {
	return func(c *coordConfig) { c.healthEvery = d }
}

// WithTransport overrides the HTTP transport (tests inject
// httptest-backed transports here). The default is one pooled
// http.Transport shared by every replica connection.
func WithTransport(rt http.RoundTripper) CoordinatorOption {
	return func(c *coordConfig) { c.transport = rt }
}

// NewCoordinator connects to the shard daemons, cross-checks that they
// form a coherent cluster (matching shard count and roles, dimension,
// scale, algorithm variant, back-end, and metric identity — the same
// invariants OpenSharded enforces across on-disk shard stores), rebuilds the global shard map
// from the daemons' ID spans, and starts the replica health loop.
func NewCoordinator(ctx context.Context, specs []ShardSpec, opts ...CoordinatorOption) (*Coordinator, error) {
	cfg := coordConfig{
		timeout:     5 * time.Second,
		retries:     2,
		backoff:     25 * time.Millisecond,
		healthEvery: time.Second,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(specs) == 0 {
		return nil, errors.New("rknnd: coordinator needs at least one shard")
	}
	if cfg.transport == nil {
		// One pooled transport for the whole cluster: the scatter path
		// reuses keep-alive connections per replica instead of
		// re-handshaking on every fan-out.
		cfg.transport = &http.Transport{
			MaxIdleConns:        128,
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	cc := &clusterClient{
		hc:      &http.Client{Transport: cfg.transport},
		timeout: cfg.timeout,
		retries: cfg.retries,
		backoff: cfg.backoff,
	}
	co := &Coordinator{
		cc:          cc,
		shards:      make([]*remoteShard, len(specs)),
		live:        make([]atomic.Int64, len(specs)),
		healthEvery: cfg.healthEvery,
		stopHealth:  make(chan struct{}),
		healthDone:  make(chan struct{}),
	}
	for i, spec := range specs {
		if len(spec.Addrs) == 0 {
			return nil, fmt.Errorf("rknnd: shard %d has no addresses", i)
		}
		addrs := make([]string, len(spec.Addrs))
		for j, a := range spec.Addrs {
			addrs[j] = normalizeAddr(a)
		}
		co.shards[i] = &remoteShard{shard: i, rs: newReplicaSet(addrs), cc: cc}
	}

	infos := make([]shardInfo, len(specs))
	for i, sh := range co.shards {
		info, err := sh.fetchInfo(ctx)
		if err != nil {
			return nil, fmt.Errorf("rknnd: shard %d: %w", i, err)
		}
		infos[i] = info
	}
	ref := infos[0]
	total := 0
	for i, info := range infos {
		if info.Shards != len(specs) {
			return nil, fmt.Errorf("rknnd: shard %d daemon serves a %d-shard cluster, coordinator configured for %d", i, info.Shards, len(specs))
		}
		if info.Shard != i {
			return nil, fmt.Errorf("rknnd: daemon at position %d serves shard %d (order -shard flags by shard number)", i, info.Shard)
		}
		if info.Dim != ref.Dim {
			return nil, fmt.Errorf("rknnd: shard %d dimension %d, shard 0 dimension %d", i, info.Dim, ref.Dim)
		}
		if info.Scale != ref.Scale {
			return nil, fmt.Errorf("rknnd: shard %d scale %v, shard 0 scale %v", i, info.Scale, ref.Scale)
		}
		if info.Plus != ref.Plus || info.Margin != ref.Margin {
			return nil, fmt.Errorf("rknnd: shard %d runs plus=%v margin=%v, shard 0 plus=%v margin=%v", i, info.Plus, info.Margin, ref.Plus, ref.Margin)
		}
		if info.Backend != ref.Backend {
			return nil, fmt.Errorf("rknnd: shard %d back-end %q, shard 0 back-end %q", i, info.Backend, ref.Backend)
		}
		if info.MetricID != ref.MetricID || info.MetricParam != ref.MetricParam {
			return nil, fmt.Errorf("rknnd: shard %d metric (%d,%v), shard 0 metric (%d,%v)",
				i, info.MetricID, info.MetricParam, ref.MetricID, ref.MetricParam)
		}
		if info.Approximate != ref.Approximate {
			return nil, fmt.Errorf("rknnd: shard %d approximate=%v, shard 0 approximate=%v", i, info.Approximate, ref.Approximate)
		}
		total += info.IDSpan
	}
	metric, err := ref.metricOf()
	if err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	co.metric = metric
	co.dim = ref.Dim
	// A daemon reports scale 0 exactly when it adapts t per query.
	co.engineConfig = engineConfig{scale: ref.Scale, adaptive: ref.Scale == 0, plus: ref.Plus, margin: ref.Margin, backend: Backend(ref.Backend)}
	co.approx = ref.Approximate

	// The shard map is a pure function of (assignment count, shard count),
	// so replaying total assignments reconstructs it; each daemon's ID
	// span must land exactly where the replay predicts, or the daemons
	// were partitioned under different rules (or a different dataset).
	m, err := index.RebuildShardMap(len(specs), total)
	if err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	for i, info := range infos {
		if got := m.ShardLen(i); got != info.IDSpan {
			return nil, fmt.Errorf("rknnd: shard %d reports id span %d, assignment replay predicts %d (partitioning mismatch)", i, info.IDSpan, got)
		}
		co.live[i].Store(int64(info.Points))
	}
	co.smap.Store(m)

	if co.healthEvery > 0 {
		co.healthActive = true
		go co.healthLoop()
	} else {
		close(co.healthDone)
	}
	return co, nil
}

func normalizeAddr(a string) string {
	a = strings.TrimSuffix(a, "/")
	if !strings.Contains(a, "://") {
		a = "http://" + a
	}
	return a
}

// Close stops the health loop. In-flight queries finish normally.
func (co *Coordinator) Close() error {
	co.healthOnce.Do(func() {
		if co.healthActive {
			close(co.stopHealth)
			<-co.healthDone
		}
	})
	return nil
}

// healthLoop periodically refreshes every replica's serving state and the
// per-shard live counts. A replica is healthy when it answers /healthz
// AND reports the same live count as its shard's primary — a lagging
// read-only copy after a write is down for reading until it catches up.
func (co *Coordinator) healthLoop() {
	defer close(co.healthDone)
	tick := time.NewTicker(co.healthEvery)
	defer tick.Stop()
	for {
		select {
		case <-co.stopHealth:
			return
		case <-tick.C:
			co.checkHealth()
		}
	}
}

func (co *Coordinator) checkHealth() {
	ctx, cancel := context.WithTimeout(context.Background(), co.cc.timeout)
	defer cancel()
	var wg sync.WaitGroup
	for i, sh := range co.shards {
		wg.Add(1)
		go func(i int, sh *remoteShard) {
			defer wg.Done()
			primaryPts, ok := co.probeReplica(ctx, sh, 0)
			sh.rs.healthy[0].Store(ok)
			if ok {
				co.live[i].Store(int64(primaryPts))
			}
			for r := 1; r < len(sh.rs.addrs); r++ {
				pts, up := co.probeReplica(ctx, sh, r)
				sh.rs.healthy[r].Store(up && (!ok || pts == primaryPts))
			}
		}(i, sh)
	}
	wg.Wait()
}

// probeReplica hits one replica's /healthz directly (no retry, no
// failover — the point is to judge this copy).
func (co *Coordinator) probeReplica(ctx context.Context, sh *remoteShard, replica int) (points int, ok bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.rs.addrs[replica]+"/healthz", nil)
	if err != nil {
		return 0, false
	}
	resp, err := co.cc.hc.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var body struct {
		Points int `json:"points"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
		return 0, false
	}
	return body.Points, true
}

// EnableTelemetry registers the coordinator's cluster instruments on reg:
// per-remote-shard request/error/retry counters and latency histograms, the
// per-shard skew counters of the in-process sharded engine (rows pulled from
// each shard's stream, count probes, live points), and a per-replica health
// gauge the health loop keeps current.
func (co *Coordinator) EnableTelemetry(reg *telemetry.Registry) {
	co.reg = reg
	co.cc.tel.Store(newRemoteTelemetry(reg))
	sts := make([]*shardTelemetry, len(co.shards))
	for i := range sts {
		live := &co.live[i]
		sts[i] = newShardTelemetry(reg, i, func() int { return int(live.Load()) })
	}
	co.shardTel.Store(&sts)
	for i, sh := range co.shards {
		for r := range sh.rs.addrs {
			healthy := &sh.rs.healthy[r]
			reg.GaugeFunc("rknn_remote_replica_healthy",
				"Whether the health loop currently considers the replica serving and in sync (1) or down (0).",
				func() float64 {
					if healthy.Load() {
						return 1
					}
					return 0
				},
				telemetry.Label{Name: "shard", Value: strconv.Itoa(i)},
				telemetry.Label{Name: "replica", Value: strconv.Itoa(r)})
		}
	}
}

// scatter assembles the per-query scatter set: every shard the
// coordinator believes holds live points, over the current shard map —
// the networked analogue of ShardedSearcher.pin (empty shards are skipped
// there too).
func (co *Coordinator) scatter() *scatterSet {
	sc := &scatterSet{engineConfig: co.engineConfig, m: co.smap.Load(), metric: co.metric, dim: co.dim,
		clients: make([]shardClient, 0, len(co.shards))}
	if p := co.shardTel.Load(); p != nil {
		sc.tel = *p
	}
	for i, sh := range co.shards {
		if live := int(co.live[i].Load()); live > 0 {
			sc.clients = append(sc.clients, sh)
			sc.n += live
		}
	}
	return sc
}

// Len returns the number of live points across the cluster, from the
// counts the health loop and the write path maintain.
func (co *Coordinator) Len() int {
	n := int64(0)
	for i := range co.live {
		n += co.live[i].Load()
	}
	return int(n)
}

// Dim returns the dimensionality of the indexed points.
func (co *Coordinator) Dim() int { return co.dim }

// Scale returns the scale parameter t the daemons were started with (0 when
// they adapt it per query) — the t the coordinator's queries run under.
func (co *Coordinator) Scale() float64 { return co.scale }

// Backend returns the forward-index back-end the shard daemons run.
func (co *Coordinator) Backend() Backend { return co.backend }

// Approximate reports whether the shard daemons answer approximately
// (LSH back-end); see Searcher.Approximate.
func (co *Coordinator) Approximate() bool { return co.approx }

// Shards returns the number of remote shards.
func (co *Coordinator) Shards() int { return len(co.shards) }

// ShardStats reports per-remote-shard size and scatter traffic.
func (co *Coordinator) ShardStats() []ShardInfo {
	out := make([]ShardInfo, len(co.shards))
	for i, sh := range co.shards {
		out[i] = ShardInfo{Shard: i, Points: int(co.live[i].Load()), Queries: sh.queries.Load()}
	}
	return out
}

// ReverseKNN returns the global IDs of the dataset members that have
// member qid among their k nearest neighbors; see ShardedSearcher.
func (co *Coordinator) ReverseKNN(qid, k int) ([]int, error) {
	return co.ReverseKNNContext(context.Background(), qid, k)
}

// ReverseKNNContext is ReverseKNN with a context; spans and headers
// propagate to the shard daemons on every hop.
func (co *Coordinator) ReverseKNNContext(ctx context.Context, qid, k int) ([]int, error) {
	ids, _, _, err := co.scatter().reverseKNN(ctx, qid, nil, k)
	return ids, err
}

// ReverseKNNStatsContext is ReverseKNNContext with the per-query work
// counters of the one algorithm run over the daemons' merged streams.
func (co *Coordinator) ReverseKNNStatsContext(ctx context.Context, qid, k int) ([]int, Stats, error) {
	ids, st, _, err := co.scatter().reverseKNN(ctx, qid, nil, k)
	return ids, st, err
}

// ReverseKNNPointContext answers the query for an arbitrary point.
func (co *Coordinator) ReverseKNNPointContext(ctx context.Context, q []float64, k int) ([]int, error) {
	ids, _, _, err := co.scatter().reverseKNN(ctx, -1, q, k)
	return ids, err
}

// ReverseKNNPointStatsContext is ReverseKNNPointContext with counters.
func (co *Coordinator) ReverseKNNPointStatsContext(ctx context.Context, q []float64, k int) ([]int, Stats, error) {
	ids, st, _, err := co.scatter().reverseKNN(ctx, -1, q, k)
	return ids, st, err
}

// BatchReverseKNNContext answers many member queries on a worker pool
// against one scatter set, with ShardedSearcher's batch semantics (see
// batchByID).
func (co *Coordinator) BatchReverseKNNContext(ctx context.Context, qids []int, k, workers int) ([][]int, error) {
	sc := co.scatter()
	return batchByID(ctx, qids, workers, func(ctx context.Context, qid int) ([]int, error) {
		ids, _, _, err := sc.reverseKNN(ctx, qid, nil, k)
		return ids, err
	})
}

// KNNContext returns the k global forward nearest neighbors of an
// arbitrary point — the per-daemon top-k lists k-way merged.
func (co *Coordinator) KNNContext(ctx context.Context, q []float64, k int) ([]Neighbor, error) {
	return co.scatter().knn(ctx, q, k)
}

// InsertContext routes the point to its hash-assigned shard's primary and
// returns the new global ID. The daemon must assign exactly the local ID
// the shared assignment replay predicts; a mismatch poisons the write
// path (the cluster's history has diverged and further writes would
// corrupt the ID space).
func (co *Coordinator) InsertContext(ctx context.Context, p []float64) (int, error) {
	if err := vecmath.ValidateFor(co.metric, p); err != nil {
		return 0, fmt.Errorf("rknnd: %w", err)
	}
	if len(p) != co.dim {
		return 0, fmt.Errorf("rknnd: point dimension %d, index dimension %d", len(p), co.dim)
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.broken.Load() {
		return 0, errors.New("rknnd: coordinator write path disabled after an assignment mismatch")
	}
	m := co.smap.Load()
	g := m.Len()
	s := index.ShardOf(g, len(co.shards))
	expectLocal := m.ShardLen(s)

	local, err := co.insertOn(ctx, co.shards[s], p)
	if err != nil {
		return 0, err
	}
	if local != expectLocal {
		co.broken.Store(true)
		return 0, fmt.Errorf("rknnd: shard %d assigned local id %d, assignment replay predicts %d; write path disabled", s, local, expectLocal)
	}
	next, err := index.RebuildShardMap(len(co.shards), g+1)
	if err != nil {
		return 0, fmt.Errorf("rknnd: %w", err)
	}
	co.smap.Store(next)
	co.live[s].Add(1)
	co.demoteReplicas(s)
	return g, nil
}

// InsertBatchContext ingests many points, each routed to its
// hash-assigned shard, IDs returned in input order. Atomicity is
// per-shard (the in-process sharded engine's batch has the same shape);
// an empty batch is a no-op there and here.
func (co *Coordinator) InsertBatchContext(ctx context.Context, points [][]float64) ([]int, error) {
	if len(points) == 0 {
		return nil, nil
	}
	if err := vecmath.ValidateAllFor(co.metric, points); err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	for _, p := range points {
		if len(p) != co.dim {
			return nil, fmt.Errorf("rknnd: point dimension %d, index dimension %d", len(p), co.dim)
		}
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.broken.Load() {
		return nil, errors.New("rknnd: coordinator write path disabled after an assignment mismatch")
	}
	m := co.smap.Load()
	n := m.Len()
	ids := make([]int, len(points))
	byShard := make(map[int][]int, len(co.shards)) // shard -> positions, global order
	for j := range points {
		g := n + j
		ids[j] = g
		s := index.ShardOf(g, len(co.shards))
		byShard[s] = append(byShard[s], j)
	}
	for s := 0; s < len(co.shards); s++ {
		pos := byShard[s]
		if len(pos) == 0 {
			continue
		}
		pts := make([][]float64, len(pos))
		for t, j := range pos {
			pts[t] = points[j]
		}
		expect := m.ShardLen(s)
		locals, err := co.insertBatchOn(ctx, co.shards[s], pts)
		if err != nil {
			co.broken.Store(true)
			return nil, fmt.Errorf("rknnd: shard %d batch insert failed mid-cluster; write path disabled: %w", s, err)
		}
		for t, l := range locals {
			if l != expect+t {
				co.broken.Store(true)
				return nil, fmt.Errorf("rknnd: shard %d assigned local id %d, assignment replay predicts %d; write path disabled", s, l, expect+t)
			}
		}
		co.live[s].Add(int64(len(pos)))
		co.demoteReplicas(s)
	}
	next, err := index.RebuildShardMap(len(co.shards), n+len(points))
	if err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	co.smap.Store(next)
	return ids, nil
}

// DeleteContext tombstones a global ID on its shard's primary. Returns
// false for IDs never assigned or already deleted.
func (co *Coordinator) DeleteContext(ctx context.Context, id int) (bool, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	m := co.smap.Load()
	s, l, ok := m.Locate(id)
	if !ok {
		return false, nil
	}
	sh := co.shards[s]
	deleted := false
	err := sh.call(ctx, true, http.MethodDelete, "/v1/points/"+strconv.Itoa(l), "", nil,
		func(status int, ctype string, body []byte) error {
			switch status {
			case http.StatusOK:
				deleted = true
				return nil
			case http.StatusNotFound:
				return nil
			default:
				return jsonErr(status, ctype, body)
			}
		})
	if err != nil {
		return false, fmt.Errorf("rknnd: %w", err)
	}
	if deleted {
		co.live[s].Add(-1)
		co.demoteReplicas(s)
	}
	return deleted, nil
}

// demoteReplicas marks a shard's read-only replicas down after a write to
// its primary: they are stale until the health loop sees them agree with
// the primary's live count again. Reads fail over to the primary
// meanwhile, so acknowledged writes are always visible to later reads.
func (co *Coordinator) demoteReplicas(s int) {
	rs := co.shards[s].rs
	for r := 1; r < len(rs.addrs); r++ {
		rs.markDown(r)
	}
}

func (co *Coordinator) insertOn(ctx context.Context, sh *remoteShard, p []float64) (int, error) {
	raw, err := json.Marshal(map[string]any{"point": p})
	if err != nil {
		return 0, err
	}
	var out struct {
		ID int `json:"id"`
	}
	err = sh.call(ctx, true, http.MethodPost, "/v1/points", "application/json", raw,
		func(status int, ctype string, body []byte) error {
			if status != http.StatusCreated {
				return jsonErr(status, ctype, body)
			}
			return json.Unmarshal(body, &out)
		})
	if err != nil {
		return 0, fmt.Errorf("rknnd: shard %d: %w", sh.shard, err)
	}
	return out.ID, nil
}

func (co *Coordinator) insertBatchOn(ctx context.Context, sh *remoteShard, pts [][]float64) ([]int, error) {
	raw, err := json.Marshal(map[string]any{"points": pts})
	if err != nil {
		return nil, err
	}
	var out struct {
		IDs []int `json:"ids"`
	}
	err = sh.call(ctx, true, http.MethodPost, "/v1/points/batch", "application/json", raw,
		func(status int, ctype string, body []byte) error {
			if status != http.StatusCreated {
				return jsonErr(status, ctype, body)
			}
			return json.Unmarshal(body, &out)
		})
	if err != nil {
		return nil, err
	}
	if len(out.IDs) != len(pts) {
		return nil, fmt.Errorf("daemon acknowledged %d of %d points", len(out.IDs), len(pts))
	}
	return out.IDs, nil
}
