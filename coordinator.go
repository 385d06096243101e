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
	"time"

	"repro/internal/index"
	"repro/internal/telemetry"
)

// This file is what is about the network in a Coordinator: its options, the
// handshake and cross-check that bind the sharded engine (shard.go) to a set
// of daemons, the replica sets' health loop, and the rknn_remote_* telemetry.
// Queries and writes are the shared engine's, over shards that are remote
// (shard_remote.go).

// Coordinator is the networked form of ShardedSearcher: the same sharded
// engine (shardedCore, whose methods it promotes) over S `rknn shard-serve`
// daemons instead of S in-process Searchers. Because nothing in that engine
// knows where a shard lives, a Coordinator over daemons holding the hash
// partition of a dataset returns byte-identical answers, work counters and
// errors to a ShardedSearcher and to a Searcher over the same dataset; the
// cluster conformance suite in internal/server pins this.
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
// Writes are the shared write path's: the shard map assigns the IDs, each
// involved shard's primary takes its group, and a daemon that assigns other
// local IDs than the map predicted, or whose answer to a write is lost,
// poisons the write path — only a restart, which re-reads the daemons' ID
// spans, can tell what the cluster holds.
//
// Coordinator implements the server Engine surface, so `rknn coordinate`
// serves the same /v1 API (and the same response bytes) as a single
// process serving the whole dataset.
type Coordinator struct {
	shardedCore
	remotes []*remoteShard // the core's shards, concretely typed
	cc      *clusterClient

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
// invariants OpenSharded enforces across on-disk shard stores), rebuilds the
// global shard map from the daemons' ID spans, binds the sharded engine to
// them, and starts the replica health loop.
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
		remotes:     make([]*remoteShard, len(specs)),
		healthEvery: cfg.healthEvery,
		stopHealth:  make(chan struct{}),
		healthDone:  make(chan struct{}),
	}
	shards := make([]shard, len(specs))
	for i, spec := range specs {
		if len(spec.Addrs) == 0 {
			return nil, fmt.Errorf("rknnd: shard %d has no addresses", i)
		}
		addrs := make([]string, len(spec.Addrs))
		for j, a := range spec.Addrs {
			addrs[j] = normalizeAddr(a)
		}
		co.remotes[i] = &remoteShard{shard: i, rs: newReplicaSet(addrs), cc: cc}
		shards[i] = co.remotes[i]
	}

	infos := make([]shardInfo, len(specs))
	for i, sh := range co.remotes {
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
		if info.Approximate != (Backend(info.Backend) == BackendLSH) {
			return nil, fmt.Errorf("rknnd: shard %d reports approximate=%v on back-end %q", i, info.Approximate, info.Backend)
		}
		total += info.IDSpan
	}
	metric, err := ref.metricOf()
	if err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	// A daemon reports scale 0 exactly when it adapts t per query.
	co.init(engineConfig{scale: ref.Scale, adaptive: ref.Scale == 0, plus: ref.Plus, margin: ref.Margin, backend: Backend(ref.Backend)},
		metric, ref.Dim, shards)

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
		co.remotes[i].live.Store(int64(info.Points))
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
	for _, sh := range co.remotes {
		wg.Add(1)
		go func(sh *remoteShard) {
			defer wg.Done()
			primaryPts, ok := co.probeReplica(ctx, sh, 0)
			sh.rs.healthy[0].Store(ok)
			if ok {
				sh.live.Store(int64(primaryPts))
			}
			for r := 1; r < len(sh.rs.addrs); r++ {
				pts, up := co.probeReplica(ctx, sh, r)
				sh.rs.healthy[r].Store(up && (!ok || pts == primaryPts))
			}
		}(sh)
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

// EnableTelemetry binds the Coordinator to reg: the engine-level families and
// per-shard skew counters of every sharded engine (the workload sketch runs
// without a region grid — a coordinator holds no rows to calibrate one from —
// so its signatures are "op k=…"), plus the cluster's own instruments:
// per-remote-shard request/error/retry counters and latency histograms, and a
// per-replica health gauge the health loop keeps current.
func (co *Coordinator) EnableTelemetry(reg *telemetry.Registry) {
	if co.boundTo(reg) {
		return
	}
	co.enableTelemetry(reg, nil)
	co.cc.tel.Store(newRemoteTelemetry(reg))
	for i, sh := range co.remotes {
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
