package repro

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

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
// cluster conformance suite in internal/server pins this. The one exception
// is a Searcher snapshot that has served enough queries at a rank to fill its
// k-distance table: it then answers the oracle — the exact reverse neighbors,
// at any t — not Algorithm 1's retrieved set, and reports DecidedByTable
// with every scan, witness and refinement counter 0 (DESIGN.md, "The
// k-distance table").
//
// Each shard may be served by several replicas (ShardSpec.Addrs); the
// first is the primary and takes the writes, the rest are read-only
// copies a background health loop checks by their descriptions
// (ShardDescription). Reads retry with backoff across healthy replicas, so
// losing a replica mid-stream costs queries a failover, not a failure. A
// replica whose description differs from its primary's — another ID span or
// live count — is marked down, keeping reads from traveling back in time
// relative to acknowledged writes. Nothing replicates writes to read
// replicas, so after any write through the coordinator they stay down until
// they are reloaded with the primary's data.
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

	stopHealth chan struct{}
	healthDone chan struct{}
	healthOnce sync.Once
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

// NewCoordinator connects to the shard daemons, reads each one's
// description (GET /v1/shard/info) and binds the sharded engine to them under
// the assembly rule OpenSharded also runs (shardedCore.assemble: roles,
// counts, one configuration, the shard map replayed from the ID spans), then
// starts the replica health loop.
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
	cc := &clusterClient{coordConfig: cfg, hc: &http.Client{Transport: cfg.transport}}
	co := &Coordinator{
		cc:         cc,
		remotes:    make([]*remoteShard, len(specs)),
		stopHealth: make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	shards := make([]shard, len(specs))
	descs := make([]*ShardDescription, len(specs))
	for i, spec := range specs {
		if len(spec.Addrs) == 0 {
			return nil, fmt.Errorf("rknnd: shard %d has no addresses", i)
		}
		addrs := make([]string, len(spec.Addrs))
		for j, a := range spec.Addrs {
			addrs[j] = normalizeAddr(a)
		}
		co.remotes[i] = &remoteShard{shard: i, rs: newReplicaSet(addrs, cfg.transport), cc: cc}
		shards[i] = co.remotes[i]
		d, err := co.remotes[i].describe(ctx, -1)
		if err != nil {
			return nil, fmt.Errorf("rknnd: shard %d: %w", i, err)
		}
		descs[i] = &d
	}
	if err := co.assemble(descs, shards); err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	for i, d := range descs {
		co.remotes[i].live.Store(int64(d.Points))
	}

	if cfg.healthEvery > 0 {
		go co.healthLoop()
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

// Close stops the health loop and closes the idle stream connections, which
// ends the daemons' loops serving them. In-flight queries finish normally.
func (co *Coordinator) Close() error {
	co.healthOnce.Do(func() {
		if co.cc.healthEvery > 0 {
			close(co.stopHealth)
			<-co.healthDone
		}
		for _, sh := range co.remotes {
			for _, c := range sh.rs.streams {
				c.Close()
			}
		}
	})
	return nil
}

// healthLoop periodically refreshes every replica's serving state and the
// per-shard live counts. A replica is healthy when it answers with its
// description AND that description equals its shard's primary's — same ID
// span and live count, so a read-only copy that missed a write through the
// coordinator is down for reading until a reload brings it level.
func (co *Coordinator) healthLoop() {
	defer close(co.healthDone)
	tick := time.NewTicker(co.cc.healthEvery)
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
	// A probe with no request bound (WithRequestTimeout(0)) still ends
	// before the next tick.
	ctx, cancel := context.WithTimeout(context.Background(), cmp.Or(co.cc.timeout, co.cc.healthEvery))
	defer cancel()
	var wg sync.WaitGroup
	for _, sh := range co.remotes {
		wg.Add(1)
		go func(sh *remoteShard) {
			defer wg.Done()
			primary, err := sh.describe(ctx, 0)
			ok := err == nil
			sh.rs.healthy[0].Store(ok)
			if ok {
				sh.live.Store(int64(primary.Points))
			}
			for r := 1; r < len(sh.rs.addrs); r++ {
				d, err := sh.describe(ctx, r)
				sh.rs.healthy[r].Store(err == nil && (!ok || d == primary))
			}
		}(sh)
	}
	wg.Wait()
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
