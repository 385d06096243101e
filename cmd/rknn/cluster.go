package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	repro "repro"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The two roles of a distributed rknn cluster:
//
//	rknn shard-serve -shard 1 -shards 3 -data fct -n 10000
//	rknn coordinate -shard host0:8080 -shard host1:8080 -shard host2:8080
//
// shard-serve builds ONE hash partition of the dataset and serves it —
// the same HTTP API as `rknn serve`, plus the binary shard protocol on
// /v1/binary and the cluster handshake on /v1/shard/info. coordinate
// fans queries out over the shard daemons with the same scatter-gather
// merge the in-process sharded engine runs, so the cluster's /v1
// responses are byte-identical to one process serving the whole dataset.
// Every daemon must be started from the same dataset flags (the scale
// parameter is estimated over the FULL dataset before partitioning, so
// independently started daemons agree on it); the coordinator
// cross-checks dimension, scale, back-end and metric at startup and
// refuses a cluster that drifted.

// runShardServe implements `rknn shard-serve`: build the one hash
// partition this daemon owns and serve it until ctx is cancelled.
func runShardServe(ctx context.Context, args []string, stdout io.Writer, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("shard-serve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	sf := servingFlags(fs, ":8081")
	ef := registerEngineFlags(fs)
	fs.Lookup("t").Usage = "pin the scale parameter (0 estimates it over the full dataset)"
	fs.BoolVar(&ef.quant, "quant-filter", false, "screen candidates through a quantized pre-filter (scan back-end only)")
	var (
		shard  = fs.Int("shard", 0, "which hash partition this daemon serves, in [0, shards)")
		shards = fs.Int("shards", 1, "total shard count of the cluster")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *shards < 1 || *shard < 0 || *shard >= *shards {
		return fmt.Errorf("shard-serve: -shard must be in [0,%d), got %d", *shards, *shard)
	}

	opts, err := ef.options()
	if err != nil {
		return err
	}
	pts, name, err := ef.points()
	if err != nil {
		return err
	}
	// The scale parameter must be the one a single sharded engine over the
	// WHOLE dataset would use — estimated before partitioning — or the
	// shards would answer under different filter bounds than the
	// in-process engine and byte-identity would break.
	t := ef.t
	if t <= 0 {
		t, err = repro.EstimateScale(pts, opts...)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "rknn shard-serve: estimated t=%.4f over the full dataset (%d points)\n", t, len(pts))
	}

	// Replay the cluster's hash assignment and keep only this daemon's
	// partition, in local-ID order — the exact rows and ordering the
	// in-process sharded engine gives shard `-shard`.
	_, parts, err := index.Partition(pts, *shards)
	if err != nil {
		return err
	}
	mine := parts[*shard]
	if len(mine) == 0 {
		return fmt.Errorf("shard-serve: shard %d of %d holds no points of this %d-point dataset", *shard, *shards, len(pts))
	}

	engOpts := append([]repro.Option{}, opts...)
	engOpts = append(engOpts, repro.WithScale(t))
	eng, err := repro.New(mine, engOpts...)
	if err != nil {
		return err
	}
	return sf.serve(ctx, stdout, ready, "rknn shard-serve", eng,
		fmt.Sprintf("%s shard %d/%d, %d of %d points, %s back-end, t=%.2f", name, *shard, *shards, eng.Len(), len(pts), eng.Backend(), eng.Scale()),
		server.WithShardRole(*shard, *shards))
}

// shardSpecFlags collects repeated -shard flags, each naming one shard's
// replicas as a comma-separated address list (primary first).
type shardSpecFlags []repro.ShardSpec

func (f *shardSpecFlags) String() string { return fmt.Sprint(*f) }

func (f *shardSpecFlags) Set(v string) error {
	parts := strings.Split(v, ",")
	addrs := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			addrs = append(addrs, p)
		}
	}
	if len(addrs) == 0 {
		return errors.New("empty shard address list")
	}
	*f = append(*f, repro.ShardSpec{Addrs: addrs})
	return nil
}

// runCoordinate implements `rknn coordinate`: connect to the shard
// daemons (in shard order, one -shard flag per shard) and serve the
// merged /v1 API.
func runCoordinate(ctx context.Context, args []string, stdout io.Writer, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("coordinate", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var specs shardSpecFlags
	fs.Var(&specs, "shard", "one shard's replicas as comma-separated host:port (primary first); repeat per shard, in shard order")
	sf := servingFlags(fs, ":8080")
	var (
		timeout = fs.Duration("timeout", 5*time.Second, "per-RPC attempt timeout")
		retries = fs.Int("retries", 2, "extra read attempts across healthy replicas")
		backoff = fs.Duration("backoff", 25*time.Millisecond, "backoff before the first retry (doubles per attempt)")
		health  = fs.Duration("health-interval", time.Second, "replica health probe period: each replica's /v1/shard/info against its primary's (0 disables the loop)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if len(specs) == 0 {
		return errors.New("coordinate: at least one -shard is required")
	}
	co, err := repro.NewCoordinator(ctx, specs,
		repro.WithRequestTimeout(*timeout),
		repro.WithRetries(*retries, *backoff),
		repro.WithHealthInterval(*health),
	)
	if err != nil {
		return err
	}
	defer co.Close()

	replicas := 0
	for _, s := range specs {
		replicas += len(s.Addrs)
	}
	return sf.serve(ctx, stdout, ready, "rknn coordinate", co,
		fmt.Sprintf("%d shards (%d replicas), %d points, dim=%d, %s back-end, t=%.2f", co.Shards(), replicas, co.Len(), co.Dim(), co.Backend(), co.Scale()))
}

// serving holds the flags every serving role shares: where to listen, how
// long to drain, and request tracing.
type serving struct {
	addr     *string
	drain    *time.Duration
	traceSmp *float64
	traceCap *int
}

// servingFlags registers the shared serving flags on fs.
func servingFlags(fs *flag.FlagSet, addr string) serving {
	return serving{
		addr:     fs.String("addr", addr, "listen address"),
		drain:    fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout"),
		traceSmp: fs.Float64("trace-sample", 1, "head-sampling probability for retaining request traces in /v1/admin/traces (slow and ?debug=1 requests are always retained; negative disables tracing)"),
		traceCap: fs.Int("trace-ring-size", 256, "trace ring capacity (traces)"),
	}
}

// serve is the one serving path of every role. It binds eng to the HTTP
// server's registry — so /metrics serves the engine's pruning counters
// beside the request histograms — and, unless -trace-sample is negative, to
// the server's trace ring, which keeps request traces and the engine's
// background compaction traces side by side; -trace-sample only sets head
// sampling for ring admission, and slow or ?debug=1 requests are retained
// regardless. serve then listens, prints "<tag>: <banner>, listening on
// <addr>", sends the address on ready (tests bind :0 and read the port from
// here), and serves until ctx is cancelled. It drains in-flight requests
// gracefully and prints the run's metrics digest on the way out.
func (f serving) serve(ctx context.Context, stdout io.Writer, ready chan<- net.Addr, tag string, eng server.Engine, banner string, opts ...server.Option) error {
	reg := telemetry.NewRegistry()
	eng.EnableTelemetry(reg)
	opts = append(opts, server.WithRegistry(reg))
	if *f.traceSmp >= 0 {
		ring := trace.NewRing(*f.traceCap)
		eng.EnableTracing(ring)
		opts = append(opts, server.WithTracing(ring, *f.traceSmp))
	}
	srv := server.New(eng, opts...)
	ln, err := net.Listen("tcp", *f.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %s, listening on %s\n", tag, banner, ln.Addr())
	if ready != nil {
		ready <- ln.Addr()
	}
	httpSrv := &http.Server{
		Handler: srv.Handler(),
		// Bound header reads and idle keep-alives so slow or silent
		// connections cannot pin goroutines forever; no blanket read/write
		// timeout because large batch queries are legitimate long requests.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// Neither Shutdown nor Close touches a connection a handler took over,
	// so the binary frame streams end through the server's own Close.
	httpSrv.RegisterOnShutdown(srv.Close)
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *f.drain)
		defer cancel()
		done <- httpSrv.Shutdown(shutdownCtx)
	}()
	if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-done; err != nil {
		return err
	}
	logMetricsSummary(stdout, tag, srv.Registry())
	fmt.Fprintf(stdout, "%s: shut down cleanly\n", tag)
	return nil
}
