package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	repro "repro"
	"repro/internal/backend"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// runServe implements the `rknn serve` subcommand: build a Searcher over a
// generated or CSV dataset and serve it over HTTP until ctx is cancelled
// (SIGINT/SIGTERM in main), then shut down gracefully, draining in-flight
// requests. With -data-dir the engine is durable: an existing store in the
// directory is recovered (snapshot + write-ahead log, no dataset load and
// no scale re-estimation), a missing one is bootstrapped from the dataset
// flags, and every insert/delete is logged before it is acknowledged. With
// -shards N the engine is a scatter-gather ShardedSearcher (and -data-dir
// then holds one store per shard, recovered shard by shard). When ready is
// non-nil, the bound address is sent on it once the listener is up (tests
// bind :0 and read the port from here).
func runServe(ctx context.Context, args []string, stdout io.Writer, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	sf := servingFlags(fs, ":8080")
	ef := registerEngineFlags(fs)
	var (
		dataDir  = fs.String("data-dir", "", "durable store directory: recover state from it, or create it and log all writes")
		walSync  = fs.Int("wal-sync", 1, "fsync the write-ahead log every N writes (0 = never)")
		shards   = fs.Int("shards", 1, "hash-partition the dataset across N shards served by scatter-gather")
		slowThr  = fs.Duration("slowlog-threshold", server.DefaultSlowLogThreshold, "record requests at or above this latency in /v1/admin/slowlog (0 records all)")
		slowSize = fs.Int("slowlog-size", server.DefaultSlowLogSize, "slow-query log capacity (entries)")
		dbgAddr  = fs.String("debug-addr", "", "serve net/http/pprof and expvar on this private address (never on the serving mux)")
		sloLat   = fs.String("slo-latency", "", `latency SLO for data-plane requests, e.g. "p99<25ms" (tracked at /v1/admin/slo; fast burn degrades /healthz?slo=1)`)
		sloAvail = fs.String("slo-availability", "", `availability SLO for data-plane requests as a success percentage, e.g. "99.9"`)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not a failure
		}
		return err
	}

	slo, err := buildSLO(*sloLat, *sloAvail)
	if err != nil {
		return err
	}

	eng, err := buildEngine(stdout, ef, *dataDir, *walSync, *shards)
	if err != nil {
		return err
	}
	defer eng.Close()

	// The debug listener is deliberately a second, private server: pprof
	// exposes heap contents and expvar the process environment, neither of
	// which belongs on the serving address. It comes up before the ready
	// signal so tests reading the banner never race the serve goroutine.
	if *dbgAddr != "" {
		dln, err := net.Listen("tcp", *dbgAddr)
		if err != nil {
			return fmt.Errorf("serve: debug listener: %w", err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		debugSrv := &http.Server{Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		defer debugSrv.Close()
		fmt.Fprintf(stdout, "rknn serve: debug endpoints (pprof, expvar) on %s\n", dln.Addr())
		go debugSrv.Serve(dln)
	}

	opts := []server.Option{server.WithSlowLog(*slowThr, *slowSize)}
	if slo != nil {
		opts = append(opts, server.WithSLO(slo))
		short, long := slo.Windows()
		fmt.Fprintf(stdout, "rknn serve: SLO tracking on (%d objectives, fast burn %.1f over %s/%s windows)\n",
			len(slo.StatusAt(time.Now())), slo.FastBurn(), short, long)
	}
	// Report the engine's actual back-end: on the recovery path it comes
	// from the store, not from the -backend flag.
	return sf.serve(ctx, stdout, ready, "rknn serve", eng,
		fmt.Sprintf("n=%d, dim=%d, %s back-end, t=%.2f", eng.Len(), eng.Dim(), eng.Backend(), eng.Scale()), opts...)
}

// buildSLO maps the -slo-latency / -slo-availability flag specs onto a
// telemetry.SLO, or nil when neither flag is set. A latency spec reads
// "p99<25ms" (quantile as a percentile after "p", bound as a Go duration);
// an availability spec is a bare success percentage like "99.9". Malformed
// specs fail at startup — an SLO that silently never fires is worse than
// no SLO.
func buildSLO(latSpec, availSpec string) (*telemetry.SLO, error) {
	var objectives []telemetry.SLOObjective
	if latSpec != "" {
		qs, bs, ok := strings.Cut(latSpec, "<")
		if !ok || !strings.HasPrefix(qs, "p") {
			return nil, fmt.Errorf(`serve: -slo-latency wants "p<percentile><<bound>", e.g. "p99<25ms", got %q`, latSpec)
		}
		pct, err := strconv.ParseFloat(strings.TrimPrefix(qs, "p"), 64)
		if err != nil || pct <= 0 || pct >= 100 {
			return nil, fmt.Errorf("serve: -slo-latency percentile must be in (0,100), got %q", qs)
		}
		bound, err := time.ParseDuration(strings.TrimSpace(bs))
		if err != nil || bound <= 0 {
			return nil, fmt.Errorf("serve: -slo-latency bound must be a positive duration, got %q", bs)
		}
		objectives = append(objectives, telemetry.LatencyObjective(pct/100, bound.Seconds()))
	}
	if availSpec != "" {
		pct, err := strconv.ParseFloat(availSpec, 64)
		if err != nil || pct <= 0 || pct >= 100 {
			return nil, fmt.Errorf("serve: -slo-availability wants a success percentage in (0,100), e.g. \"99.9\", got %q", availSpec)
		}
		objectives = append(objectives, telemetry.AvailabilityObjective(pct/100))
	}
	if len(objectives) == 0 {
		return nil, nil
	}
	return telemetry.NewSLO(telemetry.SLOConfig{Objectives: objectives})
}

// logMetricsSummary prints the shutdown digest of the run: per-route
// traffic with histogram-derived p50/p99, and the engine's lifetime
// pruning effectiveness — the paper's candidate-reduction story as the
// daemon's parting line.
func logMetricsSummary(stdout io.Writer, tag string, reg *telemetry.Registry) {
	byName := make(map[string]telemetry.FamilySnapshot)
	for _, f := range reg.Gather() {
		byName[f.Name] = f
	}
	label := func(s telemetry.Sample, name string) string {
		for _, l := range s.Labels {
			if l.Name == name {
				return l.Value
			}
		}
		return ""
	}
	sampleFor := func(f telemetry.FamilySnapshot, name, value string) (telemetry.Sample, bool) {
		for _, s := range f.Samples {
			if label(s, name) == value {
				return s, true
			}
		}
		return telemetry.Sample{}, false
	}

	for _, s := range byName["rknn_http_requests_total"].Samples {
		if s.Value == 0 {
			continue
		}
		route := label(s, "route")
		line := fmt.Sprintf("%s: %-20s %6.0f requests", tag, route, s.Value)
		if es, ok := sampleFor(byName["rknn_http_request_errors_total"], "route", route); ok && es.Value > 0 {
			line += fmt.Sprintf(", %.0f errors", es.Value)
		}
		if hs, ok := sampleFor(byName["rknn_http_request_duration_seconds"], "route", route); ok && hs.Hist != nil && hs.Hist.Count > 0 {
			line += fmt.Sprintf(", p50 %s, p99 %s",
				time.Duration(hs.Hist.Quantile(0.50)*float64(time.Second)).Round(time.Microsecond),
				time.Duration(hs.Hist.Quantile(0.99)*float64(time.Second)).Round(time.Microsecond))
		}
		fmt.Fprintln(stdout, line)
	}

	sum := func(name string) float64 {
		var total float64
		for _, s := range byName[name].Samples {
			total += s.Value
		}
		return total
	}
	if generated := sum("rknn_candidates_generated_total"); generated > 0 {
		settled := sum("rknn_candidates_lazy_settled_total")
		fmt.Fprintf(stdout, "%s: pruning: %.0f candidates generated, %.0f settled lazily (%.1f%%), %.0f verified\n",
			tag, generated, settled, 100*settled/generated, sum("rknn_candidates_verified_total"))
	}
}

// engine is what buildEngine returns: every engine it builds is also its own
// closer (Close is a no-op on one with no store attached).
type engine interface {
	server.Engine
	Close() error
}

// buildEngine assembles the serving engine: recover the store -data-dir
// points at (sharded or single, whichever the directory holds), or build the
// engine the flags ef describe — sharded scatter-gather when -shards > 1 —
// and, when -data-dir is set, attach a new store to it there. Closing the
// engine flushes and closes the write-ahead logs.
func buildEngine(stdout io.Writer, ef *engineFlags, dataDir string, walSync, shards int) (engine, error) {
	if shards < 1 {
		return nil, fmt.Errorf("serve: -shards must be at least 1, got %d", shards)
	}
	walOpt := repro.WithWALSync(walSync)
	if dataDir != "" && repro.ShardedStoreExists(dataDir) {
		ss, err := repro.OpenSharded(dataDir, walOpt)
		if err != nil {
			return nil, err
		}
		replayed, torn := 0, false
		for _, rec := range ss.Recovery() {
			replayed += rec.WALRecords
			torn = torn || rec.WALTorn
		}
		fmt.Fprintf(stdout, "rknn serve: recovered sharded store %s (%d shards, generation %d, %d wal records replayed",
			dataDir, ss.Shards(), ss.Generation(), replayed)
		if torn {
			fmt.Fprint(stdout, ", torn tail discarded")
		}
		fmt.Fprintln(stdout, ")")
		fmt.Fprintln(stdout, "rknn serve: engine configuration comes from the store; dataset, -shards, -backend, -metric, -t, -auto and -plain flags are ignored")
		return ss, nil
	}
	if dataDir != "" && repro.StoreExists(dataDir) {
		s, err := repro.Open(dataDir, walOpt)
		if err != nil {
			return nil, err
		}
		rec := s.Recovery()
		fmt.Fprintf(stdout, "rknn serve: recovered %s (generation %d, %d wal records replayed", dataDir, rec.Generation, rec.WALRecords)
		if rec.WALTorn {
			fmt.Fprint(stdout, ", torn tail discarded")
		}
		fmt.Fprintln(stdout, ")")
		fmt.Fprintln(stdout, "rknn serve: engine configuration comes from the store; dataset, -backend, -metric, -t, -auto and -plain flags are ignored")
		for _, skipped := range rec.SkippedSnapshots {
			fmt.Fprintf(stdout, "rknn serve: warning: skipped unreadable snapshot %s\n", skipped)
		}
		return s, nil
	}

	// The flags are checked before the dataset is read: a mistyped -backend
	// or -metric should not cost a load first.
	opts, err := ef.options()
	if err != nil {
		return nil, err
	}
	pts, name, err := ef.points()
	if err != nil {
		return nil, err
	}
	var eng engine
	var attach func() error
	shape, store := name, "durable store"
	if shards > 1 {
		ss, err := repro.NewSharded(pts, shards, opts...)
		if err != nil {
			return nil, err
		}
		eng, shape, store = ss, fmt.Sprintf("%s sharded %d ways", name, shards), fmt.Sprintf("sharded store (%d shards)", shards)
		attach = func() error { _, err := repro.NewDurableSharded(dataDir, ss, walOpt); return err }
	} else {
		s, err := repro.New(pts, opts...)
		if err != nil {
			return nil, err
		}
		eng = s
		attach = func() error { _, err := repro.NewDurable(dataDir, s, walOpt); return err }
	}
	if dataDir == "" {
		fmt.Fprintf(stdout, "rknn serve: %s in memory only (no -data-dir)\n", shape)
		return eng, nil
	}
	if err := attach(); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "rknn serve: %s bootstrapped %s in %s\n", name, store, dataDir)
	return eng, nil
}

// engineFlags are the dataset and engine flags serve, shard-serve and save
// share.
type engineFlags struct {
	data, csv    string
	n, dim       int
	seed         int64
	backend      string
	t            float64
	auto, metric string
	plain        bool
}

// registerEngineFlags registers the ten shared engine flags on fs.
func registerEngineFlags(fs *flag.FlagSet) *engineFlags {
	ef := &engineFlags{}
	fs.StringVar(&ef.data, "data", "sequoia", "surrogate dataset: sequoia, aloi, fct, mnist, imagenet, uniform")
	fs.StringVar(&ef.csv, "csv", "", "load points from a CSV file instead of generating")
	fs.IntVar(&ef.n, "n", 5000, "generated dataset size")
	fs.IntVar(&ef.dim, "dim", 128, "dimension for imagenet/uniform surrogates")
	fs.Int64Var(&ef.seed, "seed", 1, "generation seed")
	fs.StringVar(&ef.backend, "backend", "covertree", "forward index: covertree or scan")
	fs.Float64Var(&ef.t, "t", 0, "pin the scale parameter (0 estimates it)")
	fs.StringVar(&ef.auto, "auto", "mle", "scale estimator when -t is 0: mle, gp or takens")
	fs.BoolVar(&ef.plain, "plain", false, "use plain RDT instead of RDT+")
	fs.StringVar(&ef.metric, "metric", "", "distance metric: euclidean (default), manhattan, chebyshev, angular, minkowski(p)")
	return ef
}

// options maps the flags onto the public facade options.
func (ef *engineFlags) options() ([]repro.Option, error) {
	return searcherOptions(ef.backend, ef.t, ef.auto, ef.plain, ef.metric)
}

// points loads the dataset the flags name.
func (ef *engineFlags) points() ([][]float64, string, error) {
	return loadPoints(ef.csv, ef.data, ef.n, ef.dim, ef.seed)
}

// searcherOptions maps the engine flags onto the public facade options,
// refusing a back-end or metric name the facade would refuse.
func searcherOptions(backendName string, t float64, auto string, plain bool, metric string) ([]repro.Option, error) {
	if err := backend.Check(backendName); err != nil {
		return nil, err
	}
	opts := []repro.Option{repro.WithBackend(repro.Backend(backendName))}
	if metric != "" {
		m, err := repro.ParseMetric(metric)
		if err != nil {
			return nil, err
		}
		opts = append(opts, repro.WithMetric(m))
	}
	if t > 0 {
		opts = append(opts, repro.WithScale(t))
	} else {
		opts = append(opts, repro.WithAutoScale(repro.Estimator(auto)))
	}
	if plain {
		opts = append(opts, repro.WithPlainRDT())
	}
	return opts, nil
}

// buildSearcher builds the single-engine form of the flag set.
func buildSearcher(pts [][]float64, backend string, t float64, auto string, plain bool, metric string) (*repro.Searcher, error) {
	opts, err := searcherOptions(backend, t, auto, plain, metric)
	if err != nil {
		return nil, err
	}
	return repro.New(pts, opts...)
}
