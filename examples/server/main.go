// Server: run the RkNN engine as an in-process HTTP service and talk to it
// as a client would — the embedded-library face of the `rknn serve` daemon.
// Queries race a live insert below; the engine's copy-on-write snapshots
// keep every response consistent without a single client-visible lock.
// The second act demonstrates the durability layer: the engine is bound to
// an on-disk store, writes are logged, and a "restart" (drop the engine,
// Open the directory) recovers the exact state — including the estimated
// scale parameter, which is restored rather than re-estimated.
// The third act shards the same dataset three ways behind the same HTTP
// surface — `rknn serve -shards 3` does exactly this (add -data-dir for
// one durable store per shard) — and shows that the scatter-gather answers
// are byte-identical to the single engine's, with per-shard counters on
// /statsz.
// The fourth act is the observability surface: the engine and the server
// share one telemetry registry, so a single /metrics scrape exposes both
// the HTTP latency histograms and the paper's pruning mechanics
// (candidates generated / excluded / lazily settled) as live Prometheus
// series — `rknn serve` wires this identically.
// The fifth act is per-query tracing: the sharded engine and the server
// share a trace ring, a ?debug=1 query returns its own span tree inline —
// scatter spans per shard, the paper's work counters as attributes on the
// core spans — and the ring is browsable after the fact through
// /v1/admin/traces. `rknn serve -trace-sample` wires this identically.
// The sixth act is live operations: SLO error budgets with multi-window
// burn-rate alerting (`rknn serve -slo-latency "p99<25ms"
// -slo-availability 99.9`), hot-region workload analytics, and the
// sliding-window /statsz views that `rknn top` renders as a terminal
// dashboard. An absurdly tight availability objective is tripped on
// purpose to show the fast-burn page and the /healthz?slo=1 503.
// The seventh act is distributed serving: the same three-way partition,
// but each shard is its own HTTP daemon speaking the compact binary
// shard protocol — what `rknn shard-serve -shard s -shards 3` (three
// times) plus `rknn coordinate` run as separate processes. The
// coordinator cross-checks each daemon's metric and ID span at startup
// exactly like OpenSharded, scatters one binary frame per shard, merges
// with the same exact-merge proof, and so answers byte-identically to
// the in-process sharded server — shown by comparing raw response
// bodies. Its fan-out telemetry (rknn_remote_shard_*) rides the same
// /metrics scrape.
//
//	go run ./examples/server
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"

	repro "repro"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	ds := dataset.Sequoia(3000, 1)
	s, err := repro.New(ds.Points)
	if err != nil {
		log.Fatal(err)
	}

	// Bind the engine to a durable store: the initial snapshot is written
	// now, and every insert/delete below is write-ahead logged before it
	// is acknowledged. `rknn serve -data-dir` does exactly this.
	dir, err := os.MkdirTemp("", "rknn-store-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	d, err := repro.NewDurable(dir, s)
	if err != nil {
		log.Fatal(err)
	}

	// In production this handler sits behind `rknn serve -addr :8080`;
	// here an httptest server stands in so the example is self-contained.
	// The engine and the server share one registry, so /metrics below
	// carries both layers.
	reg := telemetry.NewRegistry()
	d.EnableTelemetry(reg)
	ts := httptest.NewServer(server.New(d, server.WithRegistry(reg)).Handler())
	defer ts.Close()
	fmt.Printf("serving %d points at %s (store: %s)\n", d.Len(), ts.URL, dir)

	// One reverse query over the wire.
	var rknn struct {
		IDs []int `json:"ids"`
	}
	post(ts.URL+"/v1/rknn", `{"id": 42, "k": 10}`, &rknn)
	fmt.Printf("R10NN(42) = %v\n", rknn.IDs)

	// Concurrent clients: a batch query racing a point insert.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var batch struct {
			Results [][]int `json:"results"`
		}
		post(ts.URL+"/v1/rknn/batch", `{"ids": [1, 2, 3, 4, 5], "k": 10, "workers": 2}`, &batch)
		fmt.Printf("batch answered %d queries\n", len(batch.Results))
	}()
	go func() {
		defer wg.Done()
		var ins struct {
			ID int `json:"id"`
		}
		post(ts.URL+"/v1/points", `{"point": [0.5, 0.5]}`, &ins)
		fmt.Printf("inserted point, id = %d\n", ins.ID)
	}()
	wg.Wait()

	// The daemon's observability surface.
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Endpoints map[string]struct {
			Requests int64 `json:"requests"`
		} `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	for _, route := range []string{"/v1/rknn", "/v1/rknn/batch", "/v1/points"} {
		fmt.Printf("%-15s %d requests\n", route, stats.Endpoints[route].Requests)
	}

	// The Prometheus surface: one scrape of /metrics carries the HTTP
	// histograms and the engine's pruning counters — the paper's
	// candidate-reduction mechanics as live series. A real deployment
	// points a Prometheus scrape job at this endpoint.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("selected /metrics series:")
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		for _, prefix := range []string{
			"rknn_queries_total", "rknn_candidates_generated_total",
			"rknn_candidates_excluded_total", "rknn_candidates_lazy_settled_total",
			"rknn_pruning_ratio", "rknn_http_requests_total{route=\"/v1/rknn\"}",
		} {
			if strings.HasPrefix(line, prefix) {
				fmt.Println("  " + line)
				break
			}
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}

	// Restart recovery: cut a snapshot over the wire, remember the answer
	// to one query, "crash" (drop the engine without any shutdown
	// ceremony), and reopen the directory. The recovered engine answers
	// identically and keeps the original scale parameter — no dataset
	// reload, no re-estimation.
	var cut struct {
		Generation uint64 `json:"generation"`
	}
	post(ts.URL+"/v1/admin/snapshot", "", &cut)
	fmt.Printf("cut snapshot generation %d\n", cut.Generation)

	before, err := d.ReverseKNN(42, 10)
	if err != nil {
		log.Fatal(err)
	}
	scale := d.Scale()
	ts.Close() // stop serving; the store directory is the only survivor

	re, err := repro.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer re.Close()
	after, err := re.ReverseKNN(42, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered generation %d with %d wal records, t=%.2f (was t=%.2f)\n",
		re.Recovery().Generation, re.Recovery().WALRecords, re.Scale(), scale)
	fmt.Printf("R10NN(42) before restart %v, after %v\n", before, after)

	// Sharded scatter-gather: the same dataset hash-partitioned across 3
	// shards behind the same route table (`rknn serve -shards 3`). The
	// merge layer makes the answers byte-identical to the single engine.
	ss, err := repro.NewSharded(ds.Points, 3, repro.WithScale(re.Scale()))
	if err != nil {
		log.Fatal(err)
	}
	ts2 := httptest.NewServer(server.New(ss).Handler())
	defer ts2.Close()
	var shardedAns struct {
		IDs []int `json:"ids"`
	}
	post(ts2.URL+"/v1/rknn", `{"id": 42, "k": 10}`, &shardedAns)
	fmt.Printf("sharded R10NN(42) = %v across %d shards\n", shardedAns.IDs, ss.Shards())
	for _, si := range ss.ShardStats() {
		fmt.Printf("  shard %d: %d points, %d queries\n", si.Shard, si.Points, si.Queries)
	}

	// Per-query tracing: share a ring between the sharded engine and its
	// server, then ask one query to explain itself. ?debug=1 returns the
	// span tree inline — the root HTTP span, the pin of the shard set, one
	// scatter span per shard holding the core scan/filter/verify stages
	// (with the paper's work counters as attributes), and the merge. The
	// same trace stays browsable in the ring via /v1/admin/traces.
	ring := trace.NewRing(64)
	ss.EnableTracing(ring)
	tsTraced := httptest.NewServer(server.New(ss, server.WithTracing(ring, 0.1)).Handler())
	defer tsTraced.Close()
	var explained struct {
		IDs   []int            `json:"ids"`
		Trace *trace.TraceJSON `json:"trace"`
	}
	post(tsTraced.URL+"/v1/rknn?debug=1", `{"id": 42, "k": 10}`, &explained)
	fmt.Printf("traced R10NN(42) = %v, trace %s:\n", explained.IDs, explained.Trace.TraceID)
	printSpan(explained.Trace.Root, 1)
	var listing struct {
		Total  uint64          `json:"total"`
		Traces []trace.Summary `json:"traces"`
	}
	if err := getDecode(tsTraced.URL+"/v1/admin/traces", &listing); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace ring retains %d trace(s); latest root %q took %dus\n",
		listing.Total, listing.Traces[0].Root, listing.Traces[0].DurationUS)

	// Live operations: SLO error budgets, workload analytics, and the
	// windowed views `rknn top` renders. `rknn serve -slo-latency
	// "p99<25ms" -slo-availability 99.9` wires the same objectives; here
	// the availability target is an absurd 99.99% so a handful of bad
	// requests visibly burns the budget.
	slo, err := telemetry.NewSLO(telemetry.SLOConfig{Objectives: []telemetry.SLOObjective{
		telemetry.LatencyObjective(0.99, 0.025),
		telemetry.AvailabilityObjective(0.9999),
	}})
	if err != nil {
		log.Fatal(err)
	}
	live, err := repro.New(ds.Points, repro.WithScale(re.Scale()))
	if err != nil {
		log.Fatal(err)
	}
	reg4 := telemetry.NewRegistry()
	live.EnableTelemetry(reg4)
	ts4 := httptest.NewServer(server.New(live, server.WithRegistry(reg4), server.WithSLO(slo)).Handler())
	defer ts4.Close()

	// Steady traffic: a spread of query points so the Space-Saving sketch
	// has distinct grid-cell signatures to rank, plus a repeated hot spot.
	for i := 0; i < 40; i++ {
		var ans struct {
			IDs []int `json:"ids"`
		}
		post(ts4.URL+"/v1/rknn", fmt.Sprintf(`{"id": %d, "k": 10}`, (i%5)*13), &ans)
	}
	var an struct {
		Window string `json:"window"`
		Top    []struct {
			Signature   string  `json:"signature"`
			Count       uint64  `json:"count"`
			ErrBound    uint64  `json:"count_error_bound"`
			MeanLatency float64 `json:"mean_latency_seconds"`
		} `json:"top"`
	}
	if err := getDecode(ts4.URL+"/v1/admin/analytics?n=3", &an); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hot query regions (%s window):\n", an.Window)
	for _, hot := range an.Top {
		fmt.Printf("  %-28s count %d±%d  mean %.1fms\n",
			hot.Signature, hot.Count, hot.ErrBound, 1000*hot.MeanLatency)
	}

	// Healthy so far: both objectives hold, the budget is whole.
	var sloState struct {
		Degraded   bool `json:"degraded"`
		Objectives []struct {
			Name            string             `json:"name"`
			Objective       string             `json:"objective"`
			BudgetRemaining float64            `json:"error_budget_remaining_ratio"`
			BurnRates       map[string]float64 `json:"burn_rates"`
		} `json:"objectives"`
	}
	if err := getDecode(ts4.URL+"/v1/admin/slo", &sloState); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("slo degraded: %v\n", sloState.Degraded)

	// Now an incident: a burst of bad requests (unknown ids) against the
	// 99.99%% availability target. The multi-window fast-burn rule pages —
	// both the 1m and 5m burn rates blow past the 14.4x threshold — and
	// /healthz?slo=1 starts answering 503 so a readiness probe sheds
	// traffic, while the plain liveness /healthz stays 200.
	for i := 0; i < 10; i++ {
		resp, err := http.Post(ts4.URL+"/v1/rknn", "application/json",
			strings.NewReader(`{"id": 999999, "k": 10}`))
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
	}
	if err := getDecode(ts4.URL+"/v1/admin/slo", &sloState); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after the burst, slo degraded: %v\n", sloState.Degraded)
	for _, o := range sloState.Objectives {
		fmt.Printf("  %-13s (%s)  budget remaining %.3f  burn 1m=%.0fx 5m=%.0fx\n",
			o.Name, o.Objective, o.BudgetRemaining, o.BurnRates["1m"], o.BurnRates["5m"])
	}
	probe, err := http.Get(ts4.URL + "/healthz?slo=1")
	if err != nil {
		log.Fatal(err)
	}
	probe.Body.Close()
	alive, err := http.Get(ts4.URL + "/healthz")
	if err != nil {
		log.Fatal(err)
	}
	alive.Body.Close()
	fmt.Printf("/healthz?slo=1 -> %d (readiness sheds traffic), /healthz -> %d (liveness holds)\n",
		probe.StatusCode, alive.StatusCode)
	fmt.Println("run `rknn top -addr <host:port>` against a live daemon for this as a refreshing dashboard")

	// Distributed serving: the same three-way partition, but each shard is
	// a separate daemon answering the compact binary shard protocol — in
	// production, three `rknn shard-serve -shard s -shards 3` processes
	// fronted by one `rknn coordinate`. The partition replays the shard
	// map's assignment sequence (the same replay the CLI and the
	// coordinator's write path use), and every shard engine is pinned to
	// the scale estimated over the WHOLE dataset — the two prerequisites
	// for byte-identical answers.
	sm, err := index.NewShardMap(3)
	if err != nil {
		log.Fatal(err)
	}
	parts := make([][][]float64, 3)
	for range ds.Points {
		g, shard, _ := sm.Assign()
		parts[shard] = append(parts[shard], ds.Points[g])
	}
	specs := make([]repro.ShardSpec, 3)
	for s := 0; s < 3; s++ {
		eng, err := repro.New(parts[s], repro.WithScale(re.Scale()))
		if err != nil {
			log.Fatal(err)
		}
		daemon := httptest.NewServer(server.New(eng, server.WithShardRole(s, 3)).Handler())
		defer daemon.Close()
		specs[s] = repro.ShardSpec{Addrs: []string{daemon.URL}}
	}

	// The coordinator handshakes with each daemon (/v1/shard/info: its
	// description — shard role, configuration, metric identity, ID span —
	// read through the same assembly rule OpenSharded runs on on-disk
	// stores) and then serves the ordinary engine surface, so the standard
	// HTTP server fronts the whole cluster.
	co, err := repro.NewCoordinator(context.Background(), specs)
	if err != nil {
		log.Fatal(err)
	}
	defer co.Close()
	reg5 := telemetry.NewRegistry()
	co.EnableTelemetry(reg5)
	ts5 := httptest.NewServer(server.New(co, server.WithRegistry(reg5)).Handler())
	defer ts5.Close()

	rawBody := func(url, body string) string {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			log.Fatal(err)
		}
		return string(raw)
	}
	clusterAns := rawBody(ts5.URL+"/v1/rknn", `{"id": 42, "k": 10}`)
	localAns := rawBody(ts2.URL+"/v1/rknn", `{"id": 42, "k": 10}`)
	fmt.Printf("cluster R10NN(42) across 3 daemons = %s", clusterAns)
	fmt.Printf("byte-identical to the in-process sharded server: %v\n", clusterAns == localAns)

	// Writes route to each point's home shard by the same assignment
	// replay, so inserted IDs continue the global sequence.
	var clusterIns struct {
		ID int `json:"id"`
	}
	post(ts5.URL+"/v1/points", `{"point": [0.5, 0.5]}`, &clusterIns)
	fmt.Printf("cluster insert assigned id %d (continues the %d-point global sequence)\n",
		clusterIns.ID, len(ds.Points))

	// The coordinator's fan-out telemetry: per-shard request counts and
	// latencies on the same /metrics scrape as the HTTP layer.
	resp, err = http.Get(ts5.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	sc = bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "rknn_remote_shard_requests_total") ||
			strings.HasPrefix(line, "rknn_remote_replica_healthy") {
			fmt.Println("  " + line)
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

// printSpan renders a span tree with durations and the attributes the
// engine attached along the way.
func printSpan(sp trace.SpanJSON, depth int) {
	fmt.Printf("%s%s (%dus)", strings.Repeat("  ", depth), sp.Name, sp.DurationUS)
	if len(sp.Attrs) > 0 {
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%v", k, sp.Attrs[k])
		}
		fmt.Printf("  [%s]", strings.Join(parts, " "))
	}
	fmt.Println()
	for _, c := range sp.Children {
		printSpan(c, depth+1)
	}
}

func getDecode(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func post(url, body string, out any) {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
