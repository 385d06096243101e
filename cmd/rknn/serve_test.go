package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/lsh"
)

// TestServeEndToEnd boots the daemon on an ephemeral port, queries it over
// real HTTP, then cancels the context and checks the graceful shutdown.
func TestServeEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- runServe(ctx, []string{"-addr", "127.0.0.1:0", "-data", "sequoia", "-n", "300", "-t", "8"}, &out, ready)
	}()

	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("runServe exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the server to listen")
	}
	base := "http://" + addr.String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	body := strings.NewReader(`{"id": 5, "k": 10}`)
	resp, err = http.Post(base+"/v1/rknn", "application/json", body)
	if err != nil {
		t.Fatalf("POST /v1/rknn: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rknn status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServe returned %v after shutdown", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for graceful shutdown")
	}
	if !strings.Contains(out.String(), "listening on") || !strings.Contains(out.String(), "shut down cleanly") {
		t.Errorf("serve output missing lifecycle lines:\n%s", out.String())
	}
}

func TestServeFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := runServe(context.Background(), []string{"-h"}, &out, nil); err != nil {
		t.Errorf("runServe(-h) = %v, want nil", err)
	}
	if err := runServe(context.Background(), []string{"-data", "nosuch"}, &out, nil); err == nil {
		t.Error("accepted unknown dataset")
	}
	if err := runServe(context.Background(), []string{"-backend", "nosuch", "-n", "50"}, &out, nil); err == nil {
		t.Error("accepted unknown back-end")
	}
	if err := runServe(context.Background(), []string{"-bogusflag"}, &out, nil); err == nil {
		t.Error("accepted unknown flag")
	}
	// A retired back-end is refused by name before the dataset is read: the
	// error is about the back-end, not about the CSV file that is not there.
	err := runServe(context.Background(), []string{"-backend", "vptree", "-csv", "/nonexistent.csv"}, &out, nil)
	if err == nil || !strings.Contains(err.Error(), `"vptree" was retired`) || !strings.Contains(err.Error(), "covertree, scan or lsh") {
		t.Errorf("runServe(-backend vptree) = %v, want the retirement and the back-ends that remain", err)
	}
}

func TestBuildSearcherOptions(t *testing.T) {
	pts, _, err := loadPoints("", "sequoia", 200, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := buildSearcher(pts, "scan", 6, "", false, false, "")
	if err != nil {
		t.Fatalf("buildSearcher pinned t: %v", err)
	}
	if s.Scale() != 6 {
		t.Errorf("Scale = %g, want 6", s.Scale())
	}
	s, err = buildSearcher(pts, "covertree", 0, "mle", true, false, "")
	if err != nil {
		t.Fatalf("buildSearcher auto t: %v", err)
	}
	if s.Scale() < 1 {
		t.Errorf("auto Scale = %g, want >= 1", s.Scale())
	}
	if _, err := buildSearcher(pts, "covertree", 0, "nosuch", false, false, ""); err == nil {
		t.Error("accepted unknown estimator")
	}
}

// startServe boots the daemon in-process and returns its base URL, its
// output buffer, a cancel for shutdown, and the exit channel.
func startServe(t *testing.T, args []string) (string, *bytes.Buffer, context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- runServe(ctx, args, &out, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr.String(), &out, cancel, done
	case err := <-done:
		cancel()
		t.Fatalf("runServe exited before listening: %v\n%s", err, out.String())
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatal("timed out waiting for the server to listen")
	}
	panic("unreachable")
}

func postJSON(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, b)
	}
	return b
}

func getJSON(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return b
}

// TestServeDurabilityEndToEnd is the acceptance bar for the persistence
// layer, entirely over HTTP: start a durable server with an estimated
// scale, mutate it, cut a snapshot mid-stream, mutate more, stop it with a
// crash-style torn record on the log tail, restart from disk alone — no
// dataset flags — and require byte-identical RkNN responses and an
// identical (never re-estimated) scale parameter.
func TestServeDurabilityEndToEnd(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-data", "uniform", "-n", "300", "-dim", "4",
		"-auto", "mle", "-data-dir", dir}
	base, out, cancel, done := startServe(t, args)

	// Mutate: inserts and deletes before and after a snapshot cut, so
	// recovery must stitch snapshot and write-ahead log together.
	for i := 0; i < 8; i++ {
		postJSON(t, base+"/v1/points", fmt.Sprintf(`{"point":[0.%d1,0.2,0.3,0.4]}`, i))
	}
	for _, id := range []int{3, 150} {
		req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/points/%d", base, id), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %d: status %d", id, resp.StatusCode)
		}
	}
	postJSON(t, base+"/v1/admin/snapshot", "")
	for i := 0; i < 5; i++ {
		postJSON(t, base+"/v1/points", fmt.Sprintf(`{"point":[0.9,0.%d2,0.1,0.5]}`, i))
	}

	// Reference answers from the never-restarted engine, raw bytes.
	queries := []string{
		`{"id":0,"k":5}`, `{"id":42,"k":10}`, `{"id":299,"k":3}`,
		`{"id":307,"k":5}`, `{"id":311,"k":5}`, // inserted members (311 post-snapshot)
		`{"point":[0.5,0.5,0.5,0.5],"k":7}`,
	}
	want := make([][]byte, len(queries))
	for i, q := range queries {
		want[i] = postJSON(t, base+"/v1/rknn", q)
	}
	var statsBefore struct {
		Engine struct {
			Scale      float64 `json:"scale"`
			Points     int     `json:"points"`
			Generation uint64  `json:"generation"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(getJSON(t, base+"/statsz"), &statsBefore); err != nil {
		t.Fatal(err)
	}
	if statsBefore.Engine.Generation != 2 {
		t.Errorf("generation before restart = %d, want 2", statsBefore.Engine.Generation)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("first server exited with %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("first server did not shut down")
	}

	// Crash signature: a torn half-record on the log tail, as a process
	// killed mid-append would leave. Recovery must discard exactly this.
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("wal files %v, %v", logs, err)
	}
	f, err := os.OpenFile(logs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{99, 0, 0, 0, 42, 42, 42}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart purely from disk: no dataset flags at all.
	base2, out2, cancel2, done2 := startServe(t, []string{"-addr", "127.0.0.1:0", "-data-dir", dir})
	defer func() {
		cancel2()
		<-done2
	}()
	if !strings.Contains(out2.String(), "recovered") || !strings.Contains(out2.String(), "torn tail discarded") {
		t.Errorf("recovery banner missing:\n%s", out2.String())
	}
	for i, q := range queries {
		got := postJSON(t, base2+"/v1/rknn", q)
		if !bytes.Equal(got, want[i]) {
			t.Errorf("query %s after restart:\ngot  %s\nwant %s", q, got, want[i])
		}
	}
	var statsAfter struct {
		Engine struct {
			Scale      float64 `json:"scale"`
			Points     int     `json:"points"`
			Generation uint64  `json:"generation"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(getJSON(t, base2+"/statsz"), &statsAfter); err != nil {
		t.Fatal(err)
	}
	if statsAfter.Engine.Scale != statsBefore.Engine.Scale {
		t.Errorf("scale after recovery %g, want %g (must be restored, not re-estimated)",
			statsAfter.Engine.Scale, statsBefore.Engine.Scale)
	}
	if statsAfter.Engine.Points != statsBefore.Engine.Points {
		t.Errorf("points after recovery %d, want %d", statsAfter.Engine.Points, statsBefore.Engine.Points)
	}
}

// TestServeShardedEndToEnd boots the daemon with -shards over a sharded
// durable store, mutates it over HTTP, restarts purely from disk (with a
// torn WAL tail on one shard), and requires byte-identical responses plus
// per-shard counters in /statsz.
func TestServeShardedEndToEnd(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-data", "uniform", "-n", "250", "-dim", "4",
		"-t", "100", "-plain", "-shards", "3", "-data-dir", dir}
	base, out, cancel, done := startServe(t, args)
	if !strings.Contains(out.String(), "3 shards") {
		t.Errorf("bootstrap banner missing shard count:\n%s", out.String())
	}

	for i := 0; i < 6; i++ {
		postJSON(t, base+"/v1/points", fmt.Sprintf(`{"point":[0.%d1,0.2,0.3,0.4]}`, i))
	}
	postJSON(t, base+"/v1/admin/snapshot", "")
	for i := 0; i < 4; i++ {
		postJSON(t, base+"/v1/points", fmt.Sprintf(`{"point":[0.8,0.%d3,0.2,0.6]}`, i))
	}
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/points/17", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE 17: status %d", resp.StatusCode)
	}

	queries := []string{
		`{"id":0,"k":5}`, `{"id":123,"k":10}`, `{"id":255,"k":5}`, `{"id":258,"k":5}`,
		`{"point":[0.5,0.5,0.5,0.5],"k":7}`,
	}
	want := make([][]byte, len(queries))
	for i, q := range queries {
		want[i] = postJSON(t, base+"/v1/rknn", q)
	}
	var statsBefore struct {
		Engine struct {
			Scale      float64 `json:"scale"`
			Points     int     `json:"points"`
			ShardCount int     `json:"shard_count"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(getJSON(t, base+"/statsz"), &statsBefore); err != nil {
		t.Fatal(err)
	}
	if statsBefore.Engine.ShardCount != 3 {
		t.Errorf("shard_count = %d, want 3", statsBefore.Engine.ShardCount)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("first server exited with %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("first server did not shut down")
	}

	// Crash signature on one shard's log tail.
	logs, err := filepath.Glob(filepath.Join(dir, "shard-*", "wal-*.log"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("wal files %v, %v", logs, err)
	}
	f, err := os.OpenFile(logs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{77, 0, 0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart purely from disk; engine flags must be ignored.
	base2, out2, cancel2, done2 := startServe(t, []string{"-addr", "127.0.0.1:0", "-data-dir", dir, "-shards", "7"})
	defer func() {
		cancel2()
		<-done2
	}()
	if !strings.Contains(out2.String(), "recovered sharded store") || !strings.Contains(out2.String(), "torn tail discarded") {
		t.Errorf("sharded recovery banner missing:\n%s", out2.String())
	}
	for i, q := range queries {
		got := postJSON(t, base2+"/v1/rknn", q)
		if !bytes.Equal(got, want[i]) {
			t.Errorf("query %s after restart:\ngot  %s\nwant %s", q, got, want[i])
		}
	}
	var statsAfter struct {
		Engine struct {
			Scale      float64 `json:"scale"`
			Points     int     `json:"points"`
			ShardCount int     `json:"shard_count"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(getJSON(t, base2+"/statsz"), &statsAfter); err != nil {
		t.Fatal(err)
	}
	if statsAfter.Engine.ShardCount != 3 {
		t.Errorf("recovered shard_count = %d, want 3 (the -shards flag must be ignored on recovery)", statsAfter.Engine.ShardCount)
	}
	if statsAfter.Engine.Points != statsBefore.Engine.Points {
		t.Errorf("points after recovery %d, want %d", statsAfter.Engine.Points, statsBefore.Engine.Points)
	}
	if statsAfter.Engine.Scale != statsBefore.Engine.Scale {
		t.Errorf("scale after recovery %g, want %g", statsAfter.Engine.Scale, statsBefore.Engine.Scale)
	}
}

// TestServeMetricsAndSlowlog boots the daemon with the observability flags,
// scrapes /metrics and /v1/admin/slowlog over real HTTP, and checks the
// shutdown metrics summary.
func TestServeMetricsAndSlowlog(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- runServe(ctx, []string{
			"-addr", "127.0.0.1:0", "-data", "sequoia", "-n", "300", "-t", "8",
			"-slowlog-threshold", "0s", "-slowlog-size", "8",
		}, &out, ready)
	}()

	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("runServe exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the server to listen")
	}
	base := "http://" + addr.String()

	resp, err := http.Post(base+"/v1/rknn", "application/json", strings.NewReader(`{"id": 5, "k": 10}`))
	if err != nil {
		t.Fatalf("POST /v1/rknn: %v", err)
	}
	resp.Body.Close()

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	metrics := string(raw)
	for _, want := range []string{
		`rknn_queries_total{backend="covertree",op="rknn"} 1`,
		"rknn_candidates_excluded_total",
		"rknn_candidates_lazy_settled_total",
		`rknn_http_requests_total{route="/v1/rknn"} 1`,
		"rknn_points 300",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	resp, err = http.Get(base + "/v1/admin/slowlog")
	if err != nil {
		t.Fatalf("GET /v1/admin/slowlog: %v", err)
	}
	var slowlog struct {
		Capacity int `json:"capacity"`
		Entries  []struct {
			Route string `json:"route"`
		} `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&slowlog); err != nil {
		t.Fatalf("decoding slowlog: %v", err)
	}
	resp.Body.Close()
	if slowlog.Capacity != 8 || len(slowlog.Entries) == 0 {
		t.Errorf("slowlog = %+v, want capacity 8 with entries", slowlog)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServe returned %v after shutdown", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for graceful shutdown")
	}
	for _, want := range []string{"rknn serve: pruning:", "/v1/rknn", "shut down cleanly"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("shutdown output missing %q:\n%s", want, out.String())
		}
	}
}

// TestServeLSHDurableEndToEnd is the approximate tier's acceptance run:
// `rknn serve -backend lsh -data-dir` serves approximate-marked responses,
// survives mutate → snapshot → kill → restart purely from disk, restores
// its hash tables from the native structure blob without a single re-hash
// (pinned by the lsh.HashCalls counter), and answers byte-identically.
func TestServeLSHDurableEndToEnd(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-data", "uniform", "-n", "400", "-dim", "6",
		"-backend", "lsh", "-t", "8", "-data-dir", dir}
	base, out, cancel, done := startServe(t, args)
	if !strings.Contains(out.String(), "lsh (approximate) back-end") {
		t.Errorf("banner does not mark the back-end approximate:\n%s", out.String())
	}

	// Mutations: logged inserts and a delete, then a snapshot cut so the
	// restart restores purely from the native blob (empty log).
	for i := 0; i < 6; i++ {
		postJSON(t, base+"/v1/points", fmt.Sprintf(`{"point":[0.%d1,0.2,0.3,0.4,0.5,0.6]}`, i))
	}
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/points/7", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE 7: status %d", resp.StatusCode)
	}
	postJSON(t, base+"/v1/admin/snapshot", "")

	queries := []string{
		`{"id":0,"k":5}`, `{"id":42,"k":10}`, `{"id":399,"k":5}`,
		`{"id":403,"k":5}`, // inserted member
		`{"point":[0.5,0.5,0.5,0.5,0.5,0.5],"k":7}`,
	}
	want := make([][]byte, len(queries))
	for i, q := range queries {
		want[i] = postJSON(t, base+"/v1/rknn", q)
		var marked struct {
			Approximate bool `json:"approximate"`
		}
		if err := json.Unmarshal(want[i], &marked); err != nil || !marked.Approximate {
			t.Errorf("response to %s not marked approximate: %s (%v)", q, want[i], err)
		}
	}
	var statsBefore struct {
		Engine struct {
			Scale       float64 `json:"scale"`
			Points      int     `json:"points"`
			Approximate bool    `json:"approximate"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(getJSON(t, base+"/statsz"), &statsBefore); err != nil {
		t.Fatal(err)
	}
	if !statsBefore.Engine.Approximate {
		t.Error("statsz does not mark the engine approximate")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("first server exited with %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("first server did not shut down")
	}

	// Restart purely from disk. The snapshot was the last mutation, so the
	// log is empty and recovery must not hash anything: the tables come
	// from the native blob byte-for-byte.
	hashBefore := lsh.HashCalls()
	base2, out2, cancel2, done2 := startServe(t, []string{"-addr", "127.0.0.1:0", "-data-dir", dir})
	defer func() {
		cancel2()
		<-done2
	}()
	if calls := lsh.HashCalls() - hashBefore; calls != 0 {
		t.Errorf("recovery performed %d hash computations, want 0 (native structure restore)", calls)
	}
	if !strings.Contains(out2.String(), "recovered") {
		t.Errorf("recovery banner missing:\n%s", out2.String())
	}
	if !strings.Contains(out2.String(), "lsh (approximate) back-end") {
		t.Errorf("recovered banner does not mark the back-end approximate:\n%s", out2.String())
	}
	for i, q := range queries {
		got := postJSON(t, base2+"/v1/rknn", q)
		if !bytes.Equal(got, want[i]) {
			t.Errorf("query %s after restart:\ngot  %s\nwant %s", q, got, want[i])
		}
	}
	var statsAfter struct {
		Engine struct {
			Scale       float64 `json:"scale"`
			Points      int     `json:"points"`
			Approximate bool    `json:"approximate"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(getJSON(t, base2+"/statsz"), &statsAfter); err != nil {
		t.Fatal(err)
	}
	if statsAfter.Engine.Scale != statsBefore.Engine.Scale || statsAfter.Engine.Points != statsBefore.Engine.Points {
		t.Errorf("recovered engine shape (t=%g, n=%d), want (t=%g, n=%d)",
			statsAfter.Engine.Scale, statsAfter.Engine.Points, statsBefore.Engine.Scale, statsBefore.Engine.Points)
	}
	if !statsAfter.Engine.Approximate {
		t.Error("recovered statsz does not mark the engine approximate")
	}

	// The recall gauge, the one family only approximate engines register,
	// is live on the recovered engine's /metrics.
	metrics := string(getJSON(t, base2+"/metrics"))
	if !strings.Contains(metrics, "rknn_recall_estimate{backend=\"lsh\"}") {
		t.Error("/metrics missing rknn_recall_estimate for the recovered lsh engine")
	}
}

// TestServeTracingAndDebugListener boots the daemon with tracing and the
// private debug listener, drives a ?debug=1 query on a sharded engine, reads
// the trace back through the admin surface and the slowlog linkage, and hits
// pprof and expvar on the second listener.
func TestServeTracingAndDebugListener(t *testing.T) {
	args := []string{"-addr", "127.0.0.1:0", "-data", "uniform", "-n", "250", "-dim", "4",
		"-t", "100", "-shards", "2", "-slowlog-threshold", "0s",
		"-debug-addr", "127.0.0.1:0"}
	base, out, cancel, done := startServe(t, args)
	defer func() {
		cancel()
		<-done
	}()

	raw := postJSON(t, base+"/v1/rknn?debug=1", `{"id":5,"k":10}`)
	var explained struct {
		IDs   []int `json:"ids"`
		Trace *struct {
			TraceID string `json:"trace_id"`
			Root    struct {
				Name string `json:"name"`
			} `json:"root"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(raw, &explained); err != nil {
		t.Fatalf("decoding ?debug=1 response: %v\n%s", err, raw)
	}
	if explained.Trace == nil || explained.Trace.Root.Name != "http./v1/rknn" {
		t.Fatalf("?debug=1 response lacks an http root trace: %s", raw)
	}
	for _, span := range []string{"facade.pin", "core.rknn", "shard.scatter", "core.scan", "core.filter", "core.verify"} {
		if !strings.Contains(string(raw), span) {
			t.Errorf("?debug=1 trace missing %s span:\n%s", span, raw)
		}
	}
	if got := strings.Count(string(raw), `"core.rknn"`); got != 1 {
		t.Errorf("?debug=1 trace holds %d core.rknn spans, want the one run over the merged shard streams:\n%s", got, raw)
	}
	if strings.Contains(string(raw), "shard.merge") {
		t.Errorf("?debug=1 trace still holds the retired shard.merge span:\n%s", raw)
	}

	var listing struct {
		Total  uint64 `json:"total"`
		Traces []struct {
			TraceID string `json:"trace_id"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(getJSON(t, base+"/v1/admin/traces"), &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Total == 0 || len(listing.Traces) == 0 {
		t.Fatalf("/v1/admin/traces retained nothing: %+v", listing)
	}
	full := getJSON(t, base+"/v1/admin/traces/"+explained.Trace.TraceID)
	if !strings.Contains(string(full), "scan_depth") {
		t.Errorf("full trace lacks core stats attrs:\n%s", full)
	}

	// Slowlog entries join back to the trace ring (threshold 0s: all slow).
	var slowlog struct {
		Entries []struct {
			TraceID   string `json:"trace_id"`
			RequestID string `json:"request_id"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(getJSON(t, base+"/v1/admin/slowlog"), &slowlog); err != nil {
		t.Fatal(err)
	}
	linked := false
	for _, e := range slowlog.Entries {
		if e.TraceID != "" && e.RequestID != "" {
			linked = true
		}
	}
	if !linked {
		t.Errorf("no slowlog entry carries trace linkage: %+v", slowlog.Entries)
	}

	// The private listener announces itself on stdout; pprof and expvar
	// answer there, and only there.
	var dbgAddr string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "debug endpoints") {
			fields := strings.Fields(line)
			dbgAddr = fields[len(fields)-1]
		}
	}
	if dbgAddr == "" {
		t.Fatalf("no debug listener banner in output:\n%s", out.String())
	}
	if body := getJSON(t, "http://"+dbgAddr+"/debug/pprof/"); !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index does not list profiles:\n%s", body)
	}
	if body := getJSON(t, "http://"+dbgAddr+"/debug/vars"); !strings.Contains(string(body), "memstats") {
		t.Errorf("expvar output lacks memstats:\n%s", body)
	}
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof must not be served on the public listener")
	}

	// Runtime introspection gauges ride the public /metrics.
	metrics := string(getJSON(t, base+"/metrics"))
	for _, want := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_cycles_total"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing runtime gauge %s", want)
		}
	}
}
