// Cluster conformance: the networked scatter-gather (shard daemons behind
// a Coordinator) against the in-process sharded engine. The bar is
// byte-identity of HTTP response bodies — same answers, same stats, same
// error strings — across {unsharded, in-process S=1, in-process S=3,
// networked S=3} over the binary shard protocol, held through
// interleaved inserts and deletes routed through the
// coordinator. Plus the distributed-tracing join (coordinator trace IDs
// resolve on the daemons), replica failover under a mid-stream kill, and
// the binary endpoint's Content-Type gate.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	repro "repro"
	"repro/internal/index"
	"repro/internal/indextest"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// splitShards replays the cluster hash assignment over the dataset and
// returns each shard's points in local-ID order — what `rknn shard-serve`
// computes for its own partition.
func splitShards(t testing.TB, pts [][]float64, shards int) [][][]float64 {
	t.Helper()
	m, err := index.NewShardMap(shards)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][][]float64, shards)
	for range pts {
		g, s, _ := m.Assign()
		out[s] = append(out[s], pts[g])
	}
	return out
}

// cluster is one networked test cluster: per-shard daemons (each replica
// its own HTTP server over the shard's engine), the coordinator, and the
// coordinator's own HTTP server.
type cluster struct {
	co      *repro.Coordinator
	ts      *httptest.Server     // coordinator HTTP server
	daemons [][]*httptest.Server // [shard][replica]
	engines []*repro.Searcher    // per-shard engine (shared by its replicas)
}

// startCluster partitions pts over S daemons (replicas HTTP servers per
// shard, all replicas of a shard serving the same engine) and fronts them
// with a Coordinator. Daemon tracing runs at sample 0 so retention of
// coordinator traces proves upstream-sampling propagation, not local luck.
func startCluster(t testing.TB, pts [][]float64, S, replicas int, coOpts ...repro.CoordinatorOption) *cluster {
	t.Helper()
	parts := splitShards(t, pts, S)
	c := &cluster{daemons: make([][]*httptest.Server, S), engines: make([]*repro.Searcher, S)}
	specs := make([]repro.ShardSpec, S)
	for s := 0; s < S; s++ {
		eng, err := repro.New(parts[s], repro.WithScale(100))
		if err != nil {
			t.Fatalf("shard %d engine: %v", s, err)
		}
		c.engines[s] = eng
		for r := 0; r < replicas; r++ {
			ring := trace.NewRing(64)
			ds := httptest.NewServer(New(eng,
				WithShardRole(s, S),
				WithTracing(ring, 0),
				WithSlowLog(0, 64)).Handler())
			t.Cleanup(ds.Close)
			c.daemons[s] = append(c.daemons[s], ds)
			specs[s].Addrs = append(specs[s].Addrs, ds.URL)
		}
	}
	opts := append([]repro.CoordinatorOption{repro.WithHealthInterval(0)}, coOpts...)
	co, err := repro.NewCoordinator(context.Background(), specs, opts...)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(func() { co.Close() })
	c.co = co

	reg := telemetry.NewRegistry()
	co.EnableTelemetry(reg)
	coRing := trace.NewRing(64)
	c.ts = httptest.NewServer(New(co, WithRegistry(reg), WithTracing(coRing, 1)).Handler())
	t.Cleanup(c.ts.Close)
	return c
}

// rawCall performs one HTTP exchange and returns the status and the exact
// response body bytes — the unit of comparison for the whole suite.
func rawCall(t *testing.T, method, url string, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// identical sends one request to every server and fails unless every
// response (status and body bytes) is identical to the first server's.
func identical(t *testing.T, servers map[string]string, method, path, body string) {
	t.Helper()
	var (
		refName string
		refCode int
		refBody []byte
	)
	for name, base := range servers {
		code, b := rawCall(t, method, base+path, body)
		if refName == "" {
			refName, refCode, refBody = name, code, b
			continue
		}
		if code != refCode || !bytes.Equal(b, refBody) {
			t.Errorf("%s %s %s: %s answered %d %q, %s answered %d %q",
				method, path, body, refName, refCode, refBody, name, code, b)
		}
	}
}

// TestClusterByteIdentity is the tentpole conformance test: the networked
// cluster's /v1 responses are byte-identical to the in-process sharded
// engine's at the same shard count — and all shard counts agree on the
// answer bodies — before and after a write sequence (inserts, a batch,
// deletes) applied identically through every server's own HTTP API. The
// subtest is named for the shard protocol it runs over, the only one.
func TestClusterByteIdentity(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		pts := indextest.RandPoints(120, 3, 17)

		single, err := repro.New(pts, repro.WithScale(100))
		if err != nil {
			t.Fatal(err)
		}
		singleTS := httptest.NewServer(New(single).Handler())
		t.Cleanup(singleTS.Close)

		sharded1, err := repro.NewSharded(pts, 1, repro.WithScale(100))
		if err != nil {
			t.Fatal(err)
		}
		sharded1TS := httptest.NewServer(New(sharded1).Handler())
		t.Cleanup(sharded1TS.Close)

		sharded3, err := repro.NewSharded(pts, 3, repro.WithScale(100))
		if err != nil {
			t.Fatal(err)
		}
		sharded3TS := httptest.NewServer(New(sharded3).Handler())
		t.Cleanup(sharded3TS.Close)

		cl1 := startCluster(t, pts, 1, 1)
		cl3 := startCluster(t, pts, 3, 1)

		// Answer bodies must agree everywhere; stats bodies only within a
		// shard count (work counters sum per shard, so S=1 and S=3
		// legitimately report different scan depths for the same answer).
		all := map[string]string{
			"unsharded": singleTS.URL,
			"sharded-1": sharded1TS.URL,
			"sharded-3": sharded3TS.URL,
			"cluster-1": cl1.ts.URL,
			"cluster-3": cl3.ts.URL,
		}
		s1 := map[string]string{"unsharded": singleTS.URL, "sharded-1": sharded1TS.URL, "cluster-1": cl1.ts.URL}
		s3 := map[string]string{"sharded-3": sharded3TS.URL, "cluster-3": cl3.ts.URL}

		compare := func(t *testing.T) {
			t.Helper()
			for _, qid := range []int{0, 7, 42, 99, 119} {
				identical(t, all, "POST", "/v1/rknn", fmt.Sprintf(`{"id":%d,"k":5}`, qid))
			}
			identical(t, all, "POST", "/v1/rknn", `{"point":[0.4,0.5,0.6],"k":4}`)
			identical(t, all, "POST", "/v1/knn", `{"point":[0.1,0.9,0.2],"k":6}`)
			// Error surfaces must match byte for byte too.
			identical(t, all, "POST", "/v1/rknn", `{"id":3}`)
			identical(t, all, "POST", "/v1/rknn", `{"id":-5,"k":3}`)
			identical(t, all, "POST", "/v1/rknn", `{"id":99999,"k":3}`)
			identical(t, all, "POST", "/v1/knn", `{"point":[0.1],"k":3}`)
			// Stats ride along within a shard count.
			for _, qid := range []int{7, 42} {
				identical(t, s1, "POST", "/v1/rknn", fmt.Sprintf(`{"id":%d,"k":5,"stats":true}`, qid))
				identical(t, s3, "POST", "/v1/rknn", fmt.Sprintf(`{"id":%d,"k":5,"stats":true}`, qid))
			}
			identical(t, s3, "POST", "/v1/rknn", `{"point":[0.2,0.2,0.8],"k":5,"stats":true}`)
		}
		compare(t)
		if t.Failed() {
			t.Fatal("pre-mutation conformance failed; skipping mutations")
		}

		// The same write sequence through every server's public API: the
		// write responses (assigned IDs) must agree, and so must every
		// query afterwards — including querying a deleted member.
		ins := indextest.RandPoints(5, 3, 101)
		for _, p := range ins {
			raw, _ := json.Marshal(map[string]any{"point": p})
			identical(t, all, "POST", "/v1/points", string(raw))
		}
		batch := indextest.RandPoints(6, 3, 202)
		rawBatch, _ := json.Marshal(map[string]any{"points": batch})
		identical(t, all, "POST", "/v1/points/batch", string(rawBatch))
		identical(t, all, "DELETE", "/v1/points/3", "")
		identical(t, all, "DELETE", "/v1/points/124", "")
		identical(t, all, "DELETE", "/v1/points/3", "")    // already gone: 404 everywhere
		identical(t, all, "DELETE", "/v1/points/9999", "") // never assigned
		// The route refuses an empty batch before any engine sees it; at the
		// library surface it is a no-op on every engine, the coordinator
		// included.
		identical(t, all, "POST", "/v1/points/batch", `{"points":[]}`)
		for name, eng := range map[string]Engine{"unsharded": single, "sharded-3": sharded3, "cluster-1": cl1.co, "cluster-3": cl3.co} {
			if ids, err := eng.InsertBatchContext(context.Background(), nil); ids != nil || err != nil {
				t.Errorf("%s: empty InsertBatchContext = (%v, %v), want a no-op", name, ids, err)
			}
		}

		compare(t)
		identical(t, all, "POST", "/v1/rknn", `{"id":3,"k":5}`)   // deleted member
		identical(t, all, "POST", "/v1/rknn", `{"id":124,"k":5}`) // deleted insert
		for _, qid := range []int{120, 125, 130} {                // inserted members
			identical(t, all, "POST", "/v1/rknn", fmt.Sprintf(`{"id":%d,"k":5}`, qid))
		}

		// The coordinator's view of the cluster size tracks the writes.
		wantLen := 120 + 11 - 2
		if got := cl3.co.Len(); got != wantLen {
			t.Errorf("cluster Len = %d, want %d", got, wantLen)
		}
	})
}

// TestClusterTracePropagation pins the distributed-tracing join: a
// ?debug=1 query on the coordinator returns a span tree whose shard.scatter
// spans carry remote.call children, and the coordinator's trace ID resolves
// on every shard daemon's trace ring (the daemons joined the same trace via
// the propagated traceparent, and honored the propagated X-Request-ID).
func TestClusterTracePropagation(t *testing.T) {
	pts := indextest.RandPoints(150, 3, 23)
	cl := startCluster(t, pts, 3, 1)

	resp, err := http.Post(cl.ts.URL+"/v1/rknn?debug=1", "application/json",
		strings.NewReader(`{"id":5,"k":8}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	reqID := resp.Header.Get("X-Request-ID")
	if reqID == "" {
		t.Fatal("coordinator response missing X-Request-ID")
	}
	var out struct {
		IDs   []int            `json:"ids"`
		Trace *trace.TraceJSON `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("?debug=1 response carries no trace")
	}
	scatters := findJSONSpans(out.Trace.Root, "shard.scatter")
	if len(scatters) != 3 {
		t.Fatalf("shard.scatter spans = %d, want 3", len(scatters))
	}
	for _, sp := range scatters {
		if len(findJSONSpans(sp, "remote.call")) == 0 {
			t.Errorf("shard.scatter span (shard %v) has no remote.call child", sp.Attrs["shard"])
		}
	}
	if got := len(findJSONSpans(out.Trace.Root, "remote.call")); got < 3 {
		t.Errorf("remote.call spans = %d, want >= 3", got)
	}

	// The same trace ID must resolve on every daemon: the coordinator's
	// fan-out carried a sampled traceparent, so each daemon (tracing at
	// sample 0) retained its half of the distributed trace.
	for s, reps := range cl.daemons {
		var full trace.TraceJSON
		if got := call(t, http.MethodGet, reps[0].URL+"/v1/admin/traces/"+out.Trace.TraceID, nil, &full); got != http.StatusOK {
			t.Errorf("shard %d: coordinator trace %s does not resolve: status %d", s, out.Trace.TraceID, got)
			continue
		}
		if full.Root.Name != "http./v1/binary" {
			t.Errorf("shard %d: daemon trace root %q, want http./v1/binary", s, full.Root.Name)
		}

		// X-Request-ID propagated too: the daemon's slowlog entries for this
		// trace carry the coordinator's request ID, not a fresh one.
		var slowlog struct {
			Entries []struct {
				TraceID   string `json:"trace_id"`
				RequestID string `json:"request_id"`
			} `json:"entries"`
		}
		if got := call(t, http.MethodGet, reps[0].URL+"/v1/admin/slowlog", nil, &slowlog); got != http.StatusOK {
			t.Fatalf("shard %d: GET slowlog: status %d", s, got)
		}
		matched := false
		for _, e := range slowlog.Entries {
			if e.TraceID == out.Trace.TraceID {
				matched = true
				if e.RequestID != reqID {
					t.Errorf("shard %d: daemon request id %q, coordinator sent %q", s, e.RequestID, reqID)
				}
			}
		}
		if !matched {
			t.Errorf("shard %d: no slowlog entry for trace %s", s, out.Trace.TraceID)
		}
	}
}

// TestClusterReplicaFailover kills one replica in the middle of a query
// stream: with per-request retry across replicas, not one query may fail,
// and the health gauge must report the dead replica down once the health
// loop notices.
func TestClusterReplicaFailover(t *testing.T) {
	pts := indextest.RandPoints(140, 3, 31)
	cl := startCluster(t, pts, 2, 2,
		repro.WithHealthInterval(25*time.Millisecond),
		repro.WithRetries(3, 2*time.Millisecond))

	ss, err := repro.NewSharded(pts, 2, repro.WithScale(100))
	if err != nil {
		t.Fatal(err)
	}
	ask := func(qid int) {
		t.Helper()
		got, err := cl.co.ReverseKNN(qid, 5)
		if err != nil {
			t.Fatalf("query %d failed after replica kill: %v", qid, err)
		}
		want, err := ss.ReverseKNN(qid, 5)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("query %d = %v, in-process %v", qid, got, want)
		}
	}
	for qid := 0; qid < 40; qid++ {
		ask(qid)
	}
	// Kill shard 0's read replica mid-stream. Round-robin guarantees later
	// reads pick the dead address; they must fail over, not fail.
	cl.daemons[0][1].CloseClientConnections()
	cl.daemons[0][1].Close()
	for qid := 40; qid < 120; qid++ {
		ask(qid)
	}

	// The health loop marks the dead replica down, and the gauge says so.
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, body := rawCall(t, http.MethodGet, cl.ts.URL+"/metrics", "")
		down := false
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "rknn_remote_replica_healthy") &&
				strings.Contains(line, `shard="0"`) && strings.Contains(line, `replica="1"`) &&
				strings.HasSuffix(strings.TrimSpace(line), " 0") {
				down = true
			}
		}
		if down {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("health gauge never reported the killed replica down")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The fan-out telemetry saw the retries.
	_, body := rawCall(t, http.MethodGet, cl.ts.URL+"/metrics", "")
	for _, want := range []string{
		"rknn_remote_shard_requests_total",
		"rknn_remote_shard_request_duration_seconds",
		"rknn_remote_shard_retries_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("coordinator /metrics missing %s", want)
		}
	}
}

// TestBinaryEndpointContentType pins the 415 gate: a request without the
// wire Content-Type must be refused before the frame decoder ever runs,
// and a well-typed but malformed frame is a clean 400.
func TestBinaryEndpointContentType(t *testing.T) {
	s, _, ts := newTestServer(t)
	_ = s

	resp, err := http.Post(ts.URL+"/v1/binary", "application/json", strings.NewReader(`{"id":1,"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("JSON body on /v1/binary: status %d, want 415", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, wire.ContentType) {
		t.Errorf("415 body %q should name the expected Content-Type (decode err %v)", e.Error, err)
	}

	resp2, err := http.Post(ts.URL+"/v1/binary", wire.ContentType, bytes.NewReader([]byte{0xde, 0xad, 0xbe, 0xef}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage frame: status %d, want 400", resp2.StatusCode)
	}

	// Missing Content-Type entirely: also 415.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/binary", bytes.NewReader(wire.AppendRkNNIDRequest(nil, 1, 3)))
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("untyped frame: status %d, want 415", resp3.StatusCode)
	}
}

// postFrame posts one wire frame to a server's /v1/binary endpoint and
// returns the response body (a frame on 200).
func postFrame(t *testing.T, base string, frame []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/binary", wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestBinaryCountBatch drives the count op through a daemon's /v1/binary
// endpoint: one small integer per probe, equal to the brute-force strict
// count capped at the probe's limit (radius ties excluded, the skipped
// member excluded), and a malformed probe answered by a wire error frame,
// not by counts.
func TestBinaryCountBatch(t *testing.T) {
	s, _, ts := newTestServer(t)
	ids := make([]int, s.Len())
	for i := range ids {
		ids[i] = i
	}
	pts := s.MemberPoints(ids...)
	dist := func(a, b []float64) float64 { return repro.Euclidean.Distance(a, b) }
	var probes []wire.CountQuery
	var want []int
	for _, x := range []int{0, 17, 99} {
		tie := dist(pts[x], pts[(x+1)%len(pts)]) // an existing distance: strictness
		for _, r := range []float64{0, tie, 0.3, 10} {
			for _, limit := range []int{1, 4, 1000} {
				for _, skip := range []int{-1, x} {
					n := 0
					for id, p := range pts {
						if id != skip && dist(pts[x], p) < r {
							n++
						}
					}
					probes = append(probes, wire.CountQuery{Point: pts[x], Radius: r, Limit: limit, Skip: skip})
					want = append(want, min(n, limit))
				}
			}
		}
	}
	status, body := postFrame(t, ts.URL, wire.AppendCountBatchRequest(nil, probes))
	if status != http.StatusOK {
		t.Fatalf("count batch: status %d, body %q", status, body)
	}
	got, err := wire.DecodeCountBatchResponse(body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("counts = %v, brute force %v", got, want)
	}

	for name, q := range map[string]wire.CountQuery{
		"dimension mismatch": {Point: []float64{0.5}, Radius: 1, Limit: 3, Skip: -1},
		"zero limit":         {Point: pts[0], Radius: 1, Limit: 0, Skip: -1},
	} {
		status, body := postFrame(t, ts.URL, wire.AppendCountBatchRequest(nil, []wire.CountQuery{q}))
		if status != http.StatusOK {
			t.Fatalf("%s: status %d, want an error frame on 200", name, status)
		}
		_, err := wire.DecodeCountBatchResponse(body)
		if re, ok := err.(*wire.RemoteError); !ok || re.Code != wire.ErrBadRequest {
			t.Errorf("%s: want RemoteError(bad request), got %#v", name, err)
		}
	}
}

// oldDaemonTransport answers count frames the way a daemon built before
// the count op existed does — its decoder rejects the unknown op, so the
// handler renders 400 {"error":"malformed frame: ..."} — and passes
// everything else through.
type oldDaemonTransport struct{ base http.RoundTripper }

func (o oldDaemonTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil && strings.HasSuffix(req.URL.Path, "/v1/binary") {
		frame, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(frame))
		if len(frame) >= 2 && wire.Op(frame[1]) == wire.OpCountBatch {
			msg := fmt.Sprintf(`{"error":"malformed frame: wire: unknown op %d"}`, wire.OpCountBatch)
			return &http.Response{
				StatusCode: http.StatusBadRequest,
				Header:     http.Header{"Content-Type": []string{"application/json"}},
				Body:       io.NopCloser(strings.NewReader(msg)),
				Request:    req,
			}, nil
		}
	}
	return o.base.RoundTrip(req)
}

// TestCoordinatorAgainstOldDaemon pins the upgrade-order failure mode: a
// coordinator that verifies by count in front of daemons that predate the
// op gets one clean, diagnosable error per query — no panic, no retries
// against the other replicas (a 4xx would fail identically everywhere),
// no partial answer — while queries that need no cross-shard verification
// keep working.
func TestCoordinatorAgainstOldDaemon(t *testing.T) {
	pts := indextest.RandPoints(150, 3, 53)
	cl := startCluster(t, pts, 3, 1, repro.WithTransport(oldDaemonTransport{base: http.DefaultTransport}))
	_, err := cl.co.ReverseKNN(5, 8)
	if err == nil {
		t.Fatal("query verified against daemons without the count op")
	}
	for _, want := range []string{"rknnd: ", "upgrade daemons before coordinators", "unknown op"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if _, err := cl.co.KNNContext(context.Background(), pts[5], 4); err != nil {
		t.Errorf("forward kNN needs no count op, got %v", err)
	}
	status, body := rawCall(t, "POST", cl.ts.URL+"/v1/rknn", `{"id":5,"k":8}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "upgrade daemons before coordinators") {
		t.Errorf("front door answered %d %q, want a 400 naming the upgrade order", status, body)
	}
}

// TestCoordinatorHandshake pins the startup cross-checks: daemons wired up
// in the wrong order, or a coordinator configured for a different cluster
// size than the daemons serve, are refused with a diagnosable error.
func TestCoordinatorHandshake(t *testing.T) {
	pts := indextest.RandPoints(100, 3, 41)
	parts := splitShards(t, pts, 2)
	specs := make([]repro.ShardSpec, 2)
	for s := 0; s < 2; s++ {
		eng, err := repro.New(parts[s], repro.WithScale(100))
		if err != nil {
			t.Fatal(err)
		}
		ds := httptest.NewServer(New(eng, WithShardRole(s, 2)).Handler())
		t.Cleanup(ds.Close)
		specs[s] = repro.ShardSpec{Addrs: []string{ds.URL}}
	}

	if _, err := repro.NewCoordinator(context.Background(), []repro.ShardSpec{specs[1], specs[0]},
		repro.WithHealthInterval(0)); err == nil || !strings.Contains(err.Error(), "serves shard") {
		t.Errorf("swapped shard order: err = %v, want a shard-order error", err)
	}
	if _, err := repro.NewCoordinator(context.Background(), specs[:1],
		repro.WithHealthInterval(0)); err == nil || !strings.Contains(err.Error(), "2-shard cluster") {
		t.Errorf("truncated cluster: err = %v, want a cluster-size error", err)
	}

	// A healthy handshake, for contrast — and the daemons' self-reported
	// spans reconstruct the shard map the coordinator scatters over.
	co, err := repro.NewCoordinator(context.Background(), specs, repro.WithHealthInterval(0))
	if err != nil {
		t.Fatalf("well-formed cluster refused: %v", err)
	}
	defer co.Close()
	if co.Len() != 100 || co.Shards() != 2 {
		t.Errorf("Len=%d Shards=%d, want 100/2", co.Len(), co.Shards())
	}
}
