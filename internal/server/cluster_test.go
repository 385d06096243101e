// Cluster conformance: the networked engine (shard daemons behind a
// Coordinator) against the in-process engines. The bar is byte-identity of
// HTTP response bodies — same answers, same stats, same error strings —
// across {unsharded, in-process S=1, in-process S=3, networked S=1,
// networked S=3} over the binary shard protocol, held through
// interleaved inserts and deletes routed through the
// coordinator. Plus the distributed-tracing join (coordinator trace IDs
// resolve on the daemons), replica failover under a mid-stream kill, the
// binary endpoint's Content-Type gate, and the coordinator's write faults:
// lost responses, clean refusals and a lying daemon, through WithTransport.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	repro "repro"
	"repro/internal/bruteforce"
	"repro/internal/index"
	"repro/internal/indextest"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vecmath"
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
	reg     *telemetry.Registry  // the coordinator's and its server's
	ts      *httptest.Server     // coordinator HTTP server
	daemons [][]*httptest.Server // [shard][replica]
	servers [][]*Server          // [shard][replica], behind daemons
	engines []*repro.Searcher    // per-shard engine (shared by its replicas)
}

// kill takes a replica down as a dead process goes: its listener and HTTP
// connections, and — which neither touches — its streams.
func (c *cluster) kill(shard, replica int) {
	c.daemons[shard][replica].CloseClientConnections()
	c.daemons[shard][replica].Close()
	c.servers[shard][replica].Close()
}

// startCluster partitions pts over S daemons (replicas HTTP servers per
// shard, all replicas of a shard serving the same engine) and fronts them
// with a Coordinator. Daemon tracing runs at sample 0 so retention of
// coordinator traces proves upstream-sampling propagation, not local luck.
func startCluster(t testing.TB, pts [][]float64, S, replicas int, coOpts ...repro.CoordinatorOption) *cluster {
	t.Helper()
	return startClusterWith(t, pts, S, replicas, []repro.Option{repro.WithScale(100)}, coOpts...)
}

// startClusterWith is startCluster with the daemons' engine options given.
func startClusterWith(t testing.TB, pts [][]float64, S, replicas int, engOpts []repro.Option, coOpts ...repro.CoordinatorOption) *cluster {
	t.Helper()
	return startClusterDaemons(t, pts, S, replicas, engOpts, plainDaemon, coOpts...)
}

// daemonFunc starts the HTTP server of one replica of a shard, over the
// replica's Server: the seam for a daemon that misbehaves, or one whose bytes
// are counted.
type daemonFunc func(shard int, srv *Server) *httptest.Server

func plainDaemon(_ int, srv *Server) *httptest.Server { return httptest.NewServer(srv.Handler()) }

// wrappedDaemon serves the handler wrap builds over the replica's Server.
func wrappedDaemon(wrap func(shard int, srv *Server) http.Handler) daemonFunc {
	return func(shard int, srv *Server) *httptest.Server { return httptest.NewServer(wrap(shard, srv)) }
}

// startClusterDaemons is startClusterWith with every replica's HTTP server
// started by daemon.
func startClusterDaemons(t testing.TB, pts [][]float64, S, replicas int, engOpts []repro.Option, daemon daemonFunc, coOpts ...repro.CoordinatorOption) *cluster {
	t.Helper()
	parts := splitShards(t, pts, S)
	c := &cluster{daemons: make([][]*httptest.Server, S), servers: make([][]*Server, S), engines: make([]*repro.Searcher, S)}
	specs := make([]repro.ShardSpec, S)
	for s := 0; s < S; s++ {
		eng, err := repro.New(parts[s], engOpts...)
		if err != nil {
			t.Fatalf("shard %d engine: %v", s, err)
		}
		c.engines[s] = eng
		for r := 0; r < replicas; r++ {
			ring := trace.NewRing(64)
			srv := New(eng, WithShardRole(s, S), WithTracing(ring, 0), WithSlowLog(0, 64))
			ds := daemon(s, srv)
			t.Cleanup(srv.Close)
			t.Cleanup(ds.Close)
			c.daemons[s] = append(c.daemons[s], ds)
			c.servers[s] = append(c.servers[s], srv)
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

	c.reg = telemetry.NewRegistry()
	co.EnableTelemetry(c.reg)
	coRing := trace.NewRing(64)
	c.ts = httptest.NewServer(New(co, WithRegistry(c.reg), WithTracing(coRing, 1)).Handler())
	t.Cleanup(c.ts.Close)
	return c
}

// isUpgrade reports whether r asks to upgrade to the frame stream.
func isUpgrade(r *http.Request) bool { return r.Header.Get("Upgrade") == wire.UpgradeProtocol }

// refuseUpgrade answers a stream upgrade as a daemon that predates the
// stream does — its routes know only POST /v1/binary, so 405 — and passes
// anything else to next. Through it, a coordinator reads the daemon by
// POST.
func refuseUpgrade(w http.ResponseWriter, r *http.Request, next http.Handler) {
	if isUpgrade(r) {
		http.Error(w, "Method Not Allowed", http.StatusMethodNotAllowed)
		return
	}
	next.ServeHTTP(w, r)
}

// refusedUpgrade is refuseUpgrade for a coordinator-side RoundTripper: the
// 405 it would get for an upgrade, or nil for any other request.
func refusedUpgrade(req *http.Request) *http.Response {
	if !isUpgrade(req) {
		return nil
	}
	return &http.Response{
		StatusCode: http.StatusMethodNotAllowed,
		Header:     http.Header{"Content-Type": []string{"text/plain"}},
		Body:       io.NopCloser(strings.NewReader("Method Not Allowed\n")),
		Request:    req,
	}
}

// frameHook is what a stream test daemon does with one request frame:
// answer runs it through the package's own dispatch and returns the response
// frame. The hook returns the response message to write, and whether to hang
// up after it.
type frameHook func(frame []byte, answer func([]byte) []byte) (msg []byte, hangUp bool)

// streamDaemon is a daemon whose stream misbehaves per frame: it serves
// srv's routes, but answers the upgrade itself and runs testStreamLoop, in
// which hook sees every request frame.
func streamDaemon(srv *Server, hook frameHook) http.Handler {
	h := srv.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !isUpgrade(r) {
			h.ServeHTTP(w, r)
			return
		}
		conn, brw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			return
		}
		defer conn.Close()
		brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + wire.UpgradeProtocol + "\r\n\r\n")
		if brw.Flush() == nil {
			testStreamLoop(srv, conn, brw.Reader, hook)
		}
	})
}

// testStreamLoop reads request messages off conn and writes what hook makes
// of each, until either side hangs up.
func testStreamLoop(srv *Server, conn net.Conn, br *bufio.Reader, hook frameHook) {
	answer := func(frame []byte) []byte {
		out, err := srv.dispatch(context.Background(), frame, nil)
		if err != nil {
			out = wire.AppendError(nil, wire.ErrBadRequest, err.Error())
		}
		return out
	}
	for {
		var f wire.Frame
		if f.ReadMessage(br, maxBinaryBody) != nil {
			return
		}
		_, _, frame, err := wire.SplitRequest(f.B)
		if err != nil {
			return
		}
		msg, hangUp := hook(frame, answer)
		if _, err := conn.Write(msg); err != nil || hangUp {
			return
		}
	}
}

// goroutinesIn waits up to ten seconds for no goroutine to have any of
// frames on its stack, and returns the first frame still found (with every
// stack) if one stays.
func goroutinesIn(frames ...string) (string, string) {
	deadline := time.Now().Add(10 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		stacks := string(buf[:runtime.Stack(buf, true)])
		leaked := ""
		for _, frame := range frames {
			if strings.Contains(stacks, frame) {
				leaked = frame
			}
		}
		if leaked == "" || time.Now().After(deadline) {
			return leaked, stacks
		}
		time.Sleep(5 * time.Millisecond)
	}
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

// topologies serves one dataset every way the module can — unsharded,
// in-process S∈{1,3}, networked S∈{1,3} — under the same engine options, and
// returns the servers' base URLs by topology name, plus the in-process
// subset and the engines behind them.
func topologies(t *testing.T, pts [][]float64, opts ...repro.Option) (all, inproc map[string]string, engines map[string]Engine) {
	t.Helper()
	single, err := repro.New(pts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	engines = map[string]Engine{"unsharded": single}
	for _, S := range []int{1, 3} {
		ss, err := repro.NewSharded(pts, S, opts...)
		if err != nil {
			t.Fatal(err)
		}
		engines[fmt.Sprintf("sharded-%d", S)] = ss
	}
	all, inproc = map[string]string{}, map[string]string{}
	for name, eng := range engines {
		ts := httptest.NewServer(New(eng).Handler())
		t.Cleanup(ts.Close)
		all[name], inproc[name] = ts.URL, ts.URL
	}
	for _, S := range []int{1, 3} {
		cl := startClusterWith(t, pts, S, 1, opts)
		name := fmt.Sprintf("cluster-%d", S)
		all[name], engines[name] = cl.ts.URL, cl.co
	}
	return all, inproc, engines
}

// TestClusterByteIdentity is the tentpole conformance test: the networked
// cluster's /v1 responses — answers, stats and errors, of queries and of
// writes — are byte-identical to the in-process sharded engine's and the
// unsharded engine's, at every shard count, before and after a write
// sequence (inserts, a batch, deletes) applied identically through every
// server's own HTTP API. The subtest is named for the shard protocol it runs
// over, the only one.
func TestClusterByteIdentity(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		pts := indextest.RandPoints(120, 3, 17)
		// Answer bodies and stats bodies must agree everywhere: every
		// topology runs the one algorithm over the one (merged) neighbor
		// stream, so the work counters do not depend on the shard count.
		all, inproc, engines := topologies(t, pts, repro.WithScale(100))

		compare := func(t *testing.T) {
			t.Helper()
			for _, qid := range []int{0, 7, 42, 99, 119} {
				identical(t, all, "POST", "/v1/rknn", fmt.Sprintf(`{"id":%d,"k":5}`, qid))
			}
			identical(t, all, "POST", "/v1/rknn", `{"point":[0.4,0.5,0.6],"k":4}`)
			identical(t, all, "POST", "/v1/knn", `{"point":[0.1,0.9,0.2],"k":6}`)
			// A k past the frame's 32-bit field still asks for every row.
			identical(t, all, "POST", "/v1/knn", `{"point":[0.1,0.9,0.2],"k":4294967296}`)
			identical(t, all, "POST", "/v1/knn", `{"point":[0.1,0.9,0.2],"k":4294967297}`)
			// So does an RkNN's k, which the count round carries as its limit.
			identical(t, all, "POST", "/v1/rknn", `{"id":7,"k":2147483648}`)
			identical(t, all, "POST", "/v1/rknn", `{"point":[0.4,0.5,0.6],"k":3000000000}`)
			identical(t, all, "POST", "/v1/rknn", `{"id":7,"k":4294967296}`)
			// Error surfaces must match byte for byte too.
			identical(t, all, "POST", "/v1/rknn", `{"id":3}`)
			identical(t, all, "POST", "/v1/rknn", `{"id":-5,"k":3}`)
			identical(t, all, "POST", "/v1/rknn", `{"id":99999,"k":3}`)
			identical(t, all, "POST", "/v1/knn", `{"point":[0.1],"k":3}`)
			for _, qid := range []int{7, 42} {
				identical(t, all, "POST", "/v1/rknn", fmt.Sprintf(`{"id":%d,"k":5,"stats":true}`, qid))
			}
			identical(t, all, "POST", "/v1/rknn", `{"point":[0.2,0.2,0.8],"k":5,"stats":true}`)
			identical(t, all, "POST", "/v1/rknn", `{"point":[0.1],"k":3}`)
			// Malformed writes — too short, too long, empty — are refused in
			// the same words, alone and as the second member of a batch, and
			// change nothing.
			for _, bad := range []string{`[0.1,0.2]`, `[0.1,0.2,0.3,0.4]`, `[]`} {
				identical(t, all, "POST", "/v1/points", `{"point":`+bad+`}`)
				identical(t, all, "POST", "/v1/points/batch", `{"points":[[0.5,0.5,0.5],`+bad+`]}`)
			}
			// The single-point read, where one exists: a live member, a
			// (later) deleted one, one never assigned.
			for _, id := range []string{"7", "3", "9999", "x"} {
				identical(t, inproc, "GET", "/v1/points/"+id, "")
			}
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
		for name, eng := range engines {
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
		if got := engines["cluster-3"].Len(); got != wantLen {
			t.Errorf("cluster Len = %d, want %d", got, wantLen)
		}

		// Every back-end takes both kinds of write, everywhere alike, and
		// answers the oracle over what the writes left. (Plain RDT at a
		// scale past the rank cap is exhaustive, hence exact.)
		added := indextest.RandPoints(3, 3, 303)
		rawOne, _ := json.Marshal(map[string]any{"point": added[0]})
		rawTwo, _ := json.Marshal(map[string]any{"points": added[1:]})
		var survivors [][]float64 // the oracle's rows; IDs 3 and 121 are deleted
		var toEngine []int
		for id, p := range slices.Concat(pts, added) {
			if id != 3 && id != 121 {
				survivors, toEngine = append(survivors, p), append(toEngine, id)
			}
		}
		truth, err := bruteforce.New(survivors, vecmath.Euclidean{})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []repro.Backend{repro.BackendCoverTree, repro.BackendScan} {
			servers, _, engs := topologies(t, pts, repro.WithBackend(b), repro.WithScale(200), repro.WithPlainRDT())
			identical(t, servers, "POST", "/v1/points", string(rawOne))
			identical(t, servers, "POST", "/v1/points/batch", string(rawTwo))
			identical(t, servers, "DELETE", "/v1/points/3", "")
			identical(t, servers, "DELETE", "/v1/points/121", "")
			for name, eng := range engs {
				if got := eng.Len(); got != len(survivors) {
					t.Errorf("%s on %s: Len = %d after the writes, want %d", name, b, got, len(survivors))
				}
				for oid, qid := range toEngine {
					if oid%13 != 0 && qid < 120 {
						continue
					}
					got, err := eng.ReverseKNNContext(context.Background(), qid, 5)
					if err != nil {
						t.Fatalf("%s on %s: ReverseKNN(%d): %v", name, b, qid, err)
					}
					want, err := truth.RkNNByID(oid, 5)
					if err != nil {
						t.Fatal(err)
					}
					for i, o := range want {
						want[i] = toEngine[o]
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s on %s: ReverseKNN(%d, 5) = %v, oracle %v", name, b, qid, got, want)
					}
				}
			}
		}
	})
}

// TestClusterTracePropagation pins the distributed-tracing join: a
// ?debug=1 query on the coordinator returns a span tree with the facade.pin
// every sharded engine records and the one
// core.rknn of the query, whose shard.scatter spans (one per shard stream)
// carry a remote.call child per chunk and whose core.verify holds the count
// round's remote.calls, and the coordinator's trace ID resolves
// on every shard daemon's trace ring (the daemons joined the same trace via
// the traceparent their stream messages carried, and honored the request ID
// carried beside it).
func TestClusterTracePropagation(t *testing.T) {
	pts := indextest.RandPoints(150, 3, 23)
	cl := startCluster(t, pts, 3, 1)

	// Trace a query that verifies something, so the count round is there.
	qid := -1
	for id := 0; id < len(pts) && qid < 0; id++ {
		if _, st, err := cl.co.ReverseKNNStatsContext(context.Background(), id, 8); err != nil {
			t.Fatal(err)
		} else if st.Verified > 0 {
			qid = id
		}
	}
	if qid < 0 {
		t.Fatal("no query of this dataset verifies a candidate")
	}
	resp, err := http.Post(cl.ts.URL+"/v1/rknn?debug=1", "application/json",
		strings.NewReader(fmt.Sprintf(`{"id":%d,"k":8}`, qid)))
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
	if pins := findJSONSpans(out.Trace.Root, "facade.pin"); len(pins) != 1 || pins[0].Attrs["shards_pinned"] != float64(3) {
		t.Errorf("facade.pin spans = %+v, want one that pinned 3 shards", pins)
	}
	cores := findJSONSpans(out.Trace.Root, "core.rknn")
	if len(cores) != 1 {
		t.Fatalf("core.rknn spans = %d, want 1", len(cores))
	}
	scatters := findJSONSpans(cores[0], "shard.scatter")
	if len(scatters) != 3 {
		t.Fatalf("shard.scatter spans under core.rknn = %d, want 3", len(scatters))
	}
	for _, sp := range scatters {
		if len(findJSONSpans(sp, "remote.call")) == 0 {
			t.Errorf("shard.scatter span (shard %v) has no remote.call child", sp.Attrs["shard"])
		}
	}
	// The context travelled in stream messages, not in POST headers.
	for _, sp := range findJSONSpans(out.Trace.Root, "remote.call") {
		if sp.Attrs["exchange"] != "stream" {
			t.Errorf("remote.call span (shard %v) took the %v exchange, want stream", sp.Attrs["shard"], sp.Attrs["exchange"])
		}
	}
	verifies := findJSONSpans(cores[0], "core.verify")
	if len(verifies) != 1 {
		t.Fatalf("core.verify spans = %d, want 1", len(verifies))
	}
	// The unsettled candidates cost one count round however many they are:
	// a remote.call per shard, all under core.verify.
	if got := len(findJSONSpans(verifies[0], "remote.call")); got != 3 {
		t.Errorf("remote.call spans under core.verify = %d, want one per shard", got)
	}
	if got := len(findJSONSpans(out.Trace.Root, "shard.merge")); got != 0 {
		t.Errorf("shard.merge spans = %d, want none", got)
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
// stream — its listener, its connections and its frame streams, which the
// coordinator was reading it by: with per-request retry across replicas, not
// one query may fail, and the health gauge must report the dead replica down
// once the health loop notices.
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
	if live := streamsOf(cl.servers[0][1]); live == 0 {
		t.Fatal("the replica had no stream open before the kill: reads did not stream")
	}
	cl.kill(0, 1)
	for qid := 40; qid < 120; qid++ {
		ask(qid)
	}
	for deadline := time.Now().Add(5 * time.Second); streamsOf(cl.servers[0][1]) != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the killed replica still serves %d streams", streamsOf(cl.servers[0][1]))
		}
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

// oldDaemonTransport answers frames of the ops in reject the way a daemon
// built before they existed does — its decoder rejects the unknown op, so
// the handler renders 400 {"error":"malformed frame: ..."} — and passes
// everything else through, counting the rejections. It refuses the stream
// upgrade, so every frame reaches it as a POST.
type oldDaemonTransport struct {
	base     http.RoundTripper
	reject   []wire.Op
	asFrame  bool // answer 200 with a wire error frame instead of the 400
	rejected atomic.Int64
}

func (o *oldDaemonTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if resp := refusedUpgrade(req); resp != nil {
		return resp, nil
	}
	if req.Body != nil && strings.HasSuffix(req.URL.Path, "/v1/binary") {
		frame, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(frame))
		if len(frame) >= 2 && slices.Contains(o.reject, wire.Op(frame[1])) {
			o.rejected.Add(1)
			if o.asFrame {
				body := wire.AppendError(nil, wire.ErrBadRequest, fmt.Sprintf("unknown op %d", frame[1]))
				return &http.Response{
					StatusCode: http.StatusOK,
					Header:     http.Header{"Content-Type": []string{wire.ContentType}},
					Body:       io.NopCloser(bytes.NewReader(body)),
					Request:    req,
				}, nil
			}
			msg := fmt.Sprintf(`{"error":"malformed frame: wire: unknown op %d"}`, frame[1])
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

// oldDaemonHook is oldDaemonTransport on the stream: a daemon whose decoder
// rejects the ops in reject answers each of their frames with the error frame
// the stream loop renders for a malformed frame, or — asFrame — with the
// engine's "unknown op" error frame.
func oldDaemonHook(o *oldDaemonTransport) frameHook {
	return func(frame []byte, answer func([]byte) []byte) ([]byte, bool) {
		if len(frame) < 2 || !slices.Contains(o.reject, wire.Op(frame[1])) {
			return wire.AppendResponseMessage(nil, answer(frame)), false
		}
		o.rejected.Add(1)
		msg := fmt.Sprintf("malformed frame: wire: unknown op %d", frame[1])
		if o.asFrame {
			msg = fmt.Sprintf("unknown op %d", frame[1])
		}
		return wire.AppendResponseMessage(nil, wire.AppendError(nil, wire.ErrBadRequest, msg)), false
	}
}

// TestCoordinatorAgainstOldDaemon pins the upgrade-order failure mode: a
// coordinator in front of daemons that predate an op it needs — the neighbor
// stream it merges, or the count it verifies by — gets one clean,
// diagnosable error per query that names the shard and the op: no panic, no
// retries against the other replicas or attempts (a 4xx would fail
// identically everywhere), no partial answer — while forward kNN, which
// needs neither op, keeps working. It holds on both exchanges: daemons read
// by POST (they refuse the stream, as one built before it does), and
// daemons read by stream.
func TestCoordinatorAgainstOldDaemon(t *testing.T) {
	pts := indextest.RandPoints(150, 3, 53)
	for name, c := range map[string]struct {
		reject  []wire.Op
		asFrame bool
		names   string
	}{
		"before the neighbor stream":   {[]wire.Op{wire.OpNeighbors}, false, "neighbor stream op"},
		"unknown op as an error frame": {[]wire.Op{wire.OpNeighbors}, true, "neighbor stream op"},
		"before the count op":          {[]wire.Op{wire.OpCountBatch}, false, "count verification op"},
	} {
		t.Run(name, func(t *testing.T) {
			for _, exchange := range []string{"post", "stream"} {
				t.Run(exchange, func(t *testing.T) {
					old := &oldDaemonTransport{base: http.DefaultTransport, reject: c.reject, asFrame: c.asFrame}
					var cl *cluster
					if exchange == "post" {
						cl = startCluster(t, pts, 3, 2, repro.WithTransport(old), repro.WithRetries(3, time.Millisecond))
					} else {
						cl = startClusterDaemons(t, pts, 3, 2, []repro.Option{repro.WithScale(100)}, wrappedDaemon(func(_ int, srv *Server) http.Handler {
							return streamDaemon(srv, oldDaemonHook(old))
						}), repro.WithRetries(3, time.Millisecond))
					}
					var err error
					for id := 0; id < len(pts) && err == nil; id++ {
						_, err = cl.co.ReverseKNN(id, 8) // the first query to need the op fails
					}
					if err == nil {
						t.Fatal("every query was answered by daemons without the op")
					}
					for _, want := range []string{"rknnd: ", "shard ", c.names, "upgrade daemons before coordinators", "unknown op"} {
						if !strings.Contains(err.Error(), want) {
							t.Errorf("error %q does not mention %q", err, want)
						}
					}
					// One rejection per shard at most: the failed query asked each
					// shard once, and retried none of them.
					if got := old.rejected.Load(); got < 1 || got > 3 {
						t.Errorf("%d frames were rejected for one failed query over 3 shards: a retry storm", got)
					}
					if _, err := cl.co.KNNContext(context.Background(), pts[5], 4); err != nil {
						t.Errorf("forward kNN needs neither op, got %v", err)
					}
					if c.reject[0] == wire.OpNeighbors {
						status, body := rawCall(t, "POST", cl.ts.URL+"/v1/rknn", `{"id":5,"k":8}`)
						if status != http.StatusBadRequest || !strings.Contains(string(body), "upgrade daemons before coordinators") {
							t.Errorf("front door answered %d %q, want a 400 naming the upgrade order", status, body)
						}
					}
				})
			}
		})
	}
}

// TestClusterStarvedScaleIdentity is the networked half of the statement the
// old superset-and-reverify scatter could not make (the in-process half is
// TestShardedStarvedScaleIdentity in the facade's tests): at a starved scale
// parameter — answers inexact, every step of the scan showing — a
// Coordinator over three daemons returns the unsharded Searcher's answer and
// its Stats, field for field, on every exact back-end, for RDT and RDT+,
// fixed and adaptive scale. The variant travels in the handshake: the
// coordinator runs the daemons' algorithm itself.
func TestClusterStarvedScaleIdentity(t *testing.T) {
	pts := indextest.ClusteredPoints(300, 4, 5, 61)
	external := indextest.RandPoints(3, 4, 62)
	const k = 5
	variants := map[string][]repro.Option{
		"rdt+/t=1":      {repro.WithScale(1)},
		"rdt/t=1":       {repro.WithScale(1), repro.WithPlainRDT()},
		"rdt+/adaptive": {repro.WithAdaptiveScale(), repro.WithScaleMargin(0.5)},
		"rdt/adaptive":  {repro.WithAdaptiveScale(), repro.WithPlainRDT()},
	}
	for _, b := range []repro.Backend{repro.BackendCoverTree, repro.BackendScan} {
		for name, vopts := range variants {
			t.Run(string(b)+"/"+name, func(t *testing.T) {
				opts := append([]repro.Option{repro.WithBackend(b)}, vopts...)
				single, err := repro.New(pts, opts...)
				if err != nil {
					t.Fatal(err)
				}
				cl := startClusterWith(t, pts, 3, 1, opts)
				ctx := context.Background()
				for qid := 0; qid < len(pts); qid += 11 {
					want, wantSt, err := single.ReverseKNNStatsContext(ctx, qid, k)
					if err != nil {
						t.Fatal(err)
					}
					got, gotSt, err := cl.co.ReverseKNNStatsContext(ctx, qid, k)
					if err != nil {
						t.Fatalf("member %d: %v", qid, err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) || gotSt != wantSt {
						t.Errorf("member %d: cluster (%v, %+v), unsharded (%v, %+v)", qid, got, gotSt, want, wantSt)
					}
				}
				for i, q := range external {
					want, wantSt, err := single.ReverseKNNPointStatsContext(ctx, q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, gotSt, err := cl.co.ReverseKNNPointStatsContext(ctx, q, k)
					if err != nil {
						t.Fatalf("point %d: %v", i, err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) || gotSt != wantSt {
						t.Errorf("point %d: cluster (%v, %+v), unsharded (%v, %+v)", i, got, gotSt, want, wantSt)
					}
				}
			})
		}
	}
}

// chunkShim rewrites every neighbor-stream request a daemon is sent to ask
// for at most limit rows — forcing a query through many chunks — and records,
// per daemon, every row the daemons sent. between, when set, runs once, after
// the first chunk any daemon answers. It sits on either exchange: as the
// coordinator's transport (RoundTrip, which refuses the stream upgrade, so
// frames are POSTed), or inside a stream daemon (daemon).
type chunkShim struct {
	base  http.RoundTripper
	limit int

	mu      sync.Mutex
	rows    map[string][]wire.Neighbor // daemon -> rows sent, in order
	chunks  int
	between func()
	// sent is every row's coordinates as its daemon sent them, by daemon and
	// local ID, over the shim's lifetime; probed counts the verification
	// probes checked against it and garbled lists those that differed.
	sent    map[string]map[int][]float64
	probed  int
	garbled []string
}

// rewrite is the shim on one request frame for daemon: a count batch's probes
// are checked, a neighbor-stream request is cut down to limit rows. It
// returns the frame to send, and whether it asks for neighbors.
func (c *chunkShim) rewrite(daemon string, frame []byte) ([]byte, bool) {
	dec, err := wire.DecodeRequest(frame)
	if err != nil || dec.Op != wire.OpNeighbors {
		if err == nil && dec.Op == wire.OpCountBatch {
			c.checkProbes(daemon, dec.Counts)
		}
		return frame, false
	}
	return wire.AppendNeighborsRequest(nil, dec.Point, dec.Skip, dec.After, min(dec.Count, c.limit)), true
}

// answered records the rows of a neighbor-stream chunk daemon answered, and
// runs between the first time.
func (c *chunkShim) answered(daemon string, body []byte) {
	rows, pts, _, err := wire.DecodeNeighborsResponse(body)
	if err != nil {
		return // an error frame: the coordinator's to judge
	}
	c.mu.Lock()
	if c.rows == nil {
		c.rows = map[string][]wire.Neighbor{}
	}
	c.rows[daemon] = append(c.rows[daemon], rows...)
	if c.sent == nil {
		c.sent = map[string]map[int][]float64{}
	}
	if c.sent[daemon] == nil {
		c.sent[daemon] = map[int][]float64{}
	}
	for i, nb := range rows {
		c.sent[daemon][nb.ID] = pts[i]
	}
	c.chunks++
	between := c.between
	c.between = nil
	c.mu.Unlock()
	if between != nil {
		between()
	}
}

func (c *chunkShim) RoundTrip(req *http.Request) (*http.Response, error) {
	if resp := refusedUpgrade(req); resp != nil {
		return resp, nil
	}
	if req.Body == nil || !strings.HasSuffix(req.URL.Path, "/v1/binary") {
		return c.base.RoundTrip(req)
	}
	frame, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	frame, neighbors := c.rewrite(req.URL.Host, frame)
	req.Body = io.NopCloser(bytes.NewReader(frame))
	req.ContentLength = int64(len(frame))
	resp, err := c.base.RoundTrip(req)
	if err != nil || !neighbors {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	c.answered(req.URL.Host, body)
	return resp, nil
}

// daemon is the shim inside shard's stream daemon.
func (c *chunkShim) daemon(shard int) frameHook {
	name := fmt.Sprintf("shard %d", shard)
	return func(frame []byte, answer func([]byte) []byte) ([]byte, bool) {
		frame, neighbors := c.rewrite(name, frame)
		body := answer(frame)
		if neighbors {
			c.answered(name, body)
		}
		return wire.AppendResponseMessage(nil, body), false
	}
}

// shimCluster starts three single-replica daemons whose reads pass through
// shim on the named exchange.
func shimCluster(t *testing.T, pts [][]float64, engOpts []repro.Option, shim *chunkShim, exchange string) *cluster {
	if exchange == "post" {
		return startClusterWith(t, pts, 3, 1, engOpts, repro.WithTransport(shim))
	}
	return startClusterDaemons(t, pts, 3, 1, engOpts, wrappedDaemon(func(shard int, srv *Server) http.Handler {
		return streamDaemon(srv, shim.daemon(shard))
	}))
}

// checkProbes holds the verification probes a coordinator sends a daemon to
// the coordinates that daemon streamed. A probe that excludes a local member
// is about that member — a candidate whose home is this daemon — and carries
// the candidate's coordinates as the coordinator holds them once the scan is
// over, after every later chunk has grown and moved the stream's arena.
func (c *chunkShim) checkProbes(daemon string, probes []wire.CountQuery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range probes {
		if p.Skip < 0 {
			continue
		}
		c.probed++
		sent, ok := c.sent[daemon][p.Skip]
		same := ok && len(sent) == len(p.Point)
		for i := 0; same && i < len(sent); i++ {
			same = math.Float64bits(sent[i]) == math.Float64bits(p.Point[i])
		}
		if !same {
			c.garbled = append(c.garbled, fmt.Sprintf("%s member %d: sent %v, probed with %v", daemon, p.Skip, sent, p.Point))
		}
	}
}

// reset forgets the rows of the previous query.
func (c *chunkShim) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rows, c.chunks = nil, 0
}

// TestClusterChunkedStreams pins the chunked fetch of remote neighbor
// streams: with every chunk forced down to 1, 2 or 3 rows a coordinator
// answers exactly as the in-process sharded engine does (answer and Stats),
// and never asks a daemon for a row twice — what each daemon sent, over all
// the chunks of a query, is one strictly ascending (distance, ID) run, no
// longer than the scan needed plus the look-ahead of the last chunk. It
// holds on both exchanges, the shim cutting POSTed frames in one case and
// stream messages in the other.
func TestClusterChunkedStreams(t *testing.T) {
	pts := indextest.RandPoints(180, 3, 71)
	opts := []repro.Option{repro.WithScale(3)}
	ss, err := repro.NewSharded(pts, 3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, exchange := range []string{"post", "stream"} {
		t.Run(exchange, func(t *testing.T) {
			for limit := 1; limit <= 3; limit++ {
				shim := &chunkShim{base: http.DefaultTransport, limit: limit}
				cl := shimCluster(t, pts, opts, shim, exchange)
				for qid := 0; qid < len(pts); qid += 7 {
					shim.reset()
					want, wantSt, err := ss.ReverseKNNStatsContext(ctx, qid, 4)
					if err != nil {
						t.Fatal(err)
					}
					got, gotSt, err := cl.co.ReverseKNNStatsContext(ctx, qid, 4)
					if err != nil {
						t.Fatalf("chunk %d, query %d: %v", limit, qid, err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) || gotSt != wantSt {
						t.Errorf("chunk %d, query %d: cluster (%v, %+v), in-process (%v, %+v)", limit, qid, got, gotSt, want, wantSt)
					}
					sent := 0
					for host, rows := range shim.rows {
						sent += len(rows)
						for i := 1; i < len(rows); i++ {
							if a, b := rows[i-1], rows[i]; b.Dist < a.Dist || b.Dist == a.Dist && b.ID <= a.ID {
								t.Fatalf("chunk %d, query %d: daemon %s sent row %+v after %+v: a row was asked for twice or out of order", limit, qid, host, b, a)
							}
						}
					}
					// Each of the 3 streams is read at most one chunk past the last
					// row the scan consumed.
					if sent < wantSt.ScanDepth || sent > wantSt.ScanDepth+3*limit {
						t.Errorf("chunk %d, query %d: daemons sent %d rows for a scan of depth %d", limit, qid, sent, wantSt.ScanDepth)
					}
					if shim.chunks < sent/limit {
						t.Errorf("chunk %d, query %d: %d rows arrived in %d chunks: the shim did not force the chunk size", limit, qid, sent, shim.chunks)
					}
				}
				// Every chunk after a stream's first outgrew the stream's arena and
				// moved it, under the filter set's references to the rows already
				// scanned. The candidates' coordinates the coordinator then verified
				// with — first-chunk rows among them — are, bit for bit, the ones
				// their daemons sent.
				if shim.probed == 0 {
					t.Errorf("chunk %d: no verification probe carried a candidate's coordinates: nothing was checked", limit)
				}
				for _, g := range shim.garbled {
					t.Errorf("chunk %d: coordinates changed between the stream and the probe: %s", limit, g)
				}
			}
		})
	}
}

// TestClusterWriteBetweenChunks lands writes on the daemons between two
// chunks of one query's streams — an insert nearer the query than anything
// the streams have yet to send, and a delete of the query's nearest
// neighbor, already sent. Chunks resume by their last (distance, ID) key, so
// the later chunks, answered from newer snapshots, can neither repeat nor
// reorder a row: the query succeeds with no duplicate ID — on both
// exchanges.
func TestClusterWriteBetweenChunks(t *testing.T) {
	pts := indextest.RandPoints(200, 3, 73)
	for _, exchange := range []string{"post", "stream"} {
		t.Run(exchange, func(t *testing.T) {
			shim := &chunkShim{base: http.DefaultTransport, limit: 2}
			cl := shimCluster(t, pts, []repro.Option{repro.WithScale(100), repro.WithPlainRDT()}, shim, exchange)
			ctx := context.Background()
			q := []float64{0.5, 0.5, 0.5}
			nn, err := cl.co.KNNContext(ctx, q, 1)
			if err != nil {
				t.Fatal(err)
			}
			wrote := make(chan error, 1)
			shim.mu.Lock()
			shim.between = func() {
				_, err := cl.co.InsertContext(ctx, []float64{0.5, 0.5, 0.5001})
				if err == nil {
					_, err = cl.co.DeleteContext(ctx, nn[0].ID)
				}
				wrote <- err
			}
			shim.mu.Unlock()
			shim.reset()
			ids, err := cl.co.ReverseKNNPointContext(ctx, q, 6)
			if err != nil {
				t.Fatalf("query across a concurrent write: %v", err)
			}
			select {
			case err := <-wrote:
				if err != nil {
					t.Fatalf("the write between chunks failed: %v", err)
				}
			default:
				t.Fatal("the query never reached a second chunk: no write happened between chunks")
			}
			seen := map[int]bool{}
			for _, id := range ids {
				if seen[id] {
					t.Fatalf("answer %v repeats id %d", ids, id)
				}
				seen[id] = true
			}
			for host, rows := range shim.rows {
				for i := 1; i < len(rows); i++ {
					if a, b := rows[i-1], rows[i]; b.Dist < a.Dist || b.Dist == a.Dist && b.ID <= a.ID {
						t.Fatalf("daemon %s sent row %+v after %+v across the write", host, b, a)
					}
				}
			}
			// Quiet again, the cluster answers as an engine built from the result.
			after, err := cl.co.ReverseKNNPointContext(ctx, q, 6)
			if err != nil {
				t.Fatal(err)
			}
			final := append(append([][]float64(nil), pts...), []float64{0.5, 0.5, 0.5001})
			ref, err := repro.New(final, repro.WithScale(100), repro.WithPlainRDT())
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := ref.Delete(nn[0].ID); !ok || err != nil {
				t.Fatalf("reference Delete(%d) = (%v, %v)", nn[0].ID, ok, err)
			}
			want, err := ref.ReverseKNNPointContext(ctx, q, 6)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(after) != fmt.Sprint(want) {
				t.Errorf("after the write the cluster answers %v, an engine holding the same points %v", after, want)
			}
		})
	}
}

// TestCoordinatorHandshake pins the startup cross-checks: daemons wired up
// in the wrong order, a coordinator configured for a different cluster size
// than the daemons serve, or a daemon on a retired back-end, are refused with
// a diagnosable error.
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

	// A daemon from a release that still served the approximate LSH
	// back-end describes itself so; the coordinator answers exactly or not
	// at all, and names the retired back-end.
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/shard/info" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"approximate":true,"backend":"lsh","dim":3,"id_span":50,"margin":0,"metric_id":1,"metric_param":0,"plus":true,"points":50,"scale":100,"shard":1,"shards":2}`)
	}))
	t.Cleanup(old.Close)
	_, err := repro.NewCoordinator(context.Background(), []repro.ShardSpec{specs[0], {Addrs: []string{old.URL}}},
		repro.WithHealthInterval(0))
	if err == nil || !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), `"lsh" was retired`) {
		t.Errorf("an LSH daemon: err = %v, want the retired-back-end error naming shard 1", err)
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

// writeFault is a coordinator transport that tampers with one write RPC —
// the (skip+1)th POST or DELETE under /v1/points it sees — and passes
// everything else through. mode says how: "drop" forwards the write and
// loses the response (the daemon applied it; the coordinator cannot know);
// "refuse" answers a well-formed 400 without forwarding it; "shift" forwards
// it and adds one to every local ID the daemon acknowledged.
type writeFault struct {
	base http.RoundTripper
	mode string

	mu    sync.Mutex
	skip  int
	fired bool
}

func (f *writeFault) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(req.URL.Path, "/v1/points") || req.Method == http.MethodGet {
		return f.base.RoundTrip(req)
	}
	f.mu.Lock()
	hit := !f.fired && f.skip == 0
	if hit {
		f.fired = true
	} else if !f.fired {
		f.skip--
	}
	f.mu.Unlock()
	if !hit {
		return f.base.RoundTrip(req)
	}
	if f.mode == "refuse" {
		return &http.Response{
			StatusCode: http.StatusBadRequest,
			Header:     http.Header{"Content-Type": []string{"application/json"}},
			Body:       io.NopCloser(strings.NewReader(`{"error":"rknnd: the shim refuses this write"}`)),
			Request:    req,
		}, nil
	}
	resp, err := f.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if f.mode == "drop" {
		return nil, fmt.Errorf("the shim lost the response (status %d)", resp.StatusCode)
	}
	var ack struct {
		IDs []int `json:"ids"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return nil, err
	}
	for i := range ack.IDs {
		ack.IDs[i]++
	}
	body, _ = json.Marshal(ack)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// TestCoordinatorWriteFaults fails a coordinator write on purpose, four
// ways, and holds the merged write path to the shardWriter contract. A write
// whose response is lost after the daemon applied it — a single insert, or
// the second shard group of a batch whose first landed — returns an error
// saying the outcome is unknown and what to do about it, and that same call
// poisons the write path: the next insert, batch and delete are refused with
// the cause, while queries keep answering. A clean refusal of the first
// group — single insert or batch — returns the daemon's error, leaves IDSpan
// and Len where they were and the write path healthy: the same write then
// succeeds. A daemon that acknowledges other local IDs than the shard map
// predicted is an error and a poisoned write path, not a panic.
func TestCoordinatorWriteFaults(t *testing.T) {
	pts := indextest.RandPoints(120, 3, 83)
	extra := indextest.RandPoints(8, 3, 84)
	ctx := context.Background()
	// write performs the faulted call: one insert, or a batch spanning all
	// three shards.
	write := func(co *repro.Coordinator, batch bool) ([]int, error) {
		if batch {
			return co.InsertBatchContext(ctx, extra[:4])
		}
		id, err := co.InsertContext(ctx, extra[0])
		return []int{id}, err
	}
	daemonPoints := func(cl *cluster) (n int) {
		for _, eng := range cl.engines {
			n += eng.Len()
		}
		return n
	}
	poisoned := func(t *testing.T, cl *cluster, cause string) {
		t.Helper()
		_, errIns := cl.co.InsertContext(ctx, extra[5])
		_, errBatch := cl.co.InsertBatchContext(ctx, extra[5:8])
		_, errDel := cl.co.DeleteContext(ctx, 7)
		for what, err := range map[string]error{"insert": errIns, "batch": errBatch, "delete": errDel} {
			if err == nil || !strings.Contains(err.Error(), "writes disabled") || !strings.Contains(err.Error(), cause) {
				t.Errorf("%s after the fault: err = %v, want writes disabled, naming the cause (%s)", what, err, cause)
			}
		}
		for qid := 0; qid < len(pts); qid += 9 {
			if _, err := cl.co.ReverseKNNContext(ctx, qid, 5); err != nil {
				t.Errorf("query %d after the fault: %v", qid, err)
			}
		}
		if _, err := cl.co.KNNContext(ctx, extra[6], 4); err != nil {
			t.Errorf("kNN after the fault: %v", err)
		}
	}

	for name, c := range map[string]struct {
		batch bool
		skip  int
	}{
		"lost response/single insert":      {false, 0},
		"lost response/second batch group": {true, 1},
	} {
		t.Run(name, func(t *testing.T) {
			cl := startCluster(t, pts, 3, 1, repro.WithTransport(&writeFault{base: http.DefaultTransport, mode: "drop", skip: c.skip}))
			_, err := write(cl.co, c.batch)
			if err == nil {
				t.Fatal("the write whose response was lost reported success")
			}
			for _, want := range []string{"outcome unknown", "restart the coordinator", "id spans"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not say %q", err, want)
				}
			}
			// The daemons hold every group that was sent, the lost one included.
			if got, want := daemonPoints(cl), len(pts)+c.skip+1; got < want {
				t.Fatalf("daemons hold %d points, want at least %d: the shim did not forward the write", got, want)
			}
			poisoned(t, cl, "outcome unknown")
		})
	}

	for _, batch := range []bool{false, true} {
		t.Run(fmt.Sprintf("clean refusal/batch=%v", batch), func(t *testing.T) {
			cl := startCluster(t, pts, 3, 1, repro.WithTransport(&writeFault{base: http.DefaultTransport, mode: "refuse"}))
			ids, err := write(cl.co, batch)
			if err == nil || !strings.Contains(err.Error(), "the shim refuses this write") || strings.Contains(err.Error(), "outcome unknown") {
				t.Fatalf("refused write = (%v, %v), want the daemon's refusal", ids, err)
			}
			if batch && ids != nil {
				t.Errorf("refused batch returned ids %v", ids)
			}
			if cl.co.IDSpan() != len(pts) || cl.co.Len() != len(pts) || daemonPoints(cl) != len(pts) {
				t.Fatalf("after the refusal: span %d len %d, daemons %d; want %d everywhere (map rolled back)",
					cl.co.IDSpan(), cl.co.Len(), daemonPoints(cl), len(pts))
			}
			ids, err = write(cl.co, batch)
			if err != nil || ids[0] != len(pts) {
				t.Fatalf("the same write once the daemon accepts it = (%v, %v), want ids from %d", ids, err, len(pts))
			}
			if ok, err := cl.co.DeleteContext(ctx, ids[0]); !ok || err != nil {
				t.Errorf("delete after the refusal = (%v, %v): the write path is not healthy", ok, err)
			}
		})
	}

	t.Run("daemon acknowledges another local id", func(t *testing.T) {
		cl := startCluster(t, pts, 3, 1, repro.WithTransport(&writeFault{base: http.DefaultTransport, mode: "shift"}))
		_, err := write(cl.co, false)
		if err == nil || !strings.Contains(err.Error(), "local ids") || !strings.Contains(err.Error(), "shard map expected") {
			t.Fatalf("mismatched acknowledgement: err = %v, want the mismatch named", err)
		}
		poisoned(t, cl, "shard map expected")
	})
}

// TestCoordinatorTelemetryMatchesUnsharded is TestShardedTelemetry's equality
// (the facade's tests pin it for the in-process engine; a root-package test
// cannot import the server) for a three-daemon coordinator: the engine-level
// families fall out of the shared query surface, so for the same queries a
// coordinator's rknn_queries_total by op and its candidate counters equal an
// unsharded engine's, and its /metrics exposes them.
func TestCoordinatorTelemetryMatchesUnsharded(t *testing.T) {
	pts := indextest.RandPoints(240, 3, 17)
	opts := []repro.Option{repro.WithScale(3)} // starved: some candidates need verifying
	cl := startClusterWith(t, pts, 3, 1, opts)
	singleReg := telemetry.NewRegistry()
	single, err := repro.New(pts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	single.EnableTelemetry(singleReg)
	ctx := context.Background()
	qids := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	for _, eng := range []Engine{cl.co, single} {
		for _, qid := range qids {
			if _, _, err := eng.ReverseKNNStatsContext(ctx, qid, 4); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.ReverseKNNPointContext(ctx, []float64{0.3, 0.6, 0.2}, 4); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.BatchReverseKNNContext(ctx, qids[:5], 4, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.KNNContext(ctx, []float64{0.3, 0.6, 0.2}, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.InsertContext(ctx, []float64{0.4, 0.4, 0.4}); err != nil {
			t.Fatal(err)
		}
		if ok, err := eng.DeleteContext(ctx, 17); !ok || err != nil {
			t.Fatalf("Delete(17) = (%v, %v)", ok, err)
		}
	}
	backend := telemetry.Label{Name: "backend", Value: "covertree"}
	for op, want := range map[string]float64{"rknn": 12, "rknn_point": 1, "batch": 5, "knn": 1, "insert": 1, "delete": 1} {
		labels := []telemetry.Label{backend, {Name: "op", Value: op}}
		if got := sampleValue(t, cl.reg, "rknn_queries_total", labels...); got != want || got != sampleValue(t, singleReg, "rknn_queries_total", labels...) {
			t.Errorf("coordinator rknn_queries_total{op=%q} = %v, want %v as on the unsharded engine", op, got, want)
		}
	}
	for _, name := range []string{
		"rknn_scan_depth_total", "rknn_candidates_generated_total", "rknn_candidates_excluded_total",
		"rknn_candidates_lazy_accepted_total", "rknn_candidates_lazy_settled_total",
		"rknn_candidates_verified_total", "rknn_distance_comps_total",
	} {
		got, want := sampleValue(t, cl.reg, name, backend), sampleValue(t, singleReg, name, backend)
		if got != want || want == 0 {
			t.Errorf("coordinator %s = %v, unsharded engine recorded %v (want equal and non-zero)", name, got, want)
		}
	}
	_, body := rawCall(t, http.MethodGet, cl.ts.URL+"/metrics", "")
	for _, want := range []string{"\nrknn_queries_total{", "\nrknn_candidates_lazy_settled_total{", "\nrknn_shard_points{"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("coordinator /metrics has no %s series", strings.TrimSpace(want))
		}
	}
}

// TestKDistTableNotBehindACoordinator pins that a cluster never fills a
// k-distance table: the coordinator runs the algorithm over its shards'
// neighbor streams and counts, so no daemon's snapshot serves a reverse query
// at all, however many reach the coordinator — past the default engine's
// trigger, a daemon's own next query is still Algorithm 1's.
func TestKDistTableNotBehindACoordinator(t *testing.T) {
	pts := indextest.RandPoints(150, 3, 61)
	c := startCluster(t, pts, 3, 1)
	for i := 0; i < 1100; i++ {
		if _, st, err := c.co.ReverseKNNStats(i%len(pts), 4); err != nil || st.DecidedByTable {
			t.Fatalf("query %d: %+v, %v", i, st, err)
		}
	}
	for s, eng := range c.engines {
		if _, st, err := eng.ReverseKNNStats(0, 4); err != nil || st.DecidedByTable {
			t.Fatalf("shard %d daemon after the cluster's queries: %+v, %v", s, st, err)
		}
	}
}
