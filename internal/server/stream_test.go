// The stream exchange from outside: a default cluster reads its daemons over
// upgraded connections only; closing either end ends the loops that serve
// them; a daemon restarted under pooled connections costs nothing; and the
// daemon's loop answers hostile messages the way its POST route does.

package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	repro "repro"
	"repro/internal/indextest"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// streamsOf is how many upgraded connections srv serves right now.
func streamsOf(srv *Server) int {
	srv.streamMu.Lock()
	defer srv.streamMu.Unlock()
	return len(srv.streams)
}

// TestClusterReadsStreamOnly: in a default cluster every read a query makes
// — neighbor chunks, count rounds, member points, forward kNN — travels as a
// stream message: the daemons see no POST /v1/binary at all, while their
// /v1/binary route counts every frame.
func TestClusterReadsStreamOnly(t *testing.T) {
	pts := indextest.RandPoints(200, 3, 91)
	var posts atomic.Int64
	cl := startClusterDaemons(t, pts, 3, 2, []repro.Option{repro.WithScale(3)}, wrappedDaemon(func(_ int, srv *Server) http.Handler {
		h := srv.Handler()
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/binary" {
				posts.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	}))
	ctx := context.Background()
	verified := 0
	for qid := 0; qid < len(pts); qid += 5 {
		_, st, err := cl.co.ReverseKNNStatsContext(ctx, qid, 5)
		if err != nil {
			t.Fatal(err)
		}
		verified += st.Verified
	}
	if _, err := cl.co.ReverseKNNPointContext(ctx, []float64{0.5, 0.5, 0.5}, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.co.KNNContext(ctx, []float64{0.5, 0.5, 0.5}, 4); err != nil {
		t.Fatal(err)
	}
	if verified == 0 {
		t.Fatal("no query verified a candidate: the count round went unexercised")
	}
	if n := posts.Load(); n != 0 {
		t.Errorf("the daemons saw %d POST /v1/binary in a default cluster", n)
	}
	frames := 0.0
	for _, reps := range cl.servers {
		for _, srv := range reps {
			frames += sampleValue(t, srv.Registry(), "rknn_http_requests_total", telemetry.Label{Name: "route", Value: "/v1/binary"})
		}
	}
	if frames == 0 {
		t.Error("the daemons' /v1/binary route recorded no stream frame")
	}
}

// TestStreamsEndOnClose: Coordinator.Close ends every daemon loop serving its
// pooled connections, and Server.Close ends the loops of the connections a
// live coordinator still holds; neither leaves a goroutine in the loop or in
// an exchange.
func TestStreamsEndOnClose(t *testing.T) {
	pts := indextest.RandPoints(150, 3, 93)
	for _, closing := range []string{"coordinator", "daemons"} {
		t.Run(closing, func(t *testing.T) {
			cl := startCluster(t, pts, 3, 1)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for qid := g; qid < len(pts); qid += 8 {
						if _, err := cl.co.ReverseKNNContext(context.Background(), qid, 5); err != nil {
							t.Error(err)
						}
					}
				}(g)
			}
			wg.Wait()
			live := 0
			for _, reps := range cl.servers {
				live += streamsOf(reps[0])
			}
			if live == 0 {
				t.Fatal("no stream open after the queries")
			}
			// The collector closes a connection nothing references; with it
			// off, only Close can have ended the loops.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			if closing == "coordinator" {
				cl.co.Close()
			} else {
				for _, reps := range cl.servers {
					reps[0].Close()
				}
			}
			if leaked, stacks := goroutinesIn("(*Server).handleStream", "(*streamConn).exchange"); leaked != "" {
				t.Fatalf("a goroutine is still in %s after the %s closed:\n%s", leaked, closing, stacks)
			}
			for s, reps := range cl.servers {
				if n := streamsOf(reps[0]); n != 0 {
					t.Errorf("shard %d still tracks %d streams", s, n)
				}
			}
		})
	}
}

// TestCoordinatorSurvivesDaemonRestart restarts a daemon on its address under
// a coordinator holding pooled connections to it, with retries off: every
// pooled connection is dead, and each read that meets one is retried on a
// fresh connection before it counts against the replica — no query fails, no
// RPC is counted as an error, and the replica is never marked down.
func TestCoordinatorSurvivesDaemonRestart(t *testing.T) {
	pts := indextest.RandPoints(150, 3, 95)
	cl := startCluster(t, pts, 1, 1, repro.WithRetries(0, 0))
	ctx := context.Background()
	ask := func(from int) {
		t.Helper()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for qid := from + g; qid < from+40; qid += 4 {
					if _, err := cl.co.ReverseKNNContext(ctx, qid, 5); err != nil {
						t.Errorf("query %d: %v", qid, err)
					}
				}
			}(g)
		}
		wg.Wait()
	}
	ask(0)
	if streamsOf(cl.servers[0][0]) == 0 {
		t.Fatal("no pooled stream before the restart")
	}
	addr := cl.daemons[0][0].Listener.Addr().String()
	cl.kill(0, 0)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot listen on %s again: %v", addr, err)
	}
	restarted := &http.Server{Handler: New(cl.engines[0], WithShardRole(0, 1)).Handler()}
	go restarted.Serve(ln)
	t.Cleanup(func() { restarted.Close() })

	ask(40)
	labels := telemetry.Label{Name: "shard", Value: "0"}
	if got := sampleValue(t, cl.reg, "rknn_remote_shard_requests_total", labels); got == 0 {
		t.Error("no RPC was counted")
	}
	for _, f := range cl.reg.Gather() { // the error series exists from the first error on
		if f.Name == "rknn_remote_shard_request_errors_total" && len(f.Samples) > 0 {
			t.Errorf("%v RPCs counted as errors across the restart", f.Samples[0].Value)
		}
	}
	if got := sampleValue(t, cl.reg, "rknn_remote_replica_healthy", labels, telemetry.Label{Name: "replica", Value: "0"}); got != 1 {
		t.Errorf("the restarted replica's health gauge reads %v", got)
	}
}

// upgrade opens a stream to a daemon by hand and returns the connection and
// a reader over it positioned after the 101.
func upgrade(t *testing.T, url string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "GET /v1/binary HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", wire.UpgradeProtocol)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade answered %d", resp.StatusCode)
	}
	return conn, br
}

// readError reads one response message off a stream and returns the error
// frame it carries.
func readError(t *testing.T, br *bufio.Reader) *wire.RemoteError {
	t.Helper()
	var f wire.Frame
	if err := f.ReadMessage(br, 1<<20); err != nil {
		t.Fatalf("reading the answer: %v", err)
	}
	_, err := wire.DecodeCountBatchResponse(f.B)
	var re *wire.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("answer %x is not an error frame (%v)", f.B, err)
	}
	return re
}

// TestStreamEndpoint pins the daemon's side of the stream: a GET without the
// upgrade headers is refused with 426; a malformed message is answered with
// the error a malformed POST gets, in an error frame, and the stream goes on;
// a declared length past maxBinaryBody is answered with the words of the
// POST route's 413 and ends the stream; and every message is an exchange on
// the /v1/binary route's counters.
func TestStreamEndpoint(t *testing.T) {
	eng, err := repro.New(indextest.RandPoints(50, 2, 96), repro.WithScale(4))
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/binary")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired || !strings.Contains(string(body), wire.UpgradeProtocol) {
		t.Errorf("GET /v1/binary without upgrading: %d %s", resp.StatusCode, body)
	}

	conn, br := upgrade(t, ts.URL)
	conn.Write(wire.AppendRequestMessage(nil, "", "", []byte{0xde, 0xad}))
	if re := readError(t, br); re.Code != wire.ErrBadRequest || !strings.HasPrefix(re.Msg, "malformed frame: ") {
		t.Errorf("malformed frame: %+v", re)
	}
	conn.Write(wire.AppendRequestMessage(nil, "", "", wire.AppendRkNNIDRequest(nil, 3, 4)))
	var f wire.Frame
	if err := f.ReadMessage(br, 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wire.DecodeRkNNResponse(f.B); err != nil {
		t.Errorf("the stream did not go on after a malformed frame: %v", err)
	}
	conn.Write(binary.LittleEndian.AppendUint32(nil, maxBinaryBody+1))
	if re := readError(t, br); re.Msg != fmt.Sprintf("request frame exceeds %d bytes", maxBinaryBody) {
		t.Errorf("oversized message: %+v", re)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("after an oversized message the stream is still open (%v)", err)
	}
	if got := sampleValue(t, s.Registry(), "rknn_http_requests_total", telemetry.Label{Name: "route", Value: "/v1/binary"}); got != 3 {
		t.Errorf("/v1/binary counted %v exchanges, want 3", got)
	}
	if got := sampleValue(t, s.Registry(), "rknn_http_request_errors_total", telemetry.Label{Name: "route", Value: "/v1/binary"}); got != 2 {
		t.Errorf("/v1/binary counted %v errors, want 2", got)
	}
}

// TestStreamIdleTimeout: between two messages a stream honours the
// http.Server's IdleTimeout, as a keep-alive connection does.
func TestStreamIdleTimeout(t *testing.T) {
	eng, err := repro.New(indextest.RandPoints(50, 2, 97), repro.WithScale(4))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(New(eng).Handler())
	ts.Config.IdleTimeout = 50 * time.Millisecond
	ts.Start()
	defer ts.Close()
	conn, br := upgrade(t, ts.URL)
	conn.Write(wire.AppendRequestMessage(nil, "", "", wire.AppendRkNNIDRequest(nil, 3, 4)))
	var f wire.Frame
	if err := f.ReadMessage(br, 1<<20); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	begin := time.Now()
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("an idle stream was not closed: %v", err)
	}
	if waited := time.Since(begin); waited > 4*time.Second {
		t.Errorf("the idle stream was closed after %v", waited)
	}
}
