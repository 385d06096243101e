//go:build !race

// Under the race detector sync.Pool drops a share of its Puts, so the pin
// below would measure the detector, not the cluster; CI runs it in the
// allocation step, without -race.

package server

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

	repro "repro"
	"repro/internal/dataset"
)

// countingListener counts the bytes its connections write — everything a
// daemon sends, on either exchange: a POST's response, headers and all, or a
// stream's messages.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// countedDaemon serves a replica behind a countingListener adding to n; with
// post set, the replica refuses the stream upgrade.
func countedDaemon(n *atomic.Int64, post bool) daemonFunc {
	return func(_ int, srv *Server) *httptest.Server {
		h := srv.Handler()
		if post {
			next := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { refuseUpgrade(w, r, next) })
		}
		ts := httptest.NewUnstartedServer(h)
		ts.Listener = countingListener{ts.Listener, n}
		ts.Start()
		return ts
	}
}

// TestClusterAllocationsPerQuery pins the ownership of a chunk's bytes: a
// warmed three-daemon cluster — daemons, coordinator and the connections
// between them, all in this process — allocates, per query, less than a
// bound times the bytes the daemons sent. A buffer that stops being recycled
// anywhere on the path (the daemon's frame, the coordinator's body, the
// decoded arena) costs one more copy of every coordinate it ships, which
// alone is another 1.0 on the ratio. Read by POST the bound is 1.5, net/http's
// own garbage included; read by stream it is the floor measured there.
func TestClusterAllocationsPerQuery(t *testing.T) {
	// The Forest Cover Type surrogate (d=53 on a 4-dimensional manifold), as
	// in the repository benchmark's cluster workload: the dimensional test
	// prunes, so what a query moves is the scanned rows' coordinates, not
	// verification probes.
	pts := dataset.FCT(5000, 97).Points
	for _, c := range []struct {
		exchange string
		bound    float64
	}{{"post", 1.5}, {"stream", 0.3}} { // stream: 0.25 measured
		t.Run(c.exchange, func(t *testing.T) {
			var sent atomic.Int64
			cl := startClusterDaemons(t, pts, 3, 1, []repro.Option{repro.WithScale(4)}, countedDaemon(&sent, c.exchange == "post"))
			ctx := context.Background()
			const queries = 200
			run := func() {
				for i := 0; i < queries; i++ {
					if _, err := cl.co.ReverseKNNContext(ctx, (i*13)%len(pts), 10); err != nil {
						t.Fatal(err)
					}
				}
			}
			run() // connections, pools and arenas at their working size
			var before, after runtime.MemStats
			received := sent.Load()
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			perQuery := float64(after.TotalAlloc-before.TotalAlloc) / queries
			wire := float64(sent.Load()-received) / queries
			t.Logf("%.1f KB allocated and %.1f KB received a query (ratio %.3f)", perQuery/1024, wire/1024, perQuery/wire)
			if perQuery > c.bound*wire {
				t.Errorf("a query allocates %.0f bytes to receive %.0f: more than %.2f times what was shipped", perQuery, wire, c.bound)
			}
		})
	}
}
