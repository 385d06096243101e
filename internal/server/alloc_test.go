//go:build !race

// Under the race detector sync.Pool drops a share of its Puts, so the pin
// below would measure the detector, not the cluster; CI runs it in the
// allocation step, without -race.

package server

import (
	"context"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"

	repro "repro"
	"repro/internal/dataset"
)

// receivedBytes counts the response bytes the daemons declare to a
// coordinator — every frame carries its Content-Length.
type receivedBytes struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (c *receivedBytes) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err == nil && resp.ContentLength > 0 {
		c.n.Add(resp.ContentLength)
	}
	return resp, err
}

// TestClusterAllocationsPerQuery pins the ownership of a chunk's bytes: a
// warmed three-daemon cluster — daemons, coordinator and the HTTP between
// them, all in this process — allocates, per query, less than 1.5 times the
// response bytes the coordinator received. A buffer that stops being
// recycled anywhere on the path (the daemon's frame, the coordinator's body,
// the decoded arena) costs one more copy of every coordinate it ships, which
// alone is another 1.0 on the ratio.
func TestClusterAllocationsPerQuery(t *testing.T) {
	// The Forest Cover Type surrogate (d=53 on a 4-dimensional manifold), as
	// in the repository benchmark's cluster workload: the dimensional test
	// prunes, so what a query moves is the scanned rows' coordinates, not
	// verification probes.
	pts := dataset.FCT(5000, 97).Points
	counted := &receivedBytes{base: http.DefaultTransport}
	cl := startClusterWith(t, pts, 3, 1, []repro.Option{repro.WithScale(4)}, repro.WithTransport(counted))
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
	received := counted.n.Load()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perQuery := float64(after.TotalAlloc-before.TotalAlloc) / queries
	wire := float64(counted.n.Load()-received) / queries
	t.Logf("%.1f KB allocated and %.1f KB of responses received a query (ratio %.2f)", perQuery/1024, wire/1024, perQuery/wire)
	if perQuery > 1.5*wire {
		t.Errorf("a query allocates %.0f bytes to receive %.0f: more than 1.5 times what was shipped", perQuery, wire)
	}
}
