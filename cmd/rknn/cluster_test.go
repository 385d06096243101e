package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// role is one running serving subcommand: its base URL and, once stopped,
// its output.
type role struct {
	base   string
	out    bytes.Buffer
	cancel context.CancelFunc
	done   chan error
}

// startRole runs a serving subcommand (runServe, runShardServe or
// runCoordinate) until its listener is up.
func startRole(t *testing.T, run func(context.Context, []string, io.Writer, chan<- net.Addr) error, args ...string) *role {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	r := &role{cancel: cancel, done: make(chan error, 1)}
	ready := make(chan net.Addr, 1)
	go func() { r.done <- run(ctx, args, &r.out, ready) }()
	select {
	case addr := <-ready:
		r.base = "http://" + addr.String()
		return r
	case err := <-r.done:
		cancel()
		t.Fatalf("%v exited before listening: %v\n%s", args, err, r.out.String())
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatalf("%v: timed out waiting for the listener", args)
	}
	panic("unreachable")
}

// stop cancels the role and returns its output once it has drained.
func (r *role) stop(t *testing.T) string {
	t.Helper()
	r.cancel()
	select {
	case err := <-r.done:
		if err != nil {
			t.Fatalf("role returned %v after shutdown:\n%s", err, r.out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for graceful shutdown")
	}
	return r.out.String()
}

// TestClusterRolesShareTheServingPath runs a two-daemon cluster through the
// CLI. shard-serve and coordinate go through the serving path `rknn serve`
// does: each engine is bound to its server's registry and trace ring, and
// every role prints the same metrics digest when it drains.
func TestClusterRolesShareTheServingPath(t *testing.T) {
	data := []string{"-data", "uniform", "-n", "300", "-dim", "4", "-t", "20"}
	var daemons []*role
	for _, shard := range []string{"0", "1"} {
		daemons = append(daemons, startRole(t, runShardServe,
			append([]string{"-addr", "127.0.0.1:0", "-shard", shard, "-shards", "2"}, data...)...))
	}
	co := startRole(t, runCoordinate, "-addr", "127.0.0.1:0", "-health-interval", "0",
		"-shard", strings.TrimPrefix(daemons[0].base, "http://"),
		"-shard", strings.TrimPrefix(daemons[1].base, "http://"))

	for _, id := range []string{"3", "5", "8"} {
		postJSON(t, co.base+"/v1/rknn", `{"id":`+id+`,"k":5}`)
	}
	metrics := string(getJSON(t, co.base+"/metrics"))
	for _, want := range []string{`rknn_queries_total{backend="covertree",op="rknn"} 3`, "rknn_remote_shard_requests_total", `rknn_http_requests_total{route="/v1/rknn"} 3`} {
		if !strings.Contains(metrics, want) {
			t.Errorf("coordinator /metrics lacks %q", want)
		}
	}
	for _, r := range []*role{co, daemons[0]} {
		resp, err := http.Get(r.base + "/v1/admin/traces")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s/v1/admin/traces = %d, want 200 (tracing is on by default on every role)", r.base, resp.StatusCode)
		}
	}

	out := co.stop(t)
	for _, want := range []string{"rknn coordinate: 2 shards (2 replicas), 300 points", "rknn coordinate: pruning:", "rknn coordinate: shut down cleanly"} {
		if !strings.Contains(out, want) {
			t.Errorf("coordinator output lacks %q:\n%s", want, out)
		}
	}
	for _, d := range daemons {
		if out := d.stop(t); !strings.Contains(out, "covertree back-end") || !strings.Contains(out, "rknn shard-serve: shut down cleanly") {
			t.Errorf("shard daemon output lacks its banner or shutdown line:\n%s", out)
		}
	}
}
