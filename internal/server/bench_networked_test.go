package server

import (
	"context"
	"net/http/httptest"
	"runtime"
	"testing"

	repro "repro"
	"repro/internal/benchjson"
	"repro/internal/dataset"
)

// BenchmarkNetworked measures scatter-gather batch throughput over a
// 3-daemon loopback cluster speaking the binary shard protocol: one frame
// per shard for the RkNN scatter, the candidate points and the
// verification counts. Every run refreshes the "networked" section of
// BENCH_shard.json next to the in-process "sharded" numbers from
// BenchmarkSharded.
func BenchmarkNetworked(b *testing.B) {
	data := dataset.FCT(2000, 1)
	qids := make([]int, 64)
	for i := range qids {
		qids[i] = (i * 7) % data.Len()
	}
	cl := startClusterBench(b, data.Points, 3)
	var qps float64
	b.Run("S=3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cl.co.BatchReverseKNNContext(context.Background(), qids, 10, 0); err != nil {
				b.Fatal(err)
			}
		}
		qps = float64(len(qids)) * float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(qps, "queries/s")
	})
	if qps > 0 {
		if err := benchjson.Merge("../../BENCH_shard.json", "networked", "sharded", map[string]any{
			"benchmark":          "BenchmarkNetworked",
			"dataset":            "fct-2000",
			"shards":             3,
			"transport":          "loopback-http",
			"batch":              len(qids),
			"k":                  10,
			"gomaxprocs":         runtime.GOMAXPROCS(0),
			"queries_per_second": qps,
		}); err != nil {
			b.Logf("could not write BENCH_shard.json: %v", err)
		}
	}
}

// startClusterBench is startCluster minus the tracing and slowlog layers
// the tests hang diagnostics off — the daemons here run the production
// fast path, so the benchmark measures the protocol, not the test harness.
func startClusterBench(b *testing.B, pts [][]float64, S int) *cluster {
	b.Helper()
	parts := splitShards(b, pts, S)
	specs := make([]repro.ShardSpec, S)
	out := &cluster{}
	for s := 0; s < S; s++ {
		eng, err := repro.New(parts[s], repro.WithScale(6))
		if err != nil {
			b.Fatalf("shard %d engine: %v", s, err)
		}
		ds := httptest.NewServer(New(eng, WithShardRole(s, S)).Handler())
		b.Cleanup(ds.Close)
		specs[s].Addrs = []string{ds.URL}
	}
	co, err := repro.NewCoordinator(context.Background(), specs, repro.WithHealthInterval(0))
	if err != nil {
		b.Fatalf("NewCoordinator: %v", err)
	}
	b.Cleanup(func() { co.Close() })
	out.co = co
	return out
}
