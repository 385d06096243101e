// The shard description and the one assembly rule that reads it: a
// Coordinator's handshake and OpenSharded's reopen refuse the same
// mismatches, a daemon's description is bounded before anything is sized by
// it, and the replica health loop keeps a replica whose description differs
// from its primary's out of the read rotation — and keeps probing when
// requests carry no timeout.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	repro "repro"
	"repro/internal/index"
	"repro/internal/indextest"
	"repro/internal/vecmath"
)

// TestStaleReplicaStaysDown pins that the health loop never revives a read
// replica that missed writes through the coordinator. The replica is its own
// engine over the same points as the primary; after one insert and one delete
// the two hold the same live count but not the same ID span, so reads must
// keep going to the primary and see the insert.
func TestStaleReplicaStaysDown(t *testing.T) {
	pts := indextest.RandPoints(100, 3, 5)
	spec := repro.ShardSpec{}
	for r := 0; r < 2; r++ {
		eng, err := repro.New(pts, repro.WithScale(100))
		if err != nil {
			t.Fatal(err)
		}
		ds := httptest.NewServer(New(eng, WithShardRole(0, 1)).Handler())
		t.Cleanup(ds.Close)
		spec.Addrs = append(spec.Addrs, ds.URL)
	}
	co, err := repro.NewCoordinator(context.Background(), []repro.ShardSpec{spec},
		repro.WithHealthInterval(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	far := []float64{50, 50, 50}
	id, err := co.Insert(far)
	if err != nil || id != 100 {
		t.Fatalf("Insert = %d, %v; want id 100", id, err)
	}
	if ok, err := co.Delete(5); !ok || err != nil {
		t.Fatalf("Delete(5) = %v, %v", ok, err)
	}
	time.Sleep(300 * time.Millisecond) // fifteen health ticks

	missed := 0
	for i := 0; i < 20; i++ {
		nb, err := co.KNN(far, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(nb) != 1 || nb[0].ID != 100 {
			missed++
		}
	}
	if missed > 0 {
		t.Errorf("%d of 20 reads missed the acknowledged insert: a stale replica was back in the rotation", missed)
	}
}

// TestHealthLoopWithoutRequestTimeout pins that disabling the per-request
// bound (WithRequestTimeout(0)) leaves the health loop probing: healthy
// replicas stay in the rotation instead of timing out before they are asked.
func TestHealthLoopWithoutRequestTimeout(t *testing.T) {
	cl := startCluster(t, indextest.RandPoints(60, 3, 6), 2, 2,
		repro.WithHealthInterval(20*time.Millisecond), repro.WithRequestTimeout(0))
	time.Sleep(200 * time.Millisecond) // ten health ticks
	_, body := rawCall(t, http.MethodGet, cl.ts.URL+"/metrics", "")
	healthy := 0
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "rknn_remote_replica_healthy{") {
			if !strings.HasSuffix(line, " 1") {
				t.Errorf("replica marked down: %s", line)
			}
			healthy++
		}
	}
	if healthy != 4 {
		t.Errorf("%d replica gauges, want 4", healthy)
	}
}

// describedDaemon serves a crafted description on /v1/shard/info and
// nothing else: a daemon that says what the test wants it to say.
func describedDaemon(t *testing.T, d map[string]any) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/shard/info" {
			http.NotFound(w, r)
			return
		}
		_ = json.NewEncoder(w).Encode(d)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestCoordinatorRefusesLyingDescription pins the bounds the assembly rule
// puts on a description before it replays anything: live points within
// [0, id span], and ID spans summing to no more than a shard map can name.
// Shard 0 is honest; shard 1 lies.
func TestCoordinatorRefusesLyingDescription(t *testing.T) {
	m, err := index.RebuildShardMap(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	describe := func(shard, points, span int) map[string]any {
		return map[string]any{
			"shard": shard, "shards": 2, "points": points, "id_span": span, "dim": 3,
			"scale": 100, "plus": true, "margin": 0, "metric_id": 1, "metric_param": 0, "backend": "covertree",
		}
	}
	honest := describedDaemon(t, describe(0, m.ShardLen(0), m.ShardLen(0)))
	for _, c := range []struct {
		name           string
		shard0, shard1 map[string]any
	}{
		{"negative points", nil, describe(1, -1, m.ShardLen(1))},
		{"points above the span", nil, describe(1, m.ShardLen(1)+1, m.ShardLen(1))},
		{"span of 2^40", nil, describe(1, 0, 1<<40)},
		{"spans summing past MaxInt32", describe(0, 0, math.MaxInt32), describe(1, 0, 1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			addr0 := honest
			if c.shard0 != nil {
				addr0 = describedDaemon(t, c.shard0)
			}
			specs := []repro.ShardSpec{{Addrs: []string{addr0}}, {Addrs: []string{describedDaemon(t, c.shard1)}}}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			co, err := repro.NewCoordinator(context.Background(), specs, repro.WithHealthInterval(0))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("coordinator accepted the description (Len %d, IDSpan %d)", co.Len(), co.IDSpan())
			}
			if !strings.Contains(err.Error(), "shard 1") {
				t.Errorf("error does not name the lying shard: %v", err)
			}
			// Refused before the replay: nothing sized by the claimed span.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
				t.Errorf("refusing the description allocated %d bytes", grew)
			}
		})
	}
}

// TestAssemblyRefusesMismatchedShards drives one table of configuration
// mismatches through both readers of the assembly rule: a Coordinator whose
// shard-1 daemon serves a differently configured engine, and OpenSharded over
// a sharded store whose shard-1/ holds a differently configured engine's
// store. Each must be refused with an error naming the field and the shard.
func TestAssemblyRefusesMismatchedShards(t *testing.T) {
	pts := indextest.RandPoints(80, 3, 9)
	parts := splitShards(t, pts, 2)
	wider := make([][]float64, len(parts[1]))
	for i, p := range parts[1] {
		wider[i] = append(append([]float64(nil), p...), 0)
	}
	scale := []repro.Option{repro.WithScale(100)}
	adaptive := []repro.Option{repro.WithAdaptiveScale()}
	for _, c := range []struct {
		field     string
		base, odd []repro.Option
		oddPoints [][]float64
	}{
		{"dimension", scale, scale, wider},
		{"scale", scale, []repro.Option{repro.WithScale(50)}, nil},
		{"plus", scale, []repro.Option{repro.WithScale(100), repro.WithPlainRDT()}, nil},
		{"margin", adaptive, []repro.Option{repro.WithAdaptiveScale(), repro.WithScaleMargin(0.5)}, nil},
		{"back-end", scale, []repro.Option{repro.WithScale(100), repro.WithBackend(repro.BackendScan)}, nil},
		{"metric", scale, []repro.Option{repro.WithScale(100), repro.WithMetric(vecmath.Manhattan{})}, nil},
	} {
		oddPoints := c.oddPoints
		if oddPoints == nil {
			oddPoints = parts[1]
		}
		odd := func(t *testing.T) *repro.Searcher {
			eng, err := repro.New(oddPoints, c.odd...)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
		refused := func(t *testing.T, err error) {
			t.Helper()
			// "shard 1 <field>": the store's path names the field too.
			if err == nil || !strings.Contains(err.Error(), "shard 1 "+c.field) {
				t.Errorf("err = %v, want a refusal naming shard 1's %s", err, c.field)
			}
		}
		t.Run(c.field+"/coordinator", func(t *testing.T) {
			base, err := repro.New(parts[0], c.base...)
			if err != nil {
				t.Fatal(err)
			}
			specs := make([]repro.ShardSpec, 2)
			for s, eng := range []*repro.Searcher{base, odd(t)} {
				ds := httptest.NewServer(New(eng, WithShardRole(s, 2)).Handler())
				t.Cleanup(ds.Close)
				specs[s].Addrs = []string{ds.URL}
			}
			co, err := repro.NewCoordinator(context.Background(), specs, repro.WithHealthInterval(0))
			if err == nil {
				co.Close()
			}
			refused(t, err)
		})
		t.Run(c.field+"/reopen", func(t *testing.T) {
			dir := t.TempDir()
			ss, err := repro.NewSharded(pts, 2, c.base...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := repro.NewDurableSharded(dir, ss); err != nil {
				t.Fatal(err)
			}
			if err := ss.Close(); err != nil {
				t.Fatal(err)
			}
			shard1 := filepath.Join(dir, "shard-1")
			if err := removeAll(shard1); err != nil {
				t.Fatal(err)
			}
			d, err := repro.NewDurable(shard1, odd(t))
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := repro.OpenSharded(dir)
			if err == nil {
				re.Close()
			}
			refused(t, err)
		})
	}
}

// removeAll is os.RemoveAll with a check that something was there.
func removeAll(path string) error {
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("no store to replace: %w", err)
	}
	return os.RemoveAll(path)
}
