package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	repro "repro"
	"repro/internal/bruteforce"
	"repro/internal/indextest"
	"repro/internal/telemetry"
	"repro/internal/vecmath"
)

// newTestServer indexes a small random dataset and returns the engine, the
// exact oracle, and an httptest server over the full route table.
func newTestServer(t *testing.T) (*repro.Searcher, *bruteforce.Truth, *httptest.Server) {
	t.Helper()
	pts := indextest.RandPoints(200, 3, 7)
	s, err := repro.New(pts, repro.WithScale(100))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatalf("bruteforce.New: %v", err)
	}
	ts := httptest.NewServer(New(s).Handler())
	t.Cleanup(ts.Close)
	return s, truth, ts
}

// call posts body to path and decodes the JSON response into out, reporting
// the HTTP status.
func call(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestRkNNEndpoint(t *testing.T) {
	_, truth, ts := newTestServer(t)
	for _, qid := range []int{0, 17, 42, 199} {
		var resp struct {
			IDs []int `json:"ids"`
		}
		status := call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"id": qid, "k": 5}, &resp)
		if status != http.StatusOK {
			t.Fatalf("rknn(%d) status %d", qid, status)
		}
		want, err := truth.RkNNByID(qid, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = []int{}
		}
		if !reflect.DeepEqual(resp.IDs, want) {
			t.Errorf("rknn(%d) = %v, oracle %v", qid, resp.IDs, want)
		}
	}
}

func TestRkNNEndpointByPointAndStats(t *testing.T) {
	_, truth, ts := newTestServer(t)
	q := []float64{0.5, 0.5, 0.5}
	var resp struct {
		IDs []int `json:"ids"`
	}
	if status := call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"point": q, "k": 4}, &resp); status != http.StatusOK {
		t.Fatalf("rknn by point: status %d", status)
	}
	want, err := truth.RkNN(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want == nil {
		want = []int{}
	}
	if !reflect.DeepEqual(resp.IDs, want) {
		t.Errorf("rknn(point) = %v, oracle %v", resp.IDs, want)
	}

	var withStats struct {
		IDs   []int        `json:"ids"`
		Stats *repro.Stats `json:"stats"`
	}
	if status := call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"id": 3, "k": 5, "stats": true}, &withStats); status != http.StatusOK {
		t.Fatalf("rknn with stats: status %d", status)
	}
	if withStats.Stats == nil || withStats.Stats.ScanDepth == 0 {
		t.Errorf("stats missing or empty: %+v", withStats.Stats)
	}

	withStats.Stats = nil
	if status := call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"point": q, "k": 5, "stats": true}, &withStats); status != http.StatusOK {
		t.Fatalf("rknn by point with stats: status %d", status)
	}
	if withStats.Stats == nil || withStats.Stats.ScanDepth == 0 {
		t.Errorf("point-query stats missing or empty: %+v", withStats.Stats)
	}
}

func TestRkNNEndpointErrors(t *testing.T) {
	_, _, ts := newTestServer(t)
	cases := []struct {
		name string
		body any
	}{
		{"neither-id-nor-point", map[string]any{"k": 5}},
		{"both-id-and-point", map[string]any{"id": 1, "point": []float64{1, 2, 3}, "k": 5}},
		{"bad-k", map[string]any{"id": 1, "k": 0}},
		{"id-out-of-range", map[string]any{"id": 10000, "k": 5}},
		{"wrong-dimension", map[string]any{"point": []float64{1}, "k": 5}},
		{"unknown-field", map[string]any{"id": 1, "k": 5, "bogus": true}},
	}
	for _, c := range cases {
		var resp struct {
			Error string `json:"error"`
		}
		if status := call(t, "POST", ts.URL+"/v1/rknn", c.body, &resp); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, status)
		}
		if resp.Error == "" {
			t.Errorf("%s: empty error message", c.name)
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, truth, ts := newTestServer(t)
	qids := []int{0, 5, 9, 100, 150}
	var resp struct {
		Results [][]int `json:"results"`
	}
	if status := call(t, "POST", ts.URL+"/v1/rknn/batch", map[string]any{"ids": qids, "k": 5, "workers": 3}, &resp); status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}
	if len(resp.Results) != len(qids) {
		t.Fatalf("batch returned %d results, want %d", len(resp.Results), len(qids))
	}
	for i, qid := range qids {
		want, err := truth.RkNNByID(qid, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = []int{}
		}
		if !reflect.DeepEqual(resp.Results[i], want) {
			t.Errorf("batch[%d] (qid %d) = %v, oracle %v", i, qid, resp.Results[i], want)
		}
	}
	if status := call(t, "POST", ts.URL+"/v1/rknn/batch", map[string]any{"ids": []int{-1}, "k": 5}, nil); status != http.StatusBadRequest {
		t.Errorf("batch with bad id: status %d, want 400", status)
	}
}

func TestKNNEndpoint(t *testing.T) {
	s, _, ts := newTestServer(t)
	q := []float64{0.2, 0.8, 0.1}
	var resp struct {
		Neighbors []struct {
			ID   int     `json:"id"`
			Dist float64 `json:"dist"`
		} `json:"neighbors"`
	}
	if status := call(t, "POST", ts.URL+"/v1/knn", map[string]any{"point": q, "k": 7}, &resp); status != http.StatusOK {
		t.Fatalf("knn status %d", status)
	}
	want, err := s.KNN(q, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Neighbors) != len(want) {
		t.Fatalf("knn returned %d neighbors, want %d", len(resp.Neighbors), len(want))
	}
	for i := range want {
		if resp.Neighbors[i].ID != want[i].ID || resp.Neighbors[i].Dist != want[i].Dist {
			t.Errorf("knn[%d] = %+v, want %+v", i, resp.Neighbors[i], want[i])
		}
	}
	if status := call(t, "POST", ts.URL+"/v1/knn", map[string]any{"point": []float64{1}, "k": 3}, nil); status != http.StatusBadRequest {
		t.Errorf("knn wrong dim: status %d, want 400", status)
	}
}

func TestPointsInsertDelete(t *testing.T) {
	s, _, ts := newTestServer(t)
	before := s.Len()
	var ins struct {
		ID int `json:"id"`
	}
	if status := call(t, "POST", ts.URL+"/v1/points", map[string]any{"point": []float64{0.5, 0.5, 0.5}}, &ins); status != http.StatusCreated {
		t.Fatalf("insert status %d, want 201", status)
	}
	if ins.ID != before {
		t.Errorf("insert id = %d, want %d", ins.ID, before)
	}
	if s.Len() != before+1 {
		t.Errorf("Len after insert = %d, want %d", s.Len(), before+1)
	}

	var del struct {
		Deleted bool `json:"deleted"`
	}
	if status := call(t, "DELETE", fmt.Sprintf("%s/v1/points/%d", ts.URL, ins.ID), nil, &del); status != http.StatusOK {
		t.Fatalf("delete status %d", status)
	}
	if !del.Deleted || s.Len() != before {
		t.Errorf("delete = %+v, Len = %d, want %d", del, s.Len(), before)
	}
	// A deleted member is rejected as a query anchor, while the highest
	// surviving ID (above Len() once tombstones exist) still answers.
	if status := call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"id": ins.ID, "k": 3}, nil); status != http.StatusBadRequest {
		t.Errorf("rknn on deleted id: status %d, want 400", status)
	}
	if status := call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"id": 199, "k": 3}, nil); status != http.StatusOK {
		t.Errorf("rknn on highest live id: status %d, want 200", status)
	}
	// Deleting again is a 404, as is an unparsable id.
	if status := call(t, "DELETE", fmt.Sprintf("%s/v1/points/%d", ts.URL, ins.ID), nil, nil); status != http.StatusNotFound {
		t.Errorf("double delete status %d, want 404", status)
	}
	if status := call(t, "DELETE", ts.URL+"/v1/points/xyzzy", nil, nil); status != http.StatusBadRequest {
		t.Errorf("bad id delete status %d, want 400", status)
	}
	// An insert with the wrong dimension is rejected.
	if status := call(t, "POST", ts.URL+"/v1/points", map[string]any{"point": []float64{1}}, nil); status != http.StatusBadRequest {
		t.Errorf("bad insert status %d, want 400", status)
	}
}

func TestPointsBatchInsert(t *testing.T) {
	s, _, ts := newTestServer(t)
	before := s.Len()
	batch := [][]float64{{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}, {0.7, 0.8, 0.9}}
	var resp struct {
		IDs []int `json:"ids"`
	}
	if status := call(t, "POST", ts.URL+"/v1/points/batch", map[string]any{"points": batch}, &resp); status != http.StatusCreated {
		t.Fatalf("batch insert status %d, want 201", status)
	}
	if want := []int{before, before + 1, before + 2}; !reflect.DeepEqual(resp.IDs, want) {
		t.Errorf("batch ids = %v, want %v", resp.IDs, want)
	}
	if s.Len() != before+3 {
		t.Errorf("Len after batch = %d, want %d", s.Len(), before+3)
	}
	// A batch with any invalid member is rejected whole: nothing lands.
	bad := [][]float64{{0.1, 0.2, 0.3}, {1}}
	if status := call(t, "POST", ts.URL+"/v1/points/batch", map[string]any{"points": bad}, nil); status != http.StatusBadRequest {
		t.Errorf("bad batch status %d, want 400", status)
	}
	if s.Len() != before+3 {
		t.Errorf("Len after rejected batch = %d, want %d (atomic batch)", s.Len(), before+3)
	}
	if status := call(t, "POST", ts.URL+"/v1/points/batch", map[string]any{"points": [][]float64{}}, nil); status != http.StatusBadRequest {
		t.Errorf("empty batch status %d, want 400", status)
	}

	// The new points answer queries immediately (they live in the overlay
	// memtable until the background compactor folds them).
	if status := call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"id": resp.IDs[2], "k": 3}, nil); status != http.StatusOK {
		t.Errorf("rknn on batch-inserted id: status %d, want 200", status)
	}
}

func TestHealthAndStats(t *testing.T) {
	s, _, ts := newTestServer(t)
	var health struct {
		Status string `json:"status"`
		Points int    `json:"points"`
		Dim    int    `json:"dim"`
	}
	if status := call(t, "GET", ts.URL+"/healthz", nil, &health); status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	if health.Status != "ok" || health.Points != s.Len() || health.Dim != s.Dim() {
		t.Errorf("healthz = %+v", health)
	}

	// Generate traffic, including one failure, then check the counters and
	// the histogram-derived latency quantiles.
	call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"id": 1, "k": 3}, nil)
	call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"k": 3}, nil)
	var stats struct {
		Endpoints map[string]struct {
			Requests int64   `json:"requests"`
			Errors   int64   `json:"errors"`
			P50US    float64 `json:"p50_us"`
			P95US    float64 `json:"p95_us"`
			P99US    float64 `json:"p99_us"`
			MeanUS   float64 `json:"mean_us"`
		} `json:"endpoints"`
		Engine struct {
			Points         int     `json:"points"`
			Scale          float64 `json:"scale"`
			MemtablePoints *int    `json:"memtable_points"`
			Compactions    *int64  `json:"compactions"`
		} `json:"engine"`
	}
	if status := call(t, "GET", ts.URL+"/statsz", nil, &stats); status != http.StatusOK {
		t.Fatalf("statsz status %d", status)
	}
	// The incremental write path surfaces its memtable and compaction
	// counters for any engine exposing them (all repro engines do).
	if stats.Engine.MemtablePoints == nil || stats.Engine.Compactions == nil {
		t.Errorf("statsz engine missing memtable_points/compactions: %+v", stats.Engine)
	}
	rknn := stats.Endpoints["/v1/rknn"]
	if rknn.Requests < 2 || rknn.Errors < 1 {
		t.Errorf("statsz /v1/rknn = %+v, want >=2 requests and >=1 error", rknn)
	}
	if !(rknn.P50US > 0) || rknn.P99US < rknn.P50US || !(rknn.MeanUS > 0) {
		t.Errorf("statsz /v1/rknn quantiles = %+v, want p50 > 0 and p99 >= p50", rknn)
	}
	if stats.Engine.Points != s.Len() || stats.Engine.Scale != s.Scale() {
		t.Errorf("statsz engine = %+v", stats.Engine)
	}
}

// TestConcurrentTraffic hammers the server with parallel query and update
// requests — the serving-layer face of the snapshot guarantee. Run under
// -race this is an end-to-end data-race check on the full HTTP path.
func TestConcurrentTraffic(t *testing.T) {
	_, _, ts := newTestServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var resp struct {
					IDs []int `json:"ids"`
				}
				if status := call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"id": (g*31 + i) % 200, "k": 4}, &resp); status != http.StatusOK {
					t.Errorf("goroutine %d: rknn status %d", g, status)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			p := []float64{float64(i) / 20, 0.5, 0.5}
			if status := call(t, "POST", ts.URL+"/v1/points", map[string]any{"point": p}, nil); status != http.StatusCreated {
				t.Errorf("insert %d: status %d", i, status)
				return
			}
		}
	}()
	wg.Wait()
}

// TestBatchHonorsRequestCancellation checks that a cancelled request context
// aborts a batch: the handler surfaces the context error as a 400 rather
// than completing the full batch.
func TestBatchHonorsRequestCancellation(t *testing.T) {
	_, _, ts := newTestServer(t)
	qids := make([]int, 200)
	for i := range qids {
		qids[i] = i
	}
	body, err := json.Marshal(map[string]any{"ids": qids, "k": 5, "workers": 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before dispatch: server must abort, not serve
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/rknn/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Error("request with cancelled context succeeded")
	}
}

// TestSnapshotEndpointWithoutStore: an in-memory engine answers 501 on the
// admin snapshot route.
func TestSnapshotEndpointWithoutStore(t *testing.T) {
	_, _, ts := newTestServer(t)
	var errResp map[string]string
	if status := call(t, "POST", ts.URL+"/v1/admin/snapshot", nil, &errResp); status != http.StatusNotImplemented {
		t.Errorf("snapshot on in-memory engine: status %d, want 501", status)
	}
	if errResp["error"] == "" {
		t.Error("501 response carries no error message")
	}
	// The engine types carry the store methods with or without a store; an
	// in-memory engine must still show no durability surface anywhere.
	var stats struct {
		Engine map[string]any `json:"engine"`
	}
	if status := call(t, "GET", ts.URL+"/statsz", nil, &stats); status != http.StatusOK {
		t.Fatalf("statsz status %d", status)
	}
	if gen, ok := stats.Engine["generation"]; ok {
		t.Errorf("statsz of an in-memory engine reports generation %v", gen)
	}
	if _, body := rawCall(t, http.MethodGet, ts.URL+"/metrics", ""); strings.Contains(string(body), "rknn_store_generation") {
		t.Error("/metrics of an in-memory engine exposes rknn_store_generation")
	}
	ss, err := repro.NewSharded(indextest.RandPoints(60, 3, 7), 3, repro.WithScale(100))
	if err != nil {
		t.Fatal(err)
	}
	sharded := httptest.NewServer(New(ss).Handler())
	t.Cleanup(sharded.Close)
	if status := call(t, "POST", sharded.URL+"/v1/admin/snapshot", nil, &errResp); status != http.StatusNotImplemented {
		t.Errorf("snapshot on in-memory sharded engine: status %d, want 501", status)
	}
}

// TestSnapshotEndpointDurable: with a durable engine the route cuts a new
// generation, reports it, and is counted in /statsz.
func TestSnapshotEndpointDurable(t *testing.T) {
	pts := indextest.RandPoints(100, 2, 9)
	s, err := repro.New(pts, repro.WithScale(50))
	if err != nil {
		t.Fatal(err)
	}
	d, err := repro.NewDurable(t.TempDir(), s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	ts := httptest.NewServer(New(d).Handler())
	t.Cleanup(ts.Close)

	var resp struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
		Points     int    `json:"points"`
	}
	if status := call(t, "POST", ts.URL+"/v1/admin/snapshot", nil, &resp); status != http.StatusOK {
		t.Fatalf("snapshot status %d", status)
	}
	if resp.Status != "ok" || resp.Generation != 2 || resp.Points != 100 {
		t.Errorf("snapshot response %+v", resp)
	}

	var stats struct {
		Endpoints map[string]map[string]any `json:"endpoints"`
		Engine    map[string]any            `json:"engine"`
	}
	if status := call(t, "GET", ts.URL+"/statsz", nil, &stats); status != http.StatusOK {
		t.Fatalf("statsz status %d", status)
	}
	if got, _ := stats.Endpoints["/v1/admin/snapshot"]["requests"].(float64); got != 1 {
		t.Errorf("statsz counted %v snapshot requests, want 1", got)
	}
	if gen, ok := stats.Engine["generation"].(float64); !ok || gen != 2 {
		t.Errorf("statsz engine generation = %v", stats.Engine["generation"])
	}
	if _, body := rawCall(t, http.MethodGet, ts.URL+"/metrics", ""); !strings.Contains(string(body), "rknn_store_generation 2") {
		t.Error("/metrics of a durable engine does not expose rknn_store_generation 2")
	}
}

// TestShardedEngineEndToEnd serves a ShardedSearcher through the full route
// table: queries agree with the oracle, writes route to the right shards,
// and /statsz reports the per-shard counters.
func TestShardedEngineEndToEnd(t *testing.T) {
	pts := indextest.RandPoints(180, 3, 15)
	ss, err := repro.NewSharded(pts, 3, repro.WithScale(100), repro.WithPlainRDT())
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(ss).Handler())
	t.Cleanup(ts.Close)

	for _, qid := range []int{0, 59, 179} {
		var resp struct {
			IDs []int `json:"ids"`
		}
		if status := call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"id": qid, "k": 5}, &resp); status != http.StatusOK {
			t.Fatalf("rknn(%d) status %d", qid, status)
		}
		want, err := truth.RkNNByID(qid, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 0 && !reflect.DeepEqual(resp.IDs, want) {
			t.Errorf("rknn(%d) = %v, oracle %v", qid, resp.IDs, want)
		}
	}

	var batch struct {
		Results [][]int `json:"results"`
	}
	if status := call(t, "POST", ts.URL+"/v1/rknn/batch", map[string]any{"ids": []int{1, 2, 3, 4}, "k": 4}, &batch); status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}
	if len(batch.Results) != 4 {
		t.Fatalf("batch returned %d results", len(batch.Results))
	}

	var ins struct {
		ID int `json:"id"`
	}
	if status := call(t, "POST", ts.URL+"/v1/points", map[string]any{"point": []float64{0.5, 0.5, 0.5}}, &ins); status != http.StatusCreated {
		t.Fatalf("insert status %d", status)
	}
	if ins.ID != 180 {
		t.Errorf("insert assigned global id %d, want 180", ins.ID)
	}
	if status := call(t, "DELETE", fmt.Sprintf("%s/v1/points/%d", ts.URL, ins.ID), nil, nil); status != http.StatusOK {
		t.Errorf("delete status %d", status)
	}

	var stats struct {
		Engine struct {
			ShardCount int `json:"shard_count"`
			Shards     []struct {
				Shard   int   `json:"shard"`
				Points  int   `json:"points"`
				Queries int64 `json:"queries"`
			} `json:"shards"`
		} `json:"engine"`
	}
	if status := call(t, "GET", ts.URL+"/statsz", nil, &stats); status != http.StatusOK {
		t.Fatalf("statsz status %d", status)
	}
	if stats.Engine.ShardCount != 3 || len(stats.Engine.Shards) != 3 {
		t.Fatalf("statsz shards = %+v", stats.Engine)
	}
	totalPts, totalQ := 0, int64(0)
	for _, sh := range stats.Engine.Shards {
		totalPts += sh.Points
		totalQ += sh.Queries
	}
	if totalPts != 180 {
		t.Errorf("statsz shard points sum to %d, want 180", totalPts)
	}
	if totalQ == 0 {
		t.Error("statsz reports zero shard queries after serving traffic")
	}
}

// TestMetricsEndpoint scrapes /metrics on a server sharing its registry
// with the engine: the exposition must carry both the HTTP latency
// histograms and the engine's pruning counters, and every line must be
// well-formed Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	pts := indextest.RandPoints(150, 3, 21)
	reg := telemetry.NewRegistry()
	s, err := repro.New(pts, repro.WithScale(100))
	if err != nil {
		t.Fatal(err)
	}
	s.EnableTelemetry(reg)
	ts := httptest.NewServer(New(s, WithRegistry(reg)).Handler())
	t.Cleanup(ts.Close)

	var withStats struct {
		Stats *repro.Stats `json:"stats"`
	}
	call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"id": 3, "k": 5, "stats": true}, &withStats)
	if withStats.Stats == nil {
		t.Fatal("no stats in response")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, telemetry.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	// Line-by-line shape check: every non-comment line is name{labels} value.
	sampleLine := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("malformed exposition line %d: %q", i+1, line)
		}
	}

	for _, want := range []string{
		`rknn_queries_total{backend="covertree",op="rknn"} 1`,
		fmt.Sprintf(`rknn_candidates_excluded_total{backend="covertree"} %d`, withStats.Stats.Excluded),
		fmt.Sprintf(`rknn_candidates_lazy_settled_total{backend="covertree"} %d`,
			withStats.Stats.LazyAccepts+withStats.Stats.LazyRejects),
		`rknn_http_requests_total{route="/v1/rknn"} 1`,
		`rknn_http_request_duration_seconds_bucket{route="/v1/rknn",le="+Inf"} 1`,
		"rknn_points 150",
		"# TYPE rknn_http_request_duration_seconds histogram",
		"# TYPE rknn_pruning_ratio gauge",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}

// sampleValue extracts one sample from a registry by family name and label
// set, failing the test when absent.
func sampleValue(t *testing.T, reg *telemetry.Registry, name string, labels ...telemetry.Label) float64 {
	t.Helper()
	for _, f := range reg.Gather() {
		if f.Name != name {
			continue
		}
	samples:
		for _, s := range f.Samples {
			for _, want := range labels {
				found := false
				for _, l := range s.Labels {
					if l == want {
						found = true
						break
					}
				}
				if !found {
					continue samples
				}
			}
			return s.Value
		}
	}
	t.Fatalf("no sample %s%v in registry", name, labels)
	return 0
}

// TestBatchTelemetryRecordsSuccessesOnMemberFailure pins the batch
// accounting bugfix end to end: a batch whose members partly fail makes the
// HTTP layer count one route error, while the engine still records every
// member that succeeded before the failure surfaced — previously the error
// return skipped the telemetry block and the successes vanished.
func TestBatchTelemetryRecordsSuccessesOnMemberFailure(t *testing.T) {
	pts := indextest.RandPoints(150, 3, 29)
	reg := telemetry.NewRegistry()
	s, err := repro.New(pts, repro.WithScale(100))
	if err != nil {
		t.Fatal(err)
	}
	s.EnableTelemetry(reg)
	ts := httptest.NewServer(New(s, WithRegistry(reg)).Handler())
	t.Cleanup(ts.Close)

	// Manufacture a member that fails mid-batch: a tombstoned ID.
	deleted := 42
	if ok, err := s.Delete(deleted); !ok || err != nil {
		t.Fatalf("Delete(%d) = (%v, %v)", deleted, ok, err)
	}
	var errResp map[string]string
	status := call(t, "POST", ts.URL+"/v1/rknn/batch",
		map[string]any{"ids": []int{0, 1, deleted, 2}, "k": 5}, &errResp)
	if status != http.StatusBadRequest {
		t.Fatalf("batch with deleted member: status %d, want 400", status)
	}
	if !strings.Contains(errResp["error"], "query") {
		t.Errorf("error %q does not name the failing query", errResp["error"])
	}

	backend := telemetry.Label{Name: "backend", Value: "covertree"}
	if got := sampleValue(t, reg, "rknn_queries_total", backend,
		telemetry.Label{Name: "op", Value: "batch"}); got != 3 {
		t.Errorf("rknn_queries_total{op=batch} = %v, want 3 successful members", got)
	}
	if got := sampleValue(t, reg, "rknn_http_request_errors_total",
		telemetry.Label{Name: "route", Value: "/v1/rknn/batch"}); got != 1 {
		t.Errorf("route errors = %v, want 1", got)
	}
	if got := sampleValue(t, reg, "rknn_http_requests_total",
		telemetry.Label{Name: "route", Value: "/v1/rknn/batch"}); got != 1 {
		t.Errorf("route requests = %v, want 1", got)
	}
}

// TestRequestBodyLimit: a body past the decoder bound gets a 413 with a
// JSON error instead of being buffered.
func TestRequestBodyLimit(t *testing.T) {
	_, _, ts := newTestServer(t)
	huge := append([]byte(`{"k":5,"point":[`), bytes.Repeat([]byte("0.1,"), 1<<19)...)
	huge = append(huge, []byte("0.1]}")...)
	resp, err := http.Post(ts.URL+"/v1/rknn", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var errResp map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&errResp); err != nil {
		t.Fatalf("413 body is not JSON: %v", err)
	}
	if errResp["error"] == "" {
		t.Error("413 response carries no error message")
	}
}

// TestSlowlogEndpoint: with a zero threshold every request is retained,
// newest first, with its route, latency and (for failures) error.
func TestSlowlogEndpoint(t *testing.T) {
	pts := indextest.RandPoints(120, 2, 5)
	s, err := repro.New(pts, repro.WithScale(50))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(s, WithSlowLog(0, 4)).Handler())
	t.Cleanup(ts.Close)

	call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"id": 1, "k": 3}, nil)
	call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"k": 3}, nil) // error entry

	var slowlog struct {
		ThresholdUS int64 `json:"threshold_us"`
		Capacity    int   `json:"capacity"`
		Total       int64 `json:"total"`
		Entries     []struct {
			Route      string `json:"route"`
			Detail     string `json:"detail"`
			DurationUS int64  `json:"duration_us"`
			Error      string `json:"error"`
		} `json:"entries"`
	}
	if status := call(t, "GET", ts.URL+"/v1/admin/slowlog", nil, &slowlog); status != http.StatusOK {
		t.Fatalf("slowlog status %d", status)
	}
	if slowlog.Capacity != 4 || slowlog.ThresholdUS != 0 {
		t.Errorf("slowlog config = %+v", slowlog)
	}
	if slowlog.Total != 2 || len(slowlog.Entries) != 2 {
		t.Fatalf("slowlog recorded %d/%d entries, want 2", slowlog.Total, len(slowlog.Entries))
	}
	// Newest first: the failing request came last.
	if slowlog.Entries[0].Error == "" || slowlog.Entries[1].Error != "" {
		t.Errorf("slowlog order/errors wrong: %+v", slowlog.Entries)
	}
	for _, e := range slowlog.Entries {
		if e.Route != "/v1/rknn" || e.Detail != "POST /v1/rknn" {
			t.Errorf("slowlog entry = %+v", e)
		}
	}
}

// TestApproximateMarker pins that the approximate marker is gone: every
// engine is exact, so no query response and no /statsz engine section
// carries an "approximate" key a client could read either way.
func TestApproximateMarker(t *testing.T) {
	_, _, ts := newTestServer(t)
	for _, c := range []struct {
		method, path string
		body         any
	}{
		{"POST", "/v1/rknn", map[string]any{"id": 1, "k": 5}},
		{"POST", "/v1/rknn/batch", map[string]any{"ids": []int{1, 2}, "k": 5}},
		{"POST", "/v1/knn", map[string]any{"point": []float64{0.5, 0.5, 0.5}, "k": 3}},
	} {
		var resp map[string]json.RawMessage
		if status := call(t, c.method, ts.URL+c.path, c.body, &resp); status != http.StatusOK {
			t.Fatalf("%s status %d", c.path, status)
		}
		if _, present := resp["approximate"]; present {
			t.Errorf("%s response carries an approximate marker", c.path)
		}
	}
	var stats struct {
		Engine map[string]json.RawMessage `json:"engine"`
	}
	if status := call(t, "GET", ts.URL+"/statsz", nil, &stats); status != http.StatusOK {
		t.Fatalf("statsz status %d", status)
	}
	if _, present := stats.Engine["approximate"]; present {
		t.Error("/statsz engine section carries an approximate marker")
	}
}

// promHistogram parses one route's cumulative histogram out of the
// /metrics exposition into a telemetry.HistSnapshot, so statsz quantiles
// can be recomputed from exactly what a Prometheus scraper would see.
func promHistogram(t *testing.T, exposition, name, route string) *telemetry.HistSnapshot {
	t.Helper()
	snap := &telemetry.HistSnapshot{}
	var cum []float64
	prevCount := 0.0
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, name+"_bucket") || !strings.Contains(line, `route="`+route+`"`) {
			if strings.HasPrefix(line, name+"_sum") && strings.Contains(line, `route="`+route+`"`) {
				fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &snap.Sum)
			}
			continue
		}
		le := line[strings.Index(line, `le="`)+4:]
		le = le[:strings.Index(le, `"`)]
		var v float64
		fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v)
		delta := v - prevCount
		prevCount = v
		if le == "+Inf" {
			snap.Counts = append(snap.Counts, uint64(delta))
			continue
		}
		var bound float64
		fmt.Sscanf(le, "%g", &bound)
		cum = append(cum, bound)
		snap.Counts = append(snap.Counts, uint64(delta))
	}
	snap.Bounds = cum
	for _, c := range snap.Counts {
		snap.Count += c
	}
	return snap
}

// TestStatszQuantilesMatchMetricsInDegenerateRegimes pins that /statsz and
// /metrics describe the same distribution in the two regimes the histogram
// layout cannot resolve: every observation in the +Inf overflow bucket,
// and no observations at all. The statsz quantiles must be finite,
// JSON-encodable, and equal to the quantiles recomputed from the /metrics
// bucket counts.
func TestStatszQuantilesMatchMetricsInDegenerateRegimes(t *testing.T) {
	pts := indextest.RandPoints(60, 2, 3)
	s, err := repro.New(pts, repro.WithScale(50))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(s)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Overflow regime: feed the /v1/rknn route observations far beyond the
	// highest finite latency bound (~21s) straight into its histogram.
	for i := 0; i < 5; i++ {
		srv.stats["/v1/rknn"].latency.Observe(100)
		srv.stats["/v1/rknn"].requests.Inc()
	}

	var statsz struct {
		Endpoints map[string]map[string]float64 `json:"endpoints"`
	}
	if status := call(t, "GET", ts.URL+"/statsz", nil, &statsz); status != http.StatusOK {
		t.Fatalf("statsz status %d", status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(raw)

	ep, ok := statsz.Endpoints["/v1/rknn"]
	if !ok {
		t.Fatal("statsz missing /v1/rknn")
	}
	fromMetrics := promHistogram(t, exposition, "rknn_http_request_duration_seconds", "/v1/rknn")
	if fromMetrics.Count != 5 {
		t.Fatalf("metrics histogram count %d, want 5", fromMetrics.Count)
	}
	for _, q := range []struct {
		key string
		q   float64
	}{{"p50_us", 0.50}, {"p95_us", 0.95}, {"p99_us", 0.99}} {
		got := ep[q.key]
		want := fromMetrics.Quantile(q.q) * 1e6
		if got != want {
			t.Errorf("overflow regime: statsz %s = %v, metrics-derived %v", q.key, got, want)
		}
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Errorf("overflow regime: statsz %s = %v, want finite", q.key, got)
		}
	}

	// Empty regime: a route that served nothing omits its quantile keys
	// (nothing to report beats reporting a fabricated zero), and the whole
	// document decoded cleanly above — both surfaces JSON/text-encodable.
	if ep, ok := statsz.Endpoints["/v1/knn"]; ok {
		if _, present := ep["p50_us"]; present {
			t.Error("empty regime: statsz fabricated quantiles for an unserved route")
		}
	}
	if h := promHistogram(t, exposition, "rknn_http_request_duration_seconds", "/v1/knn"); h.Count != 0 {
		t.Errorf("empty regime: metrics histogram count %d, want 0", h.Count)
	}
}

// TestNewResolvesEngineSurfaces pins what New reads from each engine kind,
// once: a Searcher holds rows and serves a shard, a ShardedSearcher holds
// rows across shards, a Coordinator only fans out.
func TestNewResolvesEngineSurfaces(t *testing.T) {
	pts := indextest.RandPoints(90, 3, 4)
	s, err := repro.New(pts, repro.WithScale(100))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := repro.NewSharded(pts, 3, repro.WithScale(100))
	if err != nil {
		t.Fatal(err)
	}
	co := startCluster(t, pts, 3, 1).co
	for _, c := range []struct {
		name                  string
		eng                   Engine
		local, sharded, shard bool
	}{
		{"Searcher", s, true, false, true},
		{"ShardedSearcher", ss, true, true, false},
		{"Coordinator", co, false, true, false},
	} {
		srv := New(c.eng)
		if got := [3]bool{srv.local != nil, srv.sharded != nil, srv.shardSv != nil}; got != [3]bool{c.local, c.sharded, c.shard} {
			t.Errorf("%s resolves (local, sharded, shard-serving) = %v, want %v", c.name, got, [3]bool{c.local, c.sharded, c.shard})
		}
	}
}
