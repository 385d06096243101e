package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	repro "repro"
	"repro/internal/indextest"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// newLiveServer builds a telemetry-enabled engine behind the full route
// table, optionally with an SLO and tracing — the live-operations test
// fixture: windowed /statsz, /v1/admin/slo, /v1/admin/analytics and
// OpenMetrics exemplars all need the same wiring.
func newLiveServer(t *testing.T, extra ...Option) (*telemetry.Registry, *httptest.Server) {
	t.Helper()
	pts := indextest.RandPoints(200, 3, 7)
	reg := telemetry.NewRegistry()
	s, err := repro.New(pts, repro.WithScale(100))
	if err != nil {
		t.Fatal(err)
	}
	s.EnableTelemetry(reg)
	ts := httptest.NewServer(New(s, append([]Option{WithRegistry(reg)}, extra...)...).Handler())
	t.Cleanup(ts.Close)
	return reg, ts
}

func TestStatszWindowedViews(t *testing.T) {
	_, ts := newLiveServer(t)
	for i := 0; i < 12; i++ {
		call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"id": i, "k": 5}, nil)
	}
	var stats struct {
		Endpoints map[string]struct {
			Requests float64 `json:"requests"`
			Windows  map[string]struct {
				Count float64 `json:"count"`
				QPS   float64 `json:"qps"`
				P50US float64 `json:"p50_us"`
				P99US float64 `json:"p99_us"`
			} `json:"windows"`
		} `json:"endpoints"`
		Engine struct {
			Ops map[string]map[string]struct {
				Count float64 `json:"count"`
			} `json:"ops"`
			Windows map[string]struct {
				Generated    float64 `json:"candidates_generated"`
				PruningRatio float64 `json:"pruning_ratio"`
				Recall       float64 `json:"recall_estimate"`
			} `json:"windows"`
		} `json:"engine"`
	}
	if status := call(t, "GET", ts.URL+"/statsz", nil, &stats); status != http.StatusOK {
		t.Fatalf("statsz status %d", status)
	}
	ep, ok := stats.Endpoints["/v1/rknn"]
	if !ok {
		t.Fatal("statsz missing /v1/rknn")
	}
	for _, win := range []string{"1m", "5m"} {
		w, ok := ep.Windows[win]
		if !ok {
			t.Fatalf("route windows missing %q: %+v", win, ep.Windows)
		}
		// The 12 requests just happened, so they are inside both windows.
		if w.Count != 12 || w.QPS <= 0 {
			t.Fatalf("%s window = %+v, want count 12 with a positive rate", win, w)
		}
		if w.P99US < w.P50US || w.P50US <= 0 {
			t.Fatalf("%s window quantiles not ordered: %+v", win, w)
		}
	}
	opWin, ok := stats.Engine.Ops["rknn"]
	if !ok {
		t.Fatalf("engine ops missing rknn: %v", stats.Engine.Ops)
	}
	if opWin["1m"].Count != 12 {
		t.Fatalf("engine op 1m count = %v, want 12", opWin["1m"].Count)
	}
	ew, ok := stats.Engine.Windows["1m"]
	if !ok {
		t.Fatal("engine windows missing 1m")
	}
	if ew.Generated <= 0 {
		t.Fatalf("windowed candidates_generated = %v, want > 0", ew.Generated)
	}
	if ew.PruningRatio < 0 || ew.PruningRatio > 1 {
		t.Fatalf("pruning_ratio = %v, want within [0,1]", ew.PruningRatio)
	}
	// Exact engine: no recall estimator, reported as the -1 sentinel.
	if ew.Recall != -1 {
		t.Fatalf("recall_estimate = %v, want -1 on an exact engine", ew.Recall)
	}
}

func TestSlowlogRuntimeRetune(t *testing.T) {
	_, ts := newLiveServer(t, WithSlowLog(0, 8))
	call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"id": 1, "k": 3}, nil)

	// The threshold-0 log records every route, including the admin GETs
	// this test itself issues, so all assertions count /v1/rknn entries.
	var slowlog struct {
		ThresholdUS int64 `json:"threshold_us"`
		Entries     []struct {
			Route string `json:"route"`
		} `json:"entries"`
	}
	rknnEntries := func() int {
		n := 0
		for _, e := range slowlog.Entries {
			if e.Route == "/v1/rknn" {
				n++
			}
		}
		return n
	}
	call(t, "GET", ts.URL+"/v1/admin/slowlog", nil, &slowlog)
	if rknnEntries() != 1 {
		t.Fatalf("rknn entries before retune = %d, want 1", rknnEntries())
	}

	// Raise the threshold at runtime: recorded entries survive, and a fast
	// request no longer qualifies.
	if status := call(t, "PUT", ts.URL+"/v1/admin/slowlog", map[string]any{"threshold_us": int64(time.Hour / time.Microsecond)}, &slowlog); status != http.StatusOK {
		t.Fatalf("PUT slowlog status %d", status)
	}
	if slowlog.ThresholdUS != int64(time.Hour/time.Microsecond) {
		t.Fatalf("threshold after retune = %d", slowlog.ThresholdUS)
	}
	if rknnEntries() != 1 {
		t.Fatalf("retune dropped entries: %d, want 1 (ring must be preserved)", rknnEntries())
	}
	call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"id": 2, "k": 3}, nil)
	call(t, "GET", ts.URL+"/v1/admin/slowlog", nil, &slowlog)
	if rknnEntries() != 1 {
		t.Fatalf("hour threshold admitted a fast request: rknn entries = %d", rknnEntries())
	}
	// And back down to record-everything.
	call(t, "PUT", ts.URL+"/v1/admin/slowlog", map[string]any{"threshold_us": 0}, nil)
	call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"id": 3, "k": 3}, nil)
	call(t, "GET", ts.URL+"/v1/admin/slowlog", nil, &slowlog)
	if rknnEntries() != 2 {
		t.Fatalf("rknn entries after lowering threshold = %d, want 2", rknnEntries())
	}

	// Malformed retunes are rejected without touching the threshold.
	for name, body := range map[string]any{
		"missing field": map[string]any{},
		"negative":      map[string]any{"threshold_us": -5},
	} {
		if status := call(t, "PUT", ts.URL+"/v1/admin/slowlog", body, nil); status != http.StatusBadRequest {
			t.Errorf("%s: PUT status %d, want 400", name, status)
		}
	}
}

func TestSLOEndpointAndHealthDegradation(t *testing.T) {
	slo, err := telemetry.NewSLO(telemetry.SLOConfig{
		Objectives: []telemetry.SLOObjective{telemetry.AvailabilityObjective(0.999)},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newLiveServer(t, WithSLO(slo))

	// Before any traffic: healthy, budget untouched.
	if status := call(t, "GET", ts.URL+"/healthz?slo=1", nil, nil); status != http.StatusOK {
		t.Fatalf("healthz before traffic = %d", status)
	}

	// An all-failing burst on a data-plane route: burn 1000x the budget in
	// both windows — the multi-window fast-burn rule must trip.
	for i := 0; i < 30; i++ {
		call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"k": 3}, nil) // missing id: 400
	}
	var sloResp struct {
		FastBurn   float64 `json:"fast_burn_threshold"`
		Degraded   bool    `json:"degraded"`
		Objectives []struct {
			Name            string             `json:"name"`
			Requests        int64              `json:"requests"`
			BadEvents       int64              `json:"bad_events"`
			BudgetRemaining float64            `json:"error_budget_remaining_ratio"`
			BurnRates       map[string]float64 `json:"burn_rates"`
			Degraded        bool               `json:"degraded"`
		} `json:"objectives"`
	}
	if status := call(t, "GET", ts.URL+"/v1/admin/slo", nil, &sloResp); status != http.StatusOK {
		t.Fatalf("slo status %d", status)
	}
	if !sloResp.Degraded || len(sloResp.Objectives) != 1 {
		t.Fatalf("slo response = %+v, want degraded with one objective", sloResp)
	}
	obj := sloResp.Objectives[0]
	if obj.Name != "availability" || obj.BadEvents != 30 {
		t.Fatalf("objective = %+v", obj)
	}
	if obj.BudgetRemaining >= 0 {
		t.Fatalf("budget remaining = %v, want overspent (negative)", obj.BudgetRemaining)
	}
	if obj.BurnRates["1m"] < sloResp.FastBurn || obj.BurnRates["5m"] < sloResp.FastBurn {
		t.Fatalf("burn rates %v below the fast-burn threshold %v", obj.BurnRates, sloResp.FastBurn)
	}

	// /healthz?slo=1 degrades to 503; plain /healthz stays liveness-only.
	var health struct {
		Status string `json:"status"`
	}
	if status := call(t, "GET", ts.URL+"/healthz?slo=1", nil, &health); status != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz?slo=1 = %d, want 503", status)
	}
	if health.Status != "degraded" {
		t.Fatalf("health body = %+v", health)
	}
	if status := call(t, "GET", ts.URL+"/healthz", nil, &health); status != http.StatusOK {
		t.Fatalf("plain healthz during degradation = %d, want 200 (liveness only)", status)
	}

	// A server without an SLO reports 501, not an empty status.
	_, ts2 := newLiveServer(t)
	if status := call(t, "GET", ts2.URL+"/v1/admin/slo", nil, nil); status != http.StatusNotImplemented {
		t.Fatalf("slo without configuration = %d, want 501", status)
	}
}

func TestAnalyticsEndpoint(t *testing.T) {
	_, ts := newLiveServer(t)
	for i := 0; i < 20; i++ {
		call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"id": i % 4, "k": 5}, nil)
	}
	var ana struct {
		Window string `json:"window"`
		Top    []struct {
			Signature     string         `json:"signature"`
			Count         uint64         `json:"count"`
			MeanLatency   float64        `json:"mean_latency_seconds"`
			MeanScanDepth float64        `json:"mean_scan_depth"`
			Window        map[string]any `json:"window"`
		} `json:"top"`
	}
	if status := call(t, "GET", ts.URL+"/v1/admin/analytics", nil, &ana); status != http.StatusOK {
		t.Fatalf("analytics status %d", status)
	}
	if ana.Window != "1m" || len(ana.Top) == 0 {
		t.Fatalf("analytics = %+v, want non-empty 1m top", ana)
	}
	var total uint64
	for _, e := range ana.Top {
		if !strings.Contains(e.Signature, "k=5") || !strings.Contains(e.Signature, "@") {
			t.Fatalf("signature %q missing k/grid-cell parts", e.Signature)
		}
		if e.MeanLatency <= 0 || e.MeanScanDepth <= 0 {
			t.Fatalf("entry accumulators empty: %+v", e)
		}
		if e.Window["count"] == nil {
			t.Fatalf("entry missing windowed digest: %+v", e)
		}
		total += e.Count
	}
	if total != 20 {
		t.Fatalf("count mass = %d, want 20", total)
	}
	// ?n bounds the list; bad parameters are rejected.
	if status := call(t, "GET", ts.URL+"/v1/admin/analytics?n=1&window=5m", nil, &ana); status != http.StatusOK || len(ana.Top) != 1 || ana.Window != "5m" {
		t.Fatalf("bounded analytics = %d %+v", status, ana)
	}
	if status := call(t, "GET", ts.URL+"/v1/admin/analytics?n=0", nil, nil); status != http.StatusBadRequest {
		t.Fatalf("n=0 status %d, want 400", status)
	}
	if status := call(t, "GET", ts.URL+"/v1/admin/analytics?window=2h", nil, nil); status != http.StatusBadRequest {
		t.Fatalf("window=2h status %d, want 400", status)
	}

	// Forward kNN is traffic with a region on every engine: a sharded engine
	// serving only /v1/knn fills its sketch too.
	reg := telemetry.NewRegistry()
	ss, err := repro.NewSharded(indextest.RandPoints(120, 2, 9), 3, repro.WithScale(50))
	if err != nil {
		t.Fatal(err)
	}
	ss.EnableTelemetry(reg)
	sts := httptest.NewServer(New(ss, WithRegistry(reg)).Handler())
	t.Cleanup(sts.Close)
	for i := 0; i < 6; i++ {
		call(t, "POST", sts.URL+"/v1/knn", map[string]any{"point": []float64{0.2, 0.1 * float64(i)}, "k": 3}, nil)
	}
	if status := call(t, "GET", sts.URL+"/v1/admin/analytics", nil, &ana); status != http.StatusOK || len(ana.Top) == 0 {
		t.Fatalf("sharded analytics after kNN traffic = %d %+v, want a non-empty top", status, ana)
	}
	for _, e := range ana.Top {
		if !strings.HasPrefix(e.Signature, "knn k=3 @") {
			t.Errorf("sharded sketch signature %q, want a knn k=3 region", e.Signature)
		}
	}

	// An engine without telemetry has no sketch: 501, not an empty list.
	// Serving it binds nothing — whether an engine reports is its caller's
	// decision.
	plain, err := repro.New(indextest.RandPoints(50, 2, 3), repro.WithScale(50))
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(New(plain).Handler())
	t.Cleanup(pts.Close)
	call(t, "POST", pts.URL+"/v1/rknn", map[string]any{"id": 3, "k": 5}, nil)
	if status := call(t, "GET", pts.URL+"/v1/admin/analytics", nil, nil); status != http.StatusNotImplemented {
		t.Fatalf("analytics without telemetry = %d, want 501", status)
	}
	if _, body := rawCall(t, http.MethodGet, pts.URL+"/metrics", ""); strings.Contains(string(body), "rknn_queries_total") {
		t.Error("serving an unbound engine registered its query counters")
	}
}

// TestServersShareTheCallersBinding pins who an engine served by two
// servers reports to: the registry its caller bound it to, never the
// server's. The server on that registry exposes the engine's series in
// /metrics, the other only its own HTTP series; both read the one
// engine-level sketch in /v1/admin/analytics. Binding the engine to the
// registry it already holds again keeps its windows and sketch.
func TestServersShareTheCallersBinding(t *testing.T) {
	s, err := repro.New(indextest.RandPoints(80, 2, 5), repro.WithScale(50))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.EnableTelemetry(reg)
	bound := httptest.NewServer(New(s, WithRegistry(reg)).Handler())
	t.Cleanup(bound.Close)
	other := httptest.NewServer(New(s).Handler())
	t.Cleanup(other.Close)
	for i := 0; i < 3; i++ {
		call(t, "POST", bound.URL+"/v1/rknn", map[string]any{"id": i, "k": 5}, nil)
		call(t, "POST", other.URL+"/v1/rknn", map[string]any{"id": i, "k": 5}, nil)
	}
	s.EnableTelemetry(reg) // a no-op: the engine already reports to reg

	const engineSeries = `rknn_queries_total{backend="covertree",op="rknn"} 6`
	if _, body := rawCall(t, http.MethodGet, bound.URL+"/metrics", ""); !strings.Contains(string(body), engineSeries) {
		t.Errorf("/metrics on the engine's registry lacks %q", engineSeries)
	}
	if _, body := rawCall(t, http.MethodGet, other.URL+"/metrics", ""); strings.Contains(string(body), "rknn_queries_total") ||
		!strings.Contains(string(body), `rknn_http_requests_total{route="/v1/rknn"} 3`) {
		t.Errorf("/metrics on a second registry: want its own 3 requests and no engine series, got\n%s", body)
	}
	for _, base := range []string{bound.URL, other.URL} {
		var ana struct {
			Top []struct {
				Count uint64 `json:"count"`
			} `json:"top"`
		}
		if status := call(t, "GET", base+"/v1/admin/analytics", nil, &ana); status != http.StatusOK {
			t.Fatalf("%s analytics status %d", base, status)
		}
		var total uint64
		for _, e := range ana.Top {
			total += e.Count
		}
		if total != 6 {
			t.Errorf("%s analytics count mass = %d, want all 6 queries of the engine", base, total)
		}
	}
}

func TestOpenMetricsNegotiationAndExemplarResolution(t *testing.T) {
	ring := trace.NewRing(16)
	_, ts := newLiveServer(t, WithTracing(ring, 1))
	for i := 0; i < 5; i++ {
		call(t, "POST", ts.URL+"/v1/rknn", map[string]any{"id": i, "k": 5}, nil)
	}

	get := func(accept string) (string, string) {
		req, err := http.NewRequest("GET", ts.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics (accept %q) status %d", accept, resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw), resp.Header.Get("Content-Type")
	}

	// Without negotiation: the 0.0.4 exposition, no exemplar syntax.
	text004, ct := get("")
	if ct != telemetry.ContentType {
		t.Fatalf("default Content-Type = %q", ct)
	}
	if strings.Contains(text004, "# {") || strings.Contains(text004, "# EOF") {
		t.Fatal("0.0.4 exposition leaked OpenMetrics syntax")
	}

	// With negotiation: OpenMetrics, terminated, exemplar present.
	om, ct := get("application/openmetrics-text;version=1.0.0")
	if ct != telemetry.OpenMetricsContentType {
		t.Fatalf("negotiated Content-Type = %q, want %q", ct, telemetry.OpenMetricsContentType)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Fatal("OpenMetrics exposition missing # EOF terminator")
	}
	exRe := regexp.MustCompile(`rknn_http_request_duration_seconds_bucket\{[^}]*\} [0-9.e+-]+ # \{trace_id="([0-9a-f]{32})"\}`)
	m := exRe.FindStringSubmatch(om)
	if m == nil {
		t.Fatalf("no exemplar on the request-duration buckets:\n%s", om)
	}

	// The advertised trace must resolve: the exemplar is only set after the
	// trace is retained in the ring, so this lookup can never 404.
	var tr struct {
		TraceID string `json:"trace_id"`
	}
	if status := call(t, "GET", ts.URL+"/v1/admin/traces/"+m[1], nil, &tr); status != http.StatusOK {
		t.Fatalf("exemplar trace %s did not resolve: status %d", m[1], status)
	}
	if tr.TraceID != m[1] {
		t.Fatalf("resolved trace id = %q, want %q", tr.TraceID, m[1])
	}
}
