package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	repro "repro"
	"repro/internal/indextest"
	"repro/internal/trace"
)

// newTracedShardedServer serves a 2-shard engine with tracing enabled at
// the given head-sampling rate, sharing one ring with the engine.
func newTracedShardedServer(t *testing.T, sample float64) (*trace.Ring, *httptest.Server) {
	t.Helper()
	ss, err := repro.NewSharded(indextest.RandPoints(300, 4, 11), 2, repro.WithScale(50))
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(16)
	ss.EnableTracing(ring)
	ts := httptest.NewServer(New(ss, WithTracing(ring, sample), WithSlowLog(0, 8)).Handler())
	t.Cleanup(ts.Close)
	return ring, ts
}

func findJSONSpans(sp trace.SpanJSON, name string) []trace.SpanJSON {
	var out []trace.SpanJSON
	if sp.Name == name {
		out = append(out, sp)
	}
	for _, c := range sp.Children {
		out = append(out, findJSONSpans(c, name)...)
	}
	return out
}

// TestDebugExplainResponse pins the ?debug=1 contract on a sharded engine:
// the normal answer plus an inline span tree whose root is the HTTP span and
// which holds the facade.pin of the read set and the one core.rknn of the
// query with a shard.scatter per shard stream beneath it, response headers naming the request and trace, and
// retention in the ring regardless of the sampling rate.
func TestDebugExplainResponse(t *testing.T) {
	ring, ts := newTracedShardedServer(t, 0) // sample 0: only debug/slow/upstream retain
	resp, err := http.Post(ts.URL+"/v1/rknn?debug=1", "application/json",
		strings.NewReader(`{"id":5,"k":10}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("response missing X-Request-ID")
	}
	tp := resp.Header.Get("Traceparent")
	if _, _, ok := trace.ParseTraceparent(tp); !ok {
		t.Errorf("response Traceparent %q does not parse", tp)
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
	if out.Trace.Root.Name != "http./v1/rknn" {
		t.Errorf("root span %q, want http./v1/rknn", out.Trace.Root.Name)
	}
	if pins := findJSONSpans(out.Trace.Root, "facade.pin"); len(pins) != 1 || pins[0].Attrs["shards_pinned"] != float64(2) {
		t.Errorf("facade.pin spans = %+v, want one that pinned 2 shards", pins)
	}
	cores := findJSONSpans(out.Trace.Root, "core.rknn")
	if len(cores) != 1 {
		t.Fatalf("core.rknn spans = %d, want 1 (the algorithm runs once over the merged shard streams)", len(cores))
	}
	if got := len(findJSONSpans(cores[0], "shard.scatter")); got != 2 {
		t.Errorf("shard.scatter spans under core.rknn = %d, want 2", got)
	}
	if got := len(findJSONSpans(out.Trace.Root, "shard.merge")); got != 0 {
		t.Errorf("shard.merge spans = %d, want none", got)
	}

	// Debug requests are always retained: the same trace is in the ring.
	found := false
	for _, tr := range ring.Snapshot() {
		if tr.ID() == out.Trace.TraceID {
			found = true
		}
	}
	if !found {
		t.Errorf("debug trace %s not retained in the ring", out.Trace.TraceID)
	}
}

// TestTracesEndpoints drives a query through /v1/rknn, then reads it back
// through the admin surface: the summary listing and the full span tree by
// ID, which must contain the core stage spans with stats attributes.
func TestTracesEndpoints(t *testing.T) {
	_, ts := newTracedShardedServer(t, 1) // sample 1: everything retained
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/rknn", "application/json", strings.NewReader(`{"id":7,"k":5}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var listing struct {
		Capacity int             `json:"capacity"`
		Total    uint64          `json:"total"`
		Traces   []trace.Summary `json:"traces"`
	}
	if got := call(t, http.MethodGet, ts.URL+"/v1/admin/traces", nil, &listing); got != http.StatusOK {
		t.Fatalf("GET /v1/admin/traces: status %d", got)
	}
	if listing.Capacity != 16 || listing.Total != 3 || len(listing.Traces) != 3 {
		t.Fatalf("listing = cap %d, total %d, %d traces; want 16/3/3",
			listing.Capacity, listing.Total, len(listing.Traces))
	}
	if listing.Traces[0].Root != "http./v1/rknn" {
		t.Errorf("summary root %q, want http./v1/rknn", listing.Traces[0].Root)
	}

	var full trace.TraceJSON
	if got := call(t, http.MethodGet, ts.URL+"/v1/admin/traces/"+listing.Traces[0].TraceID, nil, &full); got != http.StatusOK {
		t.Fatalf("GET trace by id: status %d", got)
	}
	cores := findJSONSpans(full.Root, "core.rknn")
	if len(cores) != 1 {
		t.Fatalf("core.rknn spans = %d, want 1", len(cores))
	}
	for _, stage := range []string{"core.scan", "core.filter", "core.verify"} {
		if got := len(findJSONSpans(cores[0], stage)); got != 1 {
			t.Errorf("%s spans under core.rknn = %d, want 1", stage, got)
		}
	}
	if _, ok := cores[0].Attrs["scan_depth"]; !ok {
		t.Errorf("core.rknn span missing scan_depth attr: %+v", cores[0].Attrs)
	}

	var errOut map[string]string
	if got := call(t, http.MethodGet, ts.URL+"/v1/admin/traces/ffffffffffffffffffffffffffffffff", nil, &errOut); got != http.StatusNotFound {
		t.Errorf("unknown trace id: status %d, want 404", got)
	}
}

// TestTraceparentRoundTrip sends a sampled W3C traceparent and requires the
// response to continue the same trace ID and the ring to retain it even at
// sampling rate zero (upstream made the sampling decision).
func TestTraceparentRoundTrip(t *testing.T) {
	ring, ts := newTracedShardedServer(t, 0)
	const upstreamID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/rknn", strings.NewReader(`{"id":3,"k":4}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+upstreamID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tp := resp.Header.Get("Traceparent")
	if !strings.Contains(tp, upstreamID) {
		t.Errorf("response traceparent %q does not continue upstream trace %s", tp, upstreamID)
	}
	if tr := ring.Get(upstreamID); tr == nil {
		t.Error("upstream-sampled trace was not retained in the ring")
	}
}

// TestSlowlogTraceLinkage pins the slowlog <-> trace join: with a zero
// threshold every request is slow, so its entry must carry the trace and
// request IDs that resolve against the trace ring.
func TestSlowlogTraceLinkage(t *testing.T) {
	ring, ts := newTracedShardedServer(t, 0)
	resp, err := http.Post(ts.URL+"/v1/rknn", "application/json", strings.NewReader(`{"id":9,"k":5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var slowlog struct {
		Entries []struct {
			Route     string `json:"route"`
			TraceID   string `json:"trace_id"`
			RequestID string `json:"request_id"`
		} `json:"entries"`
	}
	if got := call(t, http.MethodGet, ts.URL+"/v1/admin/slowlog", nil, &slowlog); got != http.StatusOK {
		t.Fatalf("GET slowlog: status %d", got)
	}
	var entry *struct {
		Route     string `json:"route"`
		TraceID   string `json:"trace_id"`
		RequestID string `json:"request_id"`
	}
	for i := range slowlog.Entries {
		if slowlog.Entries[i].Route == "/v1/rknn" {
			entry = &slowlog.Entries[i]
		}
	}
	if entry == nil {
		t.Fatalf("no /v1/rknn slowlog entry in %+v", slowlog.Entries)
	}
	if entry.TraceID == "" || entry.RequestID == "" {
		t.Fatalf("slowlog entry lacks trace linkage: %+v", *entry)
	}
	// A zero threshold marks the request slow, so tail capture must have
	// retained its trace in the ring despite the zero sampling rate.
	if tr := ring.Get(entry.TraceID); tr == nil {
		t.Errorf("slowlog trace %s not resolvable in the ring", entry.TraceID)
	}
}

// TestTracingDisabledSurface pins the untraced server: admin trace routes
// answer 501 and data-plane responses carry no tracing headers.
func TestTracingDisabledSurface(t *testing.T) {
	_, _, ts := newTestServer(t)
	var errOut map[string]string
	if got := call(t, http.MethodGet, ts.URL+"/v1/admin/traces", nil, &errOut); got != http.StatusNotImplemented {
		t.Errorf("GET /v1/admin/traces without tracing: status %d, want 501", got)
	}
	resp, err := http.Post(ts.URL+"/v1/rknn", "application/json", strings.NewReader(`{"id":1,"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") != "" || resp.Header.Get("Traceparent") != "" {
		t.Error("untraced server emitted tracing headers")
	}
}

// TestHeadSamplingZeroKeepsFastTraces pins that at sample 0 a fast,
// non-debug, non-upstream-sampled request leaves nothing in the ring —
// the property the production overhead bound rests on.
func TestHeadSamplingZeroKeepsFastTraces(t *testing.T) {
	ss, err := repro.NewSharded(indextest.RandPoints(200, 3, 5), 2, repro.WithScale(50))
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(8)
	// Threshold high enough that no test query is "slow".
	ts := httptest.NewServer(New(ss, WithTracing(ring, 0), WithSlowLog(time.Hour, 8)).Handler())
	defer ts.Close()
	for i := 0; i < 5; i++ {
		resp, err := http.Post(ts.URL+"/v1/rknn", "application/json", strings.NewReader(`{"id":2,"k":3}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if n := ring.Total(); n != 0 {
		t.Errorf("ring retained %d traces at sample 0, want 0", n)
	}
}
