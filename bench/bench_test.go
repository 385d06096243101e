package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPickPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := pickPercentile(c.n); got != c.want {
			t.Errorf("pickPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]time.Duration, 200)
	for i := range sorted {
		sorted[i] = time.Duration(i + 1)
	}
	for p, want := range map[float64]time.Duration{50: 100, 95: 190, 100: 200} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(1..200, %v) = %d, want %d", p, got, want)
		}
	}
}

var smokeSizing = sizing{
	fctN: 500, mnistN: 300,
	sample: 64, check: 20, external: 32, insertsPerClient: 128, ladderInserts: 128,
	traceFCT: 8, traceMNIST: 8,
	writeBurst: 20, exhaustive: 4,
}

func TestStreamsArePureAndDisjoint(t *testing.T) {
	w := workloads(smokeSizing)[4]
	if !w.mixed {
		t.Fatalf("workload %s is not the mixed one", w.name)
	}
	drain := func(seed int64) ([][]op, *inputs) {
		in := generate(w, smokeSizing, seed)
		out := make([][]op, maxClients)
		for c := range out {
			st := newStream(in, seed, c, true)
			for i := 0; i < 400; i++ {
				out[c] = append(out[c], st.next())
			}
		}
		return out, in
	}
	a, in := drain(3)
	b, _ := drain(3)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different streams")
	}
	if c, _ := drain(4); reflect.DeepEqual(a, c) {
		t.Error("two seeds gave the same streams")
	}
	queried := make(map[int]bool)
	for _, q := range in.queries {
		queried[q.id] = true
	}
	owner := make(map[int]int)
	kinds := make(map[opKind]int)
	for c, ops := range a {
		for _, o := range ops {
			kinds[o.kind]++
			if o.kind != opDelete {
				continue
			}
			if prev, dup := owner[o.id]; dup {
				t.Fatalf("delete target %d given to client %d and client %d", o.id, prev, c)
			}
			owner[o.id] = c
			if queried[o.id] {
				t.Errorf("delete target %d is also a member query", o.id)
			}
		}
	}
	if kinds[opRead] == 0 || kinds[opInsert] == 0 || kinds[opDelete] == 0 {
		t.Errorf("mixed stream lacks a kind of operation: %v", kinds)
	}
}

func TestCountingTransport(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if string(body) == "boom" {
			w.WriteHeader(http.StatusInternalServerError)
		}
		w.Write([]byte("0123456789"))
	}))
	defer ts.Close()
	ct := &countingTransport{base: http.DefaultTransport, keep: true}
	hc := &http.Client{Transport: ct}
	post := func(body string) {
		t.Helper()
		resp, err := hc.Post(ts.URL, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	post("uncounted")
	ct.on.Store(true)
	post("abc")
	post("boom")
	ct.on.Store(false)
	post("uncounted")
	if got := ct.calls.Load(); got != 2 {
		t.Errorf("calls = %d, want 2", got)
	}
	if got := ct.reqBytes.Load(); got != 7 {
		t.Errorf("request bytes = %d, want 7", got)
	}
	if got := ct.respBytes.Load(); got != 20 {
		t.Errorf("response bytes = %d, want 20", got)
	}
	if got := ct.failures.Load(); got != 1 {
		t.Errorf("failures = %d, want 1", got)
	}
	if len(ct.bodies) != 2 || string(ct.bodies[0]) != "abc" {
		t.Errorf("kept bodies = %q", ct.bodies)
	}
	ct.reset()
	if ct.calls.Load() != 0 || len(ct.bodies) != 0 {
		t.Error("reset left counts behind")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 50, End: 70},
		{ID: 3, Parent: 1, Start: 15, End: 20},
	}
	if got, want := selfTimes(spans), []time.Duration{50, 25, 20, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tax, err := layerTax([]time.Duration{10, 20, 30}, []time.Duration{4, 8, 30})
	if err != nil || tax != 6 {
		t.Errorf("layerTax = %v, %v; want 6", tax, err)
	}
	if _, err := layerTax([]time.Duration{1}, nil); err == nil {
		t.Error("layerTax accepted boundaries timed on different queries")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3, ok := quartiles([]float64{46, 1, 22, 4, 7, 11, 16, 2, 29, 37})
	if !ok || q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, %v; want 3.5, 31", q1, q3, ok)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
}

func TestVerdict(t *testing.T) {
	qps := metricDef{Name: "rknn_qps", Better: higher, Bound: 0.10}
	lat := metricDef{Name: "rknn_p50_ms", Better: lower, Bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{qps, []float64{100, 101, 99}, []float64{100, 102, 98}, "unchanged"},
		{qps, []float64{100, 101, 99}, []float64{80, 81, 79}, "regressed"},
		{qps, []float64{100, 101, 99}, []float64{120, 121, 119}, "improved"},
		{lat, []float64{1, 1.01, 0.99}, []float64{1.2, 1.21, 1.19}, "regressed"},
		{lat, []float64{1, 1.5, 0.6}, []float64{1.02, 1.4, 0.7}, "unresolved"},
		{lat, []float64{1, 1.5, 0.8}, []float64{0.5, 0.7, 0.4}, "improved"},
		{lat, []float64{1}, []float64{1.05}, "unchanged"},
		{metricDef{Name: "failed_share", Better: lower}, []float64{0, 0}, []float64{0, 0.01}, "regressed"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %v against %v: %s, want %s", c.d.Name, c.b, c.a, got, c.want)
		}
	}
}

// TestSmoke runs all five workloads at toy scale through both passes and
// holds the result lines to BENCHMARK.json: every metric it names is
// emitted once, and no other.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var gated []metricDef
	for _, d := range endToEndDefs {
		if d.gated {
			d.gated = false
			gated = append(gated, d)
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, gated) {
		t.Errorf("BENCHMARK.json end_to_end differs from the program's table:\n%v\n%v", bf.EndToEnd, gated)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayerDefs) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's table")
	}

	cfg := config{
		seed: 5, window: 200 * time.Millisecond, warm: 50 * time.Millisecond, clients: 2,
		sz: smokeSizing, tmp: t.TempDir(), log: io.Discard, started: time.Now(),
		minSetups: 1, maxSetups: 1,
	}
	all := workloads(smokeSizing)
	if len(all) != len(bf.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json lists %d", len(all), len(bf.Workloads))
	}
	for i, w := range all {
		if w.name != bf.Workloads[i].Name || w.why != bf.Workloads[i].Why {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.name, bf.Workloads[i].Name)
		}
		var out bytes.Buffer
		ok, err := runWorkload(cfg, w, "both", t.TempDir(), &out)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !ok {
			t.Errorf("%s: a check failed:\n%s", w.name, out.String())
		}
		var lines []map[string]lineValue
		for _, row := range strings.Split(out.String(), "\n") {
			if !strings.HasPrefix(row, "{") {
				continue
			}
			var line struct {
				Attempted int
				Metrics   map[string]lineValue
			}
			if err := json.Unmarshal([]byte(row), &line); err != nil || line.Attempted < 1 {
				t.Fatalf("%s: result line %q: %v", w.name, row, err)
			}
			lines = append(lines, line.Metrics)
		}
		if len(lines) != 2 {
			t.Fatalf("%s: %d result lines, want one per pass", w.name, len(lines))
		}
		for p, defs := range [][]metricDef{bf.EndToEnd, bf.PerLayer} {
			if len(lines[p]) != len(defs) {
				t.Errorf("%s pass %d: %d metrics, BENCHMARK.json names %d", w.name, p, len(lines[p]), len(defs))
			}
			for _, d := range defs {
				v, ok := lines[p][d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) {
					t.Errorf("%s: metric %s: got %+v (present %v), want unit %s", w.name, d.Name, v, ok, d.Unit)
				}
			}
		}
		_, wrote := lines[0]["write_p50_ms"]
		if strings.Contains(out.String(), w.name+" write_p50_ms ") != w.mixed || wrote {
			t.Errorf("%s: write latency belongs in the rows of a writing workload only, never in the result line", w.name)
		}
	}
}
