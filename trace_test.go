package repro

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

func tracePoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// findSpans collects every span with the given name anywhere in the tree.
func findSpans(sp trace.SpanJSON, name string) []trace.SpanJSON {
	var out []trace.SpanJSON
	if sp.Name == name {
		out = append(out, sp)
	}
	for _, c := range sp.Children {
		out = append(out, findSpans(c, name)...)
	}
	return out
}

// TestTraceSpanTreeSharded pins the span taxonomy of a traced sharded query:
// facade.pin, then ONE core.rknn — the algorithm runs once, over the merged
// shard streams — carrying the paper's work counters and its scan, filter
// and verify stages, with one shard.scatter per shard beneath it covering
// that shard's stream. There is no shard.merge: nothing is re-verified.
func TestTraceSpanTreeSharded(t *testing.T) {
	ss, err := NewSharded(tracePoints(400, 6, 1), 3, WithScale(20))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("test.query", true)
	ctx := trace.With(context.Background(), tr.Root())
	ids, err := ss.ReverseKNNContext(ctx, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, st, err := ss.ReverseKNNStats(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(want) {
		t.Fatalf("traced answer %v, untraced %v", ids, want)
	}
	tr.Root().End()
	root := tr.Export().Root

	if got := len(findSpans(root, "facade.pin")); got != 1 {
		t.Errorf("facade.pin spans = %d, want 1", got)
	}
	cores := findSpans(root, "core.rknn")
	if len(cores) != 1 {
		t.Fatalf("core.rknn spans = %d, want 1", len(cores))
	}
	core := cores[0]
	for _, stage := range []string{"core.scan", "core.filter", "core.verify"} {
		if got := len(findSpans(core, stage)); got != 1 {
			t.Errorf("%s spans = %d, want 1", stage, got)
		}
	}
	for _, attr := range []string{"scan_depth", "filter_size", "distance_comps", "k"} {
		if _, ok := core.Attrs[attr]; !ok {
			t.Errorf("core.rknn missing %s attr: %+v", attr, core.Attrs)
		}
	}
	if got := core.Attrs["scan_depth"]; got != int64(st.ScanDepth) {
		t.Errorf("core.rknn scan_depth = %v, query Stats say %d", got, st.ScanDepth)
	}
	scatters := findSpans(core, "shard.scatter")
	if len(scatters) != 3 {
		t.Fatalf("shard.scatter spans under core.rknn = %d, want 3", len(scatters))
	}
	seen := map[int]bool{}
	pulled := int64(0)
	for _, sc := range scatters {
		shard, ok := sc.Attrs["shard"].(int64)
		if !ok {
			t.Fatalf("shard.scatter missing shard attr: %+v", sc.Attrs)
		}
		seen[int(shard)] = true
		n, ok := sc.Attrs["pulled"].(int64)
		if !ok {
			t.Fatalf("shard %d: shard.scatter missing pulled attr: %+v", shard, sc.Attrs)
		}
		pulled += n
	}
	if len(seen) != 3 {
		t.Errorf("scatter spans cover shards %v, want all of 0..2", seen)
	}
	if pulled < int64(st.ScanDepth) || pulled > int64(st.ScanDepth)+3 {
		t.Errorf("shards streamed %d rows for a scan of depth %d", pulled, st.ScanDepth)
	}
	if got := len(findSpans(root, "shard.merge")); got != 0 {
		t.Errorf("shard.merge spans = %d, want none", got)
	}
}

// TestTraceDurableOverlayWrites pins the write-path spans: a traced insert
// on a durable engine records facade.apply with a wal.append (and, under
// the default every-write sync policy, wal.fsync) beneath it, and a traced
// query over the resulting overlay records the base/memtable read split.
func TestTraceDurableOverlayWrites(t *testing.T) {
	s, err := New(tracePoints(120, 4, 2), WithScale(15), WithBackend(BackendCoverTree))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(t.TempDir(), s)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	wtr := trace.New("test.insert", true)
	wctx := trace.With(context.Background(), wtr.Root())
	if _, err := d.InsertContext(wctx, []float64{0.5, 0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	wtr.Root().End()
	wroot := wtr.Export().Root
	if got := len(findSpans(wroot, "facade.apply")); got == 0 {
		t.Error("traced durable insert recorded no facade.apply span")
	}
	appends := findSpans(wroot, "wal.append")
	if len(appends) != 1 {
		t.Fatalf("wal.append spans = %d, want 1", len(appends))
	}
	if got := len(findSpans(appends[0], "wal.fsync")); got != 1 {
		t.Errorf("wal.fsync spans = %d, want 1 under the default sync policy", got)
	}

	qtr := trace.New("test.query", true)
	qctx := trace.With(context.Background(), qtr.Root())
	if _, err := d.ReverseKNNContext(qctx, 3, 4); err != nil {
		t.Fatal(err)
	}
	qtr.Root().End()
	qroot := qtr.Export().Root
	if got := len(findSpans(qroot, "overlay.base")); got != 1 {
		t.Errorf("overlay.base spans = %d, want 1 (memtable holds the inserted point)", got)
	}
	if got := len(findSpans(qroot, "overlay.memtable")); got != 1 {
		t.Errorf("overlay.memtable spans = %d, want 1", got)
	}
}

// TestTraceUntracedPathUnchanged pins that a context without a span leaves
// no trace machinery behind: results match the traced path and the batch
// path still works through a plain context.
func TestTraceUntracedPathUnchanged(t *testing.T) {
	ss, err := NewSharded(tracePoints(200, 5, 3), 2, WithScale(18))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ss.ReverseKNNContext(context.Background(), 11, 6)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("q", true)
	traced, err := ss.ReverseKNNContext(trace.With(context.Background(), tr.Root()), 11, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(traced) {
		t.Fatalf("untraced %v vs traced %v", plain, traced)
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("untraced %v vs traced %v", plain, traced)
		}
	}
}

// BenchmarkTracingOverhead compares the rknn query path with no trace on
// the context (the production default when a request is not being traced)
// against a fully traced query, on the single-engine facade. The "off" case
// is the one the acceptance bar holds to the untraced baseline.
func BenchmarkTracingOverhead(b *testing.B) {
	s, err := New(tracePoints(2000, 8, 4), WithScale(25))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.ReverseKNNContext(ctx, i%2000, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := trace.New("bench", true)
			ctx := trace.With(context.Background(), tr.Root())
			if _, err := s.ReverseKNNContext(ctx, i%2000, 10); err != nil {
				b.Fatal(err)
			}
			tr.Root().End()
		}
	})
}

// histCount returns the observation count of a histogram family sample
// matching the labels.
func histCount(t *testing.T, reg *telemetry.Registry, name string, labels ...telemetry.Label) uint64 {
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
			if s.Hist == nil {
				t.Fatalf("%s%v is not a histogram sample", name, labels)
			}
			return s.Hist.Count
		}
	}
	t.Fatalf("no sample %s%v in registry", name, labels)
	return 0
}

// waitForCompactions blocks until the engine reports at least n compactions
// (they fold on a background goroutine) or fails the test.
func waitForCompactions(t *testing.T, c interface{ Compactions() int64 }, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Compactions() < n {
		if time.Now().After(deadline) {
			t.Fatalf("no compaction after 10s (have %d, want %d)", c.Compactions(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCompactionHistogramAndTrace pins the background-compaction
// observability: with telemetry and tracing enabled, a fold past the
// threshold lands one observation in rknn_compaction_duration_seconds and
// one "compact" root trace (with a compact.fold child) in the ring.
func TestCompactionHistogramAndTrace(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := New(tracePoints(100, 3, 6), WithScale(40),
		WithCompactionThreshold(8))
	if err != nil {
		t.Fatal(err)
	}
	s.EnableTelemetry(reg)
	ring := trace.NewRing(8)
	s.EnableTracing(ring)
	for _, p := range tracePoints(12, 3, 7) {
		if _, err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	waitForCompactions(t, s, 1)
	backend := telemetry.Label{Name: "backend", Value: "covertree"}
	if got := histCount(t, reg, "rknn_compaction_duration_seconds", backend); got < 1 {
		t.Errorf("rknn_compaction_duration_seconds count = %d, want >= 1", got)
	}
	var compactTrace *trace.Trace
	for _, tr := range ring.Snapshot() {
		if tr.Summarize().Root == "compact" {
			compactTrace = tr
		}
	}
	if compactTrace == nil {
		t.Fatal("no compact trace in the ring")
	}
	root := compactTrace.Export().Root
	if got := len(findSpans(root, "compact.fold")); got != 1 {
		t.Errorf("compact.fold spans = %d, want 1", got)
	}
	if root.DurationUS <= 0 {
		t.Errorf("compact root duration = %dus, want > 0", root.DurationUS)
	}
}

// TestShardedCompactionHistogramShared pins that shard engines feed one
// per-backend histogram: compactions on any shard show up in the single
// rknn_compaction_duration_seconds series the sharded facade registered.
func TestShardedCompactionHistogramShared(t *testing.T) {
	reg := telemetry.NewRegistry()
	ss, err := NewSharded(tracePoints(150, 3, 8), 3, WithScale(40),
		WithCompactionThreshold(4))
	if err != nil {
		t.Fatal(err)
	}
	ss.EnableTelemetry(reg)
	for _, p := range tracePoints(40, 3, 9) {
		if _, err := ss.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	// Compactions fold per shard engine in the background; the facade's
	// Compactions view does not exist, so poll the histogram itself.
	backend := telemetry.Label{Name: "backend", Value: "covertree"}
	deadline := time.Now().Add(10 * time.Second)
	for histCount(t, reg, "rknn_compaction_duration_seconds", backend) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no shard compaction observation after 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardedTracingReachesEveryShard pins that one EnableTracing call on a
// sharded engine reaches the folds of every shard: one populated later, and
// every shard of an engine recovered from its store, included.
func TestShardedTracingReachesEveryShard(t *testing.T) {
	// Two points land on shards 0 and 1; shard 2 is populated by the inserts.
	ss, err := NewSharded(tracePoints(2, 3, 8), 3, WithScale(40), WithCompactionThreshold(4))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := NewDurableSharded(dir, ss); err != nil {
		t.Fatal(err)
	}
	foldsTraced := func(ss *ShardedSearcher, pts [][]float64) {
		t.Helper()
		ring := trace.NewRing(256)
		ss.EnableTracing(ring)
		for _, p := range pts {
			if _, err := ss.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			traced := 0
			for _, tr := range ring.Snapshot() {
				if tr.Summarize().Root == "compact" {
					traced++
				}
			}
			every := true
			for _, eng := range ss.engines() {
				every = every && eng.Compactions() > 0
			}
			if every && int64(traced) == ss.Compactions() {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d compact traces for %d compactions (every shard folded: %v)", traced, ss.Compactions(), every)
			}
			time.Sleep(time.Millisecond)
		}
	}
	foldsTraced(ss, tracePoints(40, 3, 9))
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	// A store does not keep the compaction threshold: the recovered shards
	// fold at the default 256 pending rows.
	re, err := OpenSharded(dir, WithWALSync(0))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	foldsTraced(re, tracePoints(3*(defaultCompactionThreshold+20), 3, 10))
}
