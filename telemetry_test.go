package repro

import (
	"context"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/indextest"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// counterValue extracts one sample from a gathered registry by family name
// and label set.
func counterValue(t *testing.T, reg *telemetry.Registry, name string, labels ...telemetry.Label) float64 {
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

// TestTelemetryCountersMatchQueryStats is the conformance pin of the
// acceptance criteria: after a known mix of queries, every aggregate
// pruning counter equals the sum of the per-query ReverseKNNStats the same
// queries reported, and the Prometheus exposition carries those exact
// values.
func TestTelemetryCountersMatchQueryStats(t *testing.T) {
	pts := indextest.RandPoints(300, 4, 11)
	reg := telemetry.NewRegistry()
	s, err := New(pts, WithScale(8))
	if err != nil {
		t.Fatal(err)
	}
	s.EnableTelemetry(reg)

	var want Stats
	accumulate := func(st Stats) {
		want.ScanDepth += st.ScanDepth
		want.FilterSize += st.FilterSize
		want.Excluded += st.Excluded
		want.LazyAccepts += st.LazyAccepts
		want.LazyRejects += st.LazyRejects
		want.Verified += st.Verified
		want.DistanceComps += st.DistanceComps
	}

	const memberQueries = 20
	for qid := 0; qid < memberQueries; qid++ {
		_, st, err := s.ReverseKNNStats(qid, 5)
		if err != nil {
			t.Fatal(err)
		}
		accumulate(st)
	}
	_, st, err := s.ReverseKNNPointStats([]float64{0.5, 0.5, 0.5, 0.5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	accumulate(st)

	// Batch members must land in the same aggregates: replay the batch
	// queries individually on an un-instrumented twin to know their sums.
	twin, err := New(pts, WithScale(8))
	if err != nil {
		t.Fatal(err)
	}
	batchIDs := []int{30, 31, 32, 33}
	if _, err := s.BatchReverseKNN(batchIDs, 5, 2); err != nil {
		t.Fatal(err)
	}
	for _, qid := range batchIDs {
		_, st, err := twin.ReverseKNNStats(qid, 5)
		if err != nil {
			t.Fatal(err)
		}
		accumulate(st)
	}

	backend := telemetry.Label{Name: "backend", Value: "covertree"}
	checks := map[string]int64{
		"rknn_scan_depth_total":               int64(want.ScanDepth),
		"rknn_candidates_generated_total":     int64(want.FilterSize + want.Excluded),
		"rknn_candidates_excluded_total":      int64(want.Excluded),
		"rknn_candidates_lazy_accepted_total": int64(want.LazyAccepts),
		"rknn_candidates_lazy_settled_total":  int64(want.LazyAccepts + want.LazyRejects),
		"rknn_candidates_verified_total":      int64(want.Verified),
		"rknn_distance_comps_total":           want.DistanceComps,
	}
	for name, wantV := range checks {
		if got := counterValue(t, reg, name, backend); got != float64(wantV) {
			t.Errorf("%s = %v, want %d (summed per-query stats)", name, got, wantV)
		}
	}
	if got := counterValue(t, reg, "rknn_queries_total", backend, telemetry.Label{Name: "op", Value: "rknn"}); got != memberQueries {
		t.Errorf("rknn_queries_total{op=rknn} = %v, want %d", got, memberQueries)
	}
	if got := counterValue(t, reg, "rknn_queries_total", backend, telemetry.Label{Name: "op", Value: "batch"}); got != float64(len(batchIDs)) {
		t.Errorf("rknn_queries_total{op=batch} = %v, want %d", got, len(batchIDs))
	}
	if ratio := counterValue(t, reg, "rknn_pruning_ratio", backend); ratio < 0 || ratio > 1 {
		t.Errorf("rknn_pruning_ratio = %v, want within [0,1]", ratio)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, name := range []string{"rknn_candidates_excluded_total", "rknn_candidates_lazy_settled_total"} {
		line := name + `{backend="covertree"} ` + itoa(checks[name])
		if !strings.Contains(text, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, text)
		}
	}
}

func itoa(v int64) string {
	var b strings.Builder
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append(digits, byte('0'+v%10))
		v /= 10
	}
	for i := len(digits) - 1; i >= 0; i-- {
		b.WriteByte(digits[i])
	}
	return b.String()
}

// TestShardedTelemetry checks the sharded engine's accounting. Engine level:
// the aggregate pruning counters are the sum of the per-query Stats, and —
// since a sharded query is the unsharded algorithm run once over the merged
// shard streams — equal to what an unsharded engine records for the same
// queries. Shard level: the rows pulled from the shards' streams cover the
// scan depth (each shard is read at most one row past its last consumed
// one), every count probe reaches the first populated shard and at most
// every populated one (TestShardCountProbes pins which), every populated
// shard records its visits, and the point gauges sum to the live size. The
// retired per-shard candidate families are gone.
func TestShardedTelemetry(t *testing.T) {
	pts := indextest.RandPoints(240, 3, 17)
	reg := telemetry.NewRegistry()
	ss, err := NewSharded(pts, 3, WithScale(8))
	if err != nil {
		t.Fatal(err)
	}
	ss.EnableTelemetry(reg)
	singleReg := telemetry.NewRegistry()
	single, err := New(pts, WithScale(8))
	if err != nil {
		t.Fatal(err)
	}
	single.EnableTelemetry(singleReg)

	var agg Stats
	const queries = 12
	for qid := 0; qid < queries; qid++ {
		_, st, err := ss.ReverseKNNStats(qid, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := single.ReverseKNNStats(qid, 4); err != nil {
			t.Fatal(err)
		}
		agg.ScanDepth += st.ScanDepth
		agg.FilterSize += st.FilterSize
		agg.Excluded += st.Excluded
		agg.Verified += st.Verified
	}

	backend := telemetry.Label{Name: "backend", Value: "covertree"}
	if got := counterValue(t, reg, "rknn_queries_total", backend, telemetry.Label{Name: "op", Value: "rknn"}); got != queries {
		t.Errorf("rknn_queries_total = %v, want %d", got, queries)
	}
	for name, want := range map[string]int{
		"rknn_scan_depth_total":           agg.ScanDepth,
		"rknn_candidates_generated_total": agg.FilterSize + agg.Excluded,
		"rknn_candidates_verified_total":  agg.Verified,
	} {
		if got := counterValue(t, reg, name, backend); got != float64(want) {
			t.Errorf("%s = %v, want %d (summed Stats)", name, got, want)
		}
		if got := counterValue(t, singleReg, name, backend); got != float64(want) {
			t.Errorf("unsharded %s = %v, sharded engine recorded %d", name, got, want)
		}
	}

	populated := 0
	for _, si := range ss.ShardStats() {
		if si.Points > 0 {
			populated++
		}
	}
	sum := func(name string) (total float64) {
		for _, f := range reg.Gather() {
			if f.Name == name {
				for _, s := range f.Samples {
					total += s.Value
				}
			}
		}
		return total
	}
	if pulled := sum("rknn_shard_neighbors_pulled_total"); pulled < float64(agg.ScanDepth) || pulled > float64(agg.ScanDepth+queries*populated) {
		t.Errorf("rows pulled from shards %v, want within [%d, %d] (scan depth plus one look-ahead per shard)", pulled, agg.ScanDepth, agg.ScanDepth+queries*populated)
	}
	if probes := sum("rknn_shard_count_probes_total"); probes < float64(agg.Verified) || probes > float64(agg.Verified*populated) {
		t.Errorf("count probes %v, want within [%d, %d] (%d verifications, at most one per populated shard)", probes, agg.Verified, agg.Verified*populated, agg.Verified)
	}
	if visits := sum("rknn_shard_scatter_queries_total"); visits != float64(queries*populated) {
		t.Errorf("scatter visits %v, want %d queries x %d populated shards", visits, queries, populated)
	}
	if points := sum("rknn_shard_points"); points != float64(ss.Len()) {
		t.Errorf("shard point gauges sum to %v, want %d", points, ss.Len())
	}
	for _, retired := range []string{"generated", "excluded", "lazy_settled", "verified"} {
		if hasFamily(reg, "rknn_shard_candidates_"+retired+"_total") {
			t.Errorf("retired family rknn_shard_candidates_%s_total is still registered", retired)
		}
	}
}

// TestTelemetryConcurrentQueriesAndWrites is the telemetry race pin:
// parallel member queries racing an insert/delete writer, with telemetry
// attached mid-flight. Under -race this doubles as the data-race check; on
// any run the counters must account for exactly the successful queries
// (no lost increments) and the exposition must still render.
func TestTelemetryConcurrentQueriesAndWrites(t *testing.T) {
	pts := indextest.RandPoints(200, 3, 23)
	reg := telemetry.NewRegistry()
	s, err := New(pts, WithScale(50), WithBackend(BackendScan))
	if err != nil {
		t.Fatal(err)
	}
	s.EnableTelemetry(reg) // the recovery-path attach, exercised live

	var ok atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, _, err := s.ReverseKNNStats((g*37+i)%200, 4); err == nil {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			id, err := s.Insert([]float64{0.1 * float64(i%10), 0.5, 0.5})
			if err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if i%2 == 0 {
				if _, err := s.Delete(id); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()

	got := counterValue(t, reg, "rknn_queries_total",
		telemetry.Label{Name: "backend", Value: "scan"},
		telemetry.Label{Name: "op", Value: "rknn"})
	if got != float64(ok.Load()) {
		t.Errorf("rknn_queries_total = %v, want %d successful queries", got, ok.Load())
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "rknn_queries_total") {
		t.Error("exposition lost the query counter family")
	}
}

// hasFamily reports whether the registry carries any sample of the family.
func hasFamily(reg *telemetry.Registry, name string) bool {
	for _, f := range reg.Gather() {
		if f.Name == name && len(f.Samples) > 0 {
			return true
		}
	}
	return false
}

// TestExactEnginesCarryNoApproxSeries pins that every engine is exact: none
// registers the recall-estimate family the retired approximate back-end had,
// so no exposition can suggest an approximate regime.
func TestExactEnginesCarryNoApproxSeries(t *testing.T) {
	pts := indextest.RandPoints(200, 3, 5)
	reg := telemetry.NewRegistry()
	s, err := New(pts, WithScale(8))
	if err != nil {
		t.Fatal(err)
	}
	s.EnableTelemetry(reg)
	if _, err := s.ReverseKNN(0, 5); err != nil {
		t.Fatal(err)
	}
	if hasFamily(reg, "rknn_recall_estimate") {
		t.Error("exact engine registered rknn_recall_estimate")
	}
}

// TestWorkloadSketchReadsThePinnedSnapshot pins where a member query's point
// comes from for the workload sketch: the snapshot the query pinned, not
// whatever is current once it has answered. Each member is deleted right
// after its query pinned — by an engine that deletes from inside pin — and
// the query must still be recorded, without a panic, under its "rknn k=…"
// signature with the region cell of the point it ran from.
func TestWorkloadSketchReadsThePinnedSnapshot(t *testing.T) {
	const k = 4
	for _, backend := range []Backend{BackendCoverTree, BackendScan} {
		pts := indextest.RandPoints(200, 3, 71)
		s, err := New(pts, WithBackend(backend), WithScale(8))
		if err != nil {
			t.Fatal(err)
		}
		s.EnableTelemetry(telemetry.NewRegistry())
		del := &deleteAfterPin{Searcher: s, t: t}
		s.eng = del
		want := make(map[string]uint64)
		for qid := 3; qid < 200; qid += 37 {
			sig := s.tel.Load().grid.signature(opRkNN, k, pts[qid])
			if !strings.HasPrefix(sig, "rknn k=4 @") {
				t.Fatalf("signature %q carries no region cell", sig)
			}
			want[sig]++
			del.id = qid
			if _, err := s.ReverseKNN(qid, k); err != nil {
				t.Fatalf("%s: member query %d: %v", backend, qid, err)
			}
			if s.snap.Load().ix.Live(qid) {
				t.Fatalf("%s: member %d was not deleted behind its query", backend, qid)
			}
		}
		got := make(map[string]uint64)
		for _, st := range s.WorkloadTopK(100, time.Minute) {
			got[st.Signature] = st.Count
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sketch holds %v, want %v", backend, got, want)
		}
	}
}

// deleteAfterPin is a Searcher whose pin deletes member id once the read set
// is pinned.
type deleteAfterPin struct {
	*Searcher
	t  *testing.T
	id int
}

func (d *deleteAfterPin) pin(sp *trace.Span) readSet {
	rs := d.Searcher.pin(sp)
	if ok, err := d.Searcher.applyDelete(context.Background(), d.id); !ok || err != nil {
		d.t.Errorf("Delete(%d) = %v, %v", d.id, ok, err)
	}
	return rs
}

// TestShardCountProbes pins what rknn_shard_count_probes_total counts over
// in-process shards: the probes a shard answered. Shards count in turn, so a
// shard is asked only the probes the shards before it left below their
// limit; the expected tally is worked out here from each shard's own
// unbounded count, and the round's answers from an unsharded engine.
func TestShardCountProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := gridPoints(300, 2, 5, rng) // duplicates: many probes settle early
	ss, err := NewSharded(pts, 3, WithScale(4))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ss.EnableTelemetry(reg)
	single, err := New(pts, WithScale(4))
	if err != nil {
		t.Fatal(err)
	}
	var qs []index.CountQuery
	for x := 0; x < 60; x++ {
		qs = append(qs, index.CountQuery{Point: pts[x], Radius: float64(x%4) * 0.7, Limit: 1 + x%12, Skip: x})
	}
	f := &fedIndex{sc: ss.pin(nil).(*scatterSet), qid: -1, home: -1}
	got := f.CountCloserBatch(context.Background(), qs)
	m := ss.smap.Load()
	asked := make([]int, 3)
	for j, q := range qs {
		if want := single.snap.Load().ix.CountCloser(q.Point, q.Radius, q.Limit, q.Skip, nil); got[j] != want {
			t.Fatalf("probe %d: the round counts %d, an unsharded engine %d", j, got[j], want)
		}
		before := 0
		for s := range asked {
			if before < q.Limit {
				asked[s]++
			}
			skip := -1
			if hs, l, _ := m.Locate(q.Skip); hs == s {
				skip = l
			}
			before += ss.slots[s].eng.Load().snap.Load().ix.CountCloser(q.Point, q.Radius, len(pts), skip, nil)
		}
	}
	if asked[0] != len(qs) || asked[2] == len(qs) {
		t.Fatalf("shards asked %v of %d probes: the data settles no probe early, the test shows nothing", asked, len(qs))
	}
	for s, want := range asked {
		if got := counterValue(t, reg, "rknn_shard_count_probes_total", telemetry.Label{Name: "shard", Value: strconv.Itoa(s)}); got != float64(want) {
			t.Errorf("shard %d: rknn_shard_count_probes_total = %v, want %d, the probes it answered", s, got, want)
		}
	}
}
