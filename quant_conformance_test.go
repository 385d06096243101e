// Quantized-filter conformance: the pre-filter is a pure acceleration
// layer, so every answer the facade returns with WithQuantizedFilter must
// be byte-identical to the unfiltered engine — across metrics, after an
// insert/delete stream, through a save/load round trip, and under
// sharding — while the admission counters prove the filter actually ran.
package repro

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/indextest"
	"repro/internal/telemetry"
	"repro/internal/vecmath"
)

// quantPair builds two scan-backed searchers over the same rows with
// identical configuration except the quantized filter. The moderate pinned
// scale keeps RDT+ verification active (a huge scale lazily accepts
// everything and the k-NN verify step — the filter's main consumer — never
// runs), and identity against the unfiltered engine holds at any scale.
func quantPair(t *testing.T, pts [][]float64, opts ...Option) (plain, filtered *Searcher) {
	t.Helper()
	base := append([]Option{WithBackend(BackendScan), WithScale(8)}, opts...)
	plain, err := New(pts, base...)
	if err != nil {
		t.Fatalf("New (plain): %v", err)
	}
	filtered, err = New(pts, append(base, WithQuantizedFilter())...)
	if err != nil {
		t.Fatalf("New (filtered): %v", err)
	}
	return plain, filtered
}

// TestQuantFilterFacadeByteIdentical drives reverse and forward queries
// through the public API with the filter on and off and requires exact
// agreement, for every metric the filter supports.
func TestQuantFilterFacadeByteIdentical(t *testing.T) {
	metrics := []Metric{Euclidean, Manhattan, Chebyshev}
	for _, m := range metrics {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			pts := indextest.ClusteredPoints(240, 5, 4, 31)
			plain, filtered := quantPair(t, pts, WithMetric(m))
			for _, k := range []int{1, 4, 9} {
				for qid := 0; qid < len(pts); qid += 13 {
					got, err := filtered.ReverseKNN(qid, k)
					if err != nil {
						t.Fatalf("ReverseKNN(%d, %d): %v", qid, k, err)
					}
					want, err := plain.ReverseKNN(qid, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("ReverseKNN(%d, %d) = %v, unfiltered %v", qid, k, got, want)
					}
				}
				q := indextest.RandPoints(1, 5, int64(300+k))[0]
				gn, err := filtered.KNN(q, k)
				if err != nil {
					t.Fatalf("KNN: %v", err)
				}
				wn, err := plain.KNN(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gn, wn) {
					t.Fatalf("KNN(k=%d) = %v, unfiltered %v", k, gn, wn)
				}
			}
			admitted, screened := filtered.QuantFilterStats()
			if admitted == 0 || screened == 0 {
				t.Fatalf("filter never ran: admitted=%d screened=%d", admitted, screened)
			}
			if !filtered.QuantFiltered() || plain.QuantFiltered() {
				t.Fatal("QuantFiltered flags inverted")
			}
			if pa, ps := plain.QuantFilterStats(); pa != 0 || ps != 0 {
				t.Fatalf("unfiltered engine reported filter stats %d/%d", pa, ps)
			}
		})
	}
}

// TestQuantFilterAfterUpdates repeats the equivalence after an interleaved
// insert/delete stream long enough to cross the compaction threshold, so
// the filter is held to the same bar through overlay folds — including
// inserts outside the trained codebook range.
func TestQuantFilterAfterUpdates(t *testing.T) {
	pts := indextest.RandPoints(150, 4, 51)
	plain, filtered := quantPair(t, pts)
	rng := rand.New(rand.NewSource(53))
	maxID := 149
	for i := 0; i < 400; i++ {
		if i%5 == 4 {
			id := rng.Intn(150)
			a, _ := filtered.Delete(id)
			b, _ := plain.Delete(id)
			if a != b {
				t.Fatalf("Delete(%d) diverged: %v vs %v", id, a, b)
			}
			continue
		}
		p := make([]float64, 4)
		for j := range p {
			p[j] = rng.Float64()*4 - 2 // well outside the trained [0,1) range
		}
		fid, err := filtered.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		pid, err := plain.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		if fid != pid {
			t.Fatalf("insert ids diverged: %d vs %d", fid, pid)
		}
		maxID = fid
	}
	// Fold the deltas deterministically (background compactions may still
	// be in flight) so the queries below run against filtered base rows.
	filtered.compactNow()
	plain.compactNow()
	if filtered.Compactions() == 0 {
		t.Fatal("stream never folded the delta overlay")
	}
	for _, k := range []int{2, 7} {
		for qid := 0; qid <= maxID; qid += 29 {
			got, gerr := filtered.ReverseKNN(qid, k)
			want, werr := plain.ReverseKNN(qid, k)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("ReverseKNN(%d, %d) errors diverged: %v vs %v", qid, k, gerr, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ReverseKNN(%d, %d) = %v, unfiltered %v", qid, k, got, want)
			}
		}
	}
	if admitted, screened := filtered.QuantFilterStats(); admitted == 0 || screened == 0 {
		t.Fatalf("filter never ran after updates: admitted=%d screened=%d", admitted, screened)
	}
}

// TestQuantFilterConstantDimension is the facade-level regression for the
// degenerate scale-0 codebook cell: a dimension that is constant at build
// time trains a zero-width grid there, rows inserted afterwards can take
// any value in it (every one encodes to cell 0), and queries beyond the
// trained constant must still answer byte-identically with the filter on.
// The old lookup table charged q−min against cell 0 in that dimension,
// which could screen out a true nearest neighbor (an MNIST-style border
// pixel that is constant in the training set but not in later inserts).
func TestQuantFilterConstantDimension(t *testing.T) {
	pts := indextest.RandPoints(120, 4, 101)
	for _, p := range pts {
		p[1] = 1.25 // constant at codebook training time
	}
	plain, filtered := quantPair(t, pts)
	rng := rand.New(rand.NewSource(103))
	maxID := len(pts) - 1
	var last []float64
	for i := 0; i < 60; i++ {
		p := make([]float64, 4)
		for j := range p {
			p[j] = rng.Float64()*4 - 2
		}
		p[1] = 1.25 + rng.Float64()*8 // far off the trained constant
		last = p
		fid, err := filtered.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		pid, err := plain.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		if fid != pid {
			t.Fatalf("insert ids diverged: %d vs %d", fid, pid)
		}
		maxID = fid
	}
	// Fold deterministically so the inserted rows sit in filtered base rows.
	filtered.compactNow()
	plain.compactNow()
	for _, k := range []int{1, 5} {
		for qid := 0; qid <= maxID; qid += 7 {
			got, gerr := filtered.ReverseKNN(qid, k)
			want, werr := plain.ReverseKNN(qid, k)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("ReverseKNN(%d, %d) errors diverged: %v vs %v", qid, k, gerr, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ReverseKNN(%d, %d) = %v, unfiltered %v", qid, k, got, want)
			}
		}
	}
	// Forward queries out past the trained constant, including exact matches
	// of inserted rows (distance 0 — the decisive case for the old bound).
	for trial := 0; trial < 21; trial++ {
		q := indextest.RandPoints(1, 4, int64(700+trial))[0]
		q[1] = 1.25 + rng.Float64()*8
		if trial == 20 {
			q = append([]float64(nil), last...)
		}
		got, err := filtered.KNN(q, 4)
		if err != nil {
			t.Fatalf("KNN: %v", err)
		}
		want, err := plain.KNN(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("KNN(%v) = %v, unfiltered %v", q, got, want)
		}
	}
	if admitted, _ := filtered.QuantFilterStats(); admitted == 0 {
		t.Fatal("filter never consulted on the constant-dimension workload")
	}
}

// TestQuantFilterSaveLoadRoundTrip checks the codebook travels with the
// snapshot: a load restores the filter with the original training bounds
// and answers byte-identically, and an unfiltered engine still writes the
// version-1 format.
func TestQuantFilterSaveLoadRoundTrip(t *testing.T) {
	pts := indextest.RandPoints(180, 4, 61)
	plain, filtered := quantPair(t, pts)

	var buf bytes.Buffer
	if err := filtered.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !restored.QuantFiltered() {
		t.Fatal("load dropped the quantized filter")
	}
	for qid := 0; qid < len(pts); qid += 11 {
		got, err := restored.ReverseKNN(qid, 5)
		if err != nil {
			t.Fatalf("ReverseKNN(%d): %v", qid, err)
		}
		want, err := filtered.ReverseKNN(qid, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("restored ReverseKNN(%d) = %v, original %v", qid, got, want)
		}
	}
	// Forward queries engage the filter deterministically (the reverse path
	// only reaches k-NN verification when lazy filtering cannot decide).
	for trial := 0; trial < 20; trial++ {
		q := indextest.RandPoints(1, 4, int64(500+trial))[0]
		got, err := restored.KNN(q, 6)
		if err != nil {
			t.Fatalf("KNN: %v", err)
		}
		want, err := filtered.KNN(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("restored KNN = %v, original %v", got, want)
		}
	}
	if admitted, screened := restored.QuantFilterStats(); admitted == 0 || screened == 0 {
		t.Fatalf("restored filter never ran: admitted=%d screened=%d", admitted, screened)
	}

	// An unfiltered engine must keep producing the original format bytes.
	var v1 bytes.Buffer
	if err := plain.Save(&v1); err != nil {
		t.Fatalf("Save (plain): %v", err)
	}
	back, err := Load(&v1)
	if err != nil {
		t.Fatalf("Load (plain): %v", err)
	}
	if back.QuantFiltered() {
		t.Fatal("unfiltered snapshot restored with a filter")
	}
}

// TestQuantFilterSharded checks the scatter-gather engine: per-shard
// filters, byte-identical merges, and counters summed across shards.
func TestQuantFilterSharded(t *testing.T) {
	pts := indextest.ClusteredPoints(260, 4, 3, 71)
	base := []Option{WithBackend(BackendScan), WithScale(8)}
	plain, err := NewSharded(pts, 3, base...)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	filtered, err := NewSharded(pts, 3, append(base, WithQuantizedFilter())...)
	if err != nil {
		t.Fatalf("NewSharded (filtered): %v", err)
	}
	for qid := 0; qid < len(pts); qid += 19 {
		got, err := filtered.ReverseKNN(qid, 6)
		if err != nil {
			t.Fatalf("ReverseKNN(%d): %v", qid, err)
		}
		want, err := plain.ReverseKNN(qid, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sharded ReverseKNN(%d) = %v, unfiltered %v", qid, got, want)
		}
	}
	if admitted, screened := filtered.QuantFilterStats(); admitted == 0 || screened == 0 {
		t.Fatalf("sharded filter never ran: admitted=%d screened=%d", admitted, screened)
	}
	if !filtered.QuantFiltered() || plain.QuantFiltered() {
		t.Fatal("sharded QuantFiltered flags inverted")
	}
}

// TestQuantFilterTelemetry checks the candidate counters appear on the
// scrape and advance with queries — the operational guard that filter
// admission is observable, not inferred.
func TestQuantFilterTelemetry(t *testing.T) {
	pts := indextest.RandPoints(200, 4, 81)
	reg := telemetry.NewRegistry()
	s, err := New(pts, WithBackend(BackendScan), WithScale(8),
		WithQuantizedFilter())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.EnableTelemetry(reg)
	if _, err := s.ReverseKNN(0, 5); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		q := indextest.RandPoints(1, 4, int64(600+trial))[0]
		if _, err := s.KNN(q, 5); err != nil {
			t.Fatal(err)
		}
	}
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	for _, family := range []string{
		"rknn_candidates_quant_admitted_total",
		"rknn_candidates_quant_screened_total",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("scrape missing %s", family)
		}
	}
	admitted, _ := s.QuantFilterStats()
	if admitted == 0 {
		t.Fatal("no candidates admitted after a query")
	}
	if !strings.Contains(out, `rknn_candidates_quant_admitted_total{backend="scan"}`) {
		t.Error("admitted counter missing backend label")
	}
}

// TestQuantFilterRequiresScan checks the option fails loudly on back-ends
// without a row-scan layout instead of silently not filtering.
func TestQuantFilterRequiresScan(t *testing.T) {
	pts := indextest.RandPoints(60, 3, 91)
	if _, err := New(pts, WithBackend(BackendCoverTree), WithScale(10), WithQuantizedFilter()); err == nil {
		t.Fatal("New accepted WithQuantizedFilter on the cover tree")
	}
	if _, err := NewSharded(pts, 2, WithBackend(BackendCoverTree), WithScale(10), WithQuantizedFilter()); err == nil {
		t.Fatal("NewSharded accepted WithQuantizedFilter on the cover tree")
	}
	if _, err := New(pts, WithBackend(BackendScan), WithScale(10), WithMetric(vecmath.Minkowski{P: 3}), WithQuantizedFilter()); err == nil {
		t.Fatal("New accepted WithQuantizedFilter with an unsupported metric")
	}
}

// TestQuantFilterSurvivesShardedRestart pins that a sharded store reopens
// with the filter it was built with: QuantFiltered reports it, the scrape
// carries the candidate counters, and a shard first populated after the
// restart trains its own codebook like one populated before it. The store
// has more shards than points so that some are still empty at the restart.
func TestQuantFilterSurvivesShardedRestart(t *testing.T) {
	const S = 8
	dir := t.TempDir()
	pts := indextest.RandPoints(3, 4, 91)
	ss, err := NewSharded(pts, S, WithBackend(BackendScan), WithScale(8), WithQuantizedFilter())
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	d, err := NewDurableSharded(dir, ss)
	if err != nil {
		t.Fatalf("NewDurableSharded: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	defer re.Close()
	if !re.QuantFiltered() {
		t.Fatal("QuantFiltered() = false after the restart of a filtered store")
	}
	reg := telemetry.NewRegistry()
	re.EnableTelemetry(reg)
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(b.String(), "rknn_candidates_quant_admitted_total") {
		t.Error("scrape after the restart is missing the quantized-filter counters")
	}

	fresh := -1 // a shard first populated after the restart
	for _, p := range indextest.RandPoints(2*S, 4, 92) {
		s := index.ShardOf(re.IDSpan(), S)
		wasEmpty := re.slots[s].eng.Load() == nil
		if _, err := re.Insert(p); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if wasEmpty {
			fresh = s
		}
	}
	if fresh < 0 {
		t.Fatal("no insert landed on an empty shard; the test checked nothing")
	}
	if re.slots[fresh].eng.Load().quantCodebook() == nil {
		t.Errorf("shard %d, populated after the restart, has no codebook", fresh)
	}
}
