// Benchmarks regenerating each figure and table of the paper's evaluation
// section at a reduced scale, plus the ablation benches DESIGN.md calls out.
// Every benchmark prints the measured rows via b.Log at -v, so
// `go test -bench . -benchmem` both times the experiments and exposes their
// outputs. `experiments -h` lists what can be regenerated; DESIGN.md,
// "Evaluation", says what is measured where.
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/benchjson"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/index"
	"repro/internal/lid"
	"repro/internal/lsh"
	"repro/internal/telemetry"
	"repro/internal/vecmath"
)

// benchWorkloads mirrors cmd/experiments' figure-order datasets at bench
// scale (Sequoia, ALOI, FCT, MNIST).
func benchWorkloads() []harness.Workload {
	return []harness.Workload{
		{Data: dataset.Sequoia(2000, 1), Backend: "covertree", Queries: 15, Seed: 42},
		{Data: dataset.ALOI(800, 1), Backend: "covertree", Queries: 15, Seed: 42},
		{Data: dataset.FCT(1500, 1), Backend: "covertree", Queries: 15, Seed: 42},
		{Data: dataset.MNIST(700, 1), Backend: "scan", Queries: 15, Seed: 42},
	}
}

// benchTradeoff runs one Figures 3–6 workload per iteration.
func benchTradeoff(b *testing.B, w harness.Workload) {
	b.Helper()
	cfg := harness.TradeoffConfig{
		Workload:     w,
		Ks:           []int{10},
		TValues:      []float64{2, 6, 10},
		Alphas:       []float64{2, 8},
		ExactMethods: true,
		AutoT:        true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := harness.Tradeoff(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			if err := harness.WriteTradeoff(&buf, res); err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + buf.String())
		}
	}
}

func BenchmarkFig3_Sequoia(b *testing.B) { benchTradeoff(b, benchWorkloads()[0]) }
func BenchmarkFig4_ALOI(b *testing.B)    { benchTradeoff(b, benchWorkloads()[1]) }
func BenchmarkFig5_FCT(b *testing.B)     { benchTradeoff(b, benchWorkloads()[2]) }
func BenchmarkFig6_MNIST(b *testing.B)   { benchTradeoff(b, benchWorkloads()[3]) }

// BenchmarkTable1_Estimators regenerates the intrinsic-dimensionality table.
func BenchmarkTable1_Estimators(b *testing.B) {
	ws := benchWorkloads()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := harness.IDTable(ws, lid.DefaultMLEOptions(), lid.DefaultPairwiseOptions())
		if i == 0 {
			var buf bytes.Buffer
			if err := harness.WriteIDTable(&buf, rows); err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkFig7_Mechanisms regenerates the lazy accept/reject/verify
// proportions on the Sequoia surrogate.
func BenchmarkFig7_Mechanisms(b *testing.B) {
	w := benchWorkloads()[0]
	ts := []float64{2, 4, 6, 8, 10, 12, 14}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := harness.Mechanisms(w, 10, ts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			if err := harness.WriteMechanisms(&buf, rows); err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkFig8_Imagenet regenerates the scalability study on subsets of the
// Imagenet surrogate.
func BenchmarkFig8_Imagenet(b *testing.B) {
	full := harness.Workload{
		Data:    dataset.Imagenet(2400, 64, 1),
		Backend: "scan",
		Queries: 10,
		Seed:    42,
	}
	cfg := harness.ScalabilityConfig{
		Full:        full,
		Sizes:       []int{800, 1600, 2400},
		Ks:          []int{10},
		TValues:     []float64{4, 10},
		ExactCutoff: 1600,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := harness.Scalability(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			if err := harness.WriteScalability(&buf, runs); err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkFig9_Amortization regenerates the queries-per-precomputation-
// budget comparison.
func BenchmarkFig9_Amortization(b *testing.B) {
	w := harness.Workload{
		Data:    dataset.Imagenet(1500, 64, 1),
		Backend: "scan",
		Queries: 10,
		Seed:    42,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := harness.Amortization(w, 10, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			if err := harness.WriteAmortization(&buf, rows); err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkAblationBackends compares the forward-index back-ends as RDT+'s
// expanding-search substrate on one medium workload (DESIGN.md ablation).
func BenchmarkAblationBackends(b *testing.B) {
	data := dataset.FCT(2000, 1)
	queries := []int{5, 17, 99, 256, 788, 1301, 1777}
	for _, backend := range []string{"scan", "covertree"} {
		backend := backend
		b.Run(backend, func(b *testing.B) {
			ix, err := harness.BuildBackend(backend, data.Points, vecmath.Euclidean{})
			if err != nil {
				b.Fatal(err)
			}
			qr, err := core.NewQuerier(ix, core.Params{K: 10, T: 6, Plus: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := qr.ByID(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWitnessCost compares RDT's full witness maintenance with
// RDT+'s candidate-set reduction as the filter set grows (paper Section 4.3:
// the quadratic witness cost is the motivation for RDT+).
func BenchmarkAblationWitnessCost(b *testing.B) {
	data := dataset.MNIST(900, 1)
	ix, err := harness.BuildBackend("scan", data.Points, vecmath.Euclidean{})
	if err != nil {
		b.Fatal(err)
	}
	queries := []int{3, 77, 410, 555, 808}
	for _, plus := range []bool{false, true} {
		name := "RDT"
		if plus {
			name = "RDT+"
		}
		qr, err := core.NewQuerier(ix, core.Params{K: 10, T: 12, Plus: plus})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var comps int64
			for i := 0; i < b.N; i++ {
				res, err := qr.ByID(queries[i%len(queries)])
				if err != nil {
					b.Fatal(err)
				}
				comps += res.Stats.DistanceComps
			}
			b.ReportMetric(float64(comps)/float64(b.N), "distcomps/op")
		})
	}
}

// BenchmarkAblationAutoT compares the three estimators as automatic t
// choosers: estimation cost plus resulting query cost (paper Section 8.1
// argues the correlation-dimension estimators are preferable).
func BenchmarkAblationAutoT(b *testing.B) {
	data := dataset.FCT(1500, 1)
	ix, err := harness.BuildBackend("covertree", data.Points, vecmath.Euclidean{})
	if err != nil {
		b.Fatal(err)
	}
	estimate := map[string]func() (float64, error){
		"MLE": func() (float64, error) { return lid.MLE(ix, lid.DefaultMLEOptions()) },
		"GP": func() (float64, error) {
			return lid.GrassbergerProcaccia(data.Points, vecmath.Euclidean{}, lid.DefaultPairwiseOptions())
		},
		"Takens": func() (float64, error) {
			return lid.Takens(data.Points, vecmath.Euclidean{}, lid.DefaultPairwiseOptions())
		},
	}
	for _, name := range []string{"MLE", "GP", "Takens"} {
		fn := estimate[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := fn()
				if err != nil {
					b.Fatal(err)
				}
				if t < 1 {
					t = 1
				}
				qr, err := core.NewQuerier(ix, core.Params{K: 10, T: t, Plus: true})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := qr.ByID(i % data.Len()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationApproxRankings compares RDT+ over exact and LSH-based
// approximate rankings (the paper's claim iii), reporting achieved recall.
func BenchmarkAblationApproxRankings(b *testing.B) {
	data := dataset.Imagenet(1200, 64, 1)
	metric := vecmath.Euclidean{}
	exact, err := harness.BuildBackend("covertree", data.Points, metric)
	if err != nil {
		b.Fatal(err)
	}
	approx, err := lsh.New(data.Points, metric, lsh.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	truth, err := harness.NewTruth(data.Points, metric, exact, 10, []int{1, 45, 333, 777, 1101})
	if err != nil {
		b.Fatal(err)
	}
	queries := truth.Queries
	run := func(b *testing.B, ix index.Index) {
		qr, err := core.NewQuerier(ix, core.Params{K: 10, T: 8, Plus: true})
		if err != nil {
			b.Fatal(err)
		}
		got := map[int][]int{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			qid := queries[i%len(queries)]
			res, err := qr.ByID(qid)
			if err != nil {
				b.Fatal(err)
			}
			got[qid] = res.IDs
		}
		b.StopTimer()
		if len(got) == len(queries) {
			b.ReportMetric(truth.MeanRecall(got), "recall")
		}
	}
	b.Run("covertree", func(b *testing.B) { run(b, exact) })
	b.Run("lsh", func(b *testing.B) { run(b, approx) })
}

// BenchmarkAblationAdaptiveT compares the fixed-scale RDT+ against the
// adaptive-scale variant (the paper's future-work extension), reporting the
// scan depth saved.
func BenchmarkAblationAdaptiveT(b *testing.B) {
	data := dataset.Sequoia(3000, 1)
	ix, err := harness.BuildBackend("covertree", data.Points, vecmath.Euclidean{})
	if err != nil {
		b.Fatal(err)
	}
	fixed, err := core.NewQuerier(ix, core.Params{K: 10, T: 14, Plus: true})
	if err != nil {
		b.Fatal(err)
	}
	adaptive, err := core.NewAdaptiveQuerier(ix, core.AdaptiveParams{K: 10, MaxT: 14, Multiplier: 2, Plus: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		qr   *core.Querier
	}{{"fixed-t14", fixed}, {"adaptive", adaptive}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var depth int64
			for i := 0; i < b.N; i++ {
				res, err := v.qr.ByID(i % data.Len())
				if err != nil {
					b.Fatal(err)
				}
				depth += int64(res.Stats.ScanDepth)
			}
			b.ReportMetric(float64(depth)/float64(b.N), "scandepth/op")
		})
	}
}

// BenchmarkAblationMaxGED measures the exactness-threshold oracle used by
// the Theorem 1 tests (quadratic, reference-only).
func BenchmarkAblationMaxGED(b *testing.B) {
	data := dataset.Sequoia(400, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lid.MaxGED(data.Points, vecmath.Euclidean{}, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreEngine measures the single-engine facade on the FCT
// surrogate — RkNN, forward kNN, and batch throughput, plus the mean
// pruning ratio from the per-query stats — and refreshes BENCH_core.json
// with the measured queries/s, the perf baseline future PRs report
// against. CI runs it as a 1-iteration smoke (-benchtime 1x).
func BenchmarkCoreEngine(b *testing.B) {
	data := dataset.FCT(2000, 1)
	s, err := New(data.Points, WithScale(6))
	if err != nil {
		b.Fatal(err)
	}
	qids := make([]int, 256)
	for i := range qids {
		qids[i] = (i * 7) % data.Len()
	}
	qps := map[string]float64{}
	var pruning float64
	b.Run("rknn", func(b *testing.B) {
		var generated, settled int64
		for i := 0; i < b.N; i++ {
			_, st, err := s.ReverseKNNStats(qids[i%len(qids)], 10)
			if err != nil {
				b.Fatal(err)
			}
			generated += int64(st.FilterSize + st.Excluded)
			settled += int64(st.LazyAccepts + st.LazyRejects)
		}
		q := float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(q, "queries/s")
		qps["rknn"] = q
		if generated > 0 {
			// settled/generated: on the single engine this is identically
			// the live rknn_pruning_ratio gauge (1 - verified/generated),
			// since generated = settled + verified there.
			pruning = float64(settled) / float64(generated)
			b.ReportMetric(pruning, "pruning-ratio")
		}
	})
	b.Run("knn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.KNN(data.Points[qids[i%len(qids)]], 10); err != nil {
				b.Fatal(err)
			}
		}
		q := float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(q, "queries/s")
		qps["knn"] = q
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.BatchReverseKNN(qids, 10, 0); err != nil {
				b.Fatal(err)
			}
		}
		q := float64(len(qids)) * float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(q, "queries/s")
		qps["batch"] = q
	})
	if len(qps) == 3 {
		mergeBenchJSON(b, "BENCH_core.json", "core_engine", map[string]any{
			"benchmark":          "BenchmarkCoreEngine",
			"dataset":            "fct-2000",
			"batch":              len(qids),
			"k":                  10,
			"gomaxprocs":         runtime.GOMAXPROCS(0),
			"queries_per_second": qps,
			"mean_pruning_ratio": pruning,
		})
	}
}

// mergeBenchJSON read-modify-writes one top-level key of a shared benchmark
// JSON file, so sibling benchmarks (core_engine, write_path) each refresh
// their own section without clobbering the other's last measurement. A
// flat pre-keyed file is a bare BenchmarkCoreEngine payload and is adopted
// under that key.
func mergeBenchJSON(b *testing.B, path, key string, payload any) {
	b.Helper()
	if err := benchjson.Merge(path, key, "core_engine", payload); err != nil {
		b.Logf("could not write %s: %v", path, err)
	}
}

// BenchmarkWritePath measures the incremental write path on the FCT
// surrogate: single-point insert and delete throughput through the delta
// overlay (the facade's live configuration), bulk ingest through
// InsertBatch, and the pre-overlay baseline — cloning the whole back-end
// per write, which is exactly what Searcher.Insert did before the overlay
// landed. The overlay-vs-clone multiple is the PR's headline number and is
// recorded into BENCH_core.json under "write_path" (CI runs a 1-iteration
// smoke via -benchtime 1x; the multiple is only meaningful on timed runs).
func BenchmarkWritePath(b *testing.B) {
	data := dataset.FCT(2000, 1)
	dim := len(data.Points[0])
	// A fixed pool of valid points, cycled; coordinates repeat but IDs stay
	// dense and unique, which is all the write path keys on.
	pool := make([][]float64, 1024)
	for i := range pool {
		p := make([]float64, dim)
		for j := range p {
			p[j] = float64((i*31+j*17)%1000) / 1000
		}
		pool[i] = p
	}
	qps := map[string]float64{}

	b.Run("insert/overlay", func(b *testing.B) {
		s, err := New(data.Points, WithScale(6))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Insert(pool[i%len(pool)]); err != nil {
				b.Fatal(err)
			}
		}
		qps["insert_overlay"] = float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(qps["insert_overlay"], "inserts/s")
	})
	b.Run("insert/clone-per-write", func(b *testing.B) {
		ix, err := harness.BuildBackend("covertree", data.Points, vecmath.Euclidean{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The pre-overlay write path: clone the whole index, insert into
			// the clone, publish the clone.
			next := ix.(index.Cloner).Clone()
			if _, err := next.Insert(pool[i%len(pool)]); err != nil {
				b.Fatal(err)
			}
			ix = next
		}
		qps["insert_clone_per_write"] = float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(qps["insert_clone_per_write"], "inserts/s")
	})
	b.Run("insert/batch-overlay", func(b *testing.B) {
		s, err := New(data.Points, WithScale(6))
		if err != nil {
			b.Fatal(err)
		}
		const batch = 256
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.InsertBatch(pool[:batch]); err != nil {
				b.Fatal(err)
			}
		}
		qps["insert_batch_overlay"] = float64(b.N) * batch / b.Elapsed().Seconds()
		b.ReportMetric(qps["insert_batch_overlay"], "inserts/s")
	})
	b.Run("delete/overlay", func(b *testing.B) {
		s, err := New(data.Points, WithScale(6))
		if err != nil {
			b.Fatal(err)
		}
		// Pre-grow (untimed) so every timed iteration deletes a live ID.
		ids := make([]int, b.N)
		for i := range ids {
			id, err := s.Insert(pool[i%len(pool)])
			if err != nil {
				b.Fatal(err)
			}
			ids[i] = id
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, err := s.Delete(ids[i]); !ok || err != nil {
				b.Fatalf("Delete(%d) = (%v, %v)", ids[i], ok, err)
			}
		}
		qps["delete_overlay"] = float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(qps["delete_overlay"], "deletes/s")
	})

	if len(qps) == 4 {
		multiple := qps["insert_overlay"] / qps["insert_clone_per_write"]
		payload := map[string]any{
			"benchmark":                 "BenchmarkWritePath",
			"dataset":                   "fct-2000",
			"gomaxprocs":                runtime.GOMAXPROCS(0),
			"writes_per_second":         qps,
			"overlay_vs_clone_multiple": multiple,
		}
		mergeBenchJSON(b, "BENCH_core.json", "write_path", payload)
	}
}

// BenchmarkApproxLSH starts the approximate-tier perf trajectory: RDT+
// queries over the LSH back-end at L ∈ {4, 8, 12} tables on the FCT
// surrogate, reporting queries/s and measured reverse-neighbor recall
// against the exact oracle per table count, and refreshing
// BENCH_approx.json beside BENCH_core.json. CI runs it
// as a 1-iteration smoke (-benchtime 1x). -benchmem shows the pooled
// candidate sets at work: the per-query allocation count stays flat in L
// (the dedup set is recycled) instead of growing with every table probed.
func BenchmarkApproxLSH(b *testing.B) {
	data := dataset.FCT(2000, 1)
	metric := vecmath.Euclidean{}
	exact, err := harness.BuildBackend("covertree", data.Points, metric)
	if err != nil {
		b.Fatal(err)
	}
	qids := []int{5, 17, 99, 256, 788, 1301, 1777, 1999}
	truth, err := harness.NewTruth(data.Points, metric, exact, 10, qids)
	if err != nil {
		b.Fatal(err)
	}
	type measurement struct {
		QPS    float64 `json:"queries_per_second"`
		Recall float64 `json:"recall"`
	}
	results := map[string]measurement{}
	for _, L := range []int{4, 8, 12} {
		L := L
		opts := lsh.DefaultOptions()
		opts.Tables = L
		approx, err := lsh.New(data.Points, metric, opts)
		if err != nil {
			b.Fatal(err)
		}
		qr, err := core.NewQuerier(approx, core.Params{K: 10, T: 8, Plus: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("L=%d", L), func(b *testing.B) {
			b.ReportAllocs()
			got := map[int][]int{}
			for i := 0; i < b.N; i++ {
				qid := qids[i%len(qids)]
				res, err := qr.ByID(qid)
				if err != nil {
					b.Fatal(err)
				}
				got[qid] = res.IDs
			}
			qps := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(qps, "queries/s")
			// Recall over the full query set: top up whatever the timed
			// loop did not reach so every table count reports on the same
			// queries.
			b.StopTimer()
			for _, qid := range qids {
				if _, done := got[qid]; !done {
					res, err := qr.ByID(qid)
					if err != nil {
						b.Fatal(err)
					}
					got[qid] = res.IDs
				}
			}
			recall := truth.MeanRecall(got)
			b.ReportMetric(recall, "recall")
			results[fmt.Sprintf("L=%d", L)] = measurement{QPS: qps, Recall: recall}
		})
	}
	if len(results) == 3 {
		payload := map[string]any{
			"benchmark":  "BenchmarkApproxLSH",
			"dataset":    "fct-2000",
			"k":          10,
			"t":          8,
			"hashes":     lsh.DefaultOptions().Hashes,
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"tables":     results,
		}
		raw, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_approx.json", append(raw, '\n'), 0o644); err != nil {
			b.Logf("could not write BENCH_approx.json: %v", err)
		}
	}
}

// BenchmarkCoreQuery isolates a single RDT+ query on each surrogate at the
// paper's default rank, the microbenchmark backing the per-query times in
// the figures.
func BenchmarkCoreQuery(b *testing.B) {
	for _, w := range benchWorkloads() {
		w := w
		b.Run(w.Data.Name, func(b *testing.B) {
			ix, err := harness.BuildBackend(w.Backend, w.Data.Points, vecmath.Euclidean{})
			if err != nil {
				b.Fatal(err)
			}
			qr, err := core.NewQuerier(ix, core.Params{K: 10, T: 8, Plus: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := qr.ByID(i % w.Data.Len()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// scalarEuclidean reproduces the pre-kernel Euclidean path exactly: a
// plain scalar loop reached through the Metric interface. Because it is
// not the vecmath.Euclidean type, KernelFor dispatches to nil and every
// layer falls back to per-row interface calls — the honest baseline for
// the kernel speedups below.
type scalarEuclidean struct{}

func (scalarEuclidean) Distance(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func (scalarEuclidean) Name() string { return "euclidean" }

func (scalarEuclidean) Metricity() bool { return true }

// BenchmarkKernels measures the distance-kernel layer: one-vs-one kernel
// latency against the scalar interface path, and end-to-end engine
// throughput in two configurations — interface-dispatched scalar loops
// (the pre-kernel engine) and type-switched kernels, which on the scan
// back-end measure eight rows a pass. The measured knn/rknn multiples land
// in the "kernels" section of BENCH_core.json. CI runs it as a 1-iteration
// smoke (-benchtime 1x).
func BenchmarkKernels(b *testing.B) {
	// One-vs-one: 64-dim vectors, scalar interface call vs direct kernel.
	dim := 64
	x, y := make([]float64, dim), make([]float64, dim)
	for i := range x {
		x[i] = float64(i%7) * 0.31
		y[i] = float64(i%5) * 0.47
	}
	nsPer := map[string]float64{}
	var sink float64
	b.Run("l2/scalar", func(b *testing.B) {
		var m Metric = scalarEuclidean{}
		for i := 0; i < b.N; i++ {
			sink += m.Distance(x, y)
		}
		nsPer["l2_scalar"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("l2/kernel", func(b *testing.B) {
		kern := vecmath.KernelFor(vecmath.Euclidean{})
		for i := 0; i < b.N; i++ {
			sink += kern(x, y)
		}
		nsPer["l2_kernel"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	_ = sink

	// Engine level: the MNIST surrogate at full 784-dim width — the
	// paper's sequential-scan regime, where every exact distance pays all
	// 784 dimensions.
	data := dataset.MNIST(6000, 1)
	qids := make([]int, 256)
	for i := range qids {
		qids[i] = (i * 7) % data.Len()
	}
	configs := []struct {
		name string
		opts []Option
	}{
		{"scalar", []Option{WithBackend(BackendScan), WithScale(6), WithMetric(scalarEuclidean{})}},
		{"kernels", []Option{WithBackend(BackendScan), WithScale(6)}},
	}
	qps := map[string]float64{}
	for _, cfg := range configs {
		s, err := New(data.Points, cfg.opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("knn/"+cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.KNN(data.Points[qids[i%len(qids)]], 10); err != nil {
					b.Fatal(err)
				}
			}
			q := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(q, "queries/s")
			qps["knn_"+cfg.name] = q
		})
		b.Run("rknn/"+cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.ReverseKNN(qids[i%len(qids)], 10); err != nil {
					b.Fatal(err)
				}
			}
			q := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(q, "queries/s")
			qps["rknn_"+cfg.name] = q
		})
	}
	if len(qps) == 4 && len(nsPer) == 2 {
		payload := map[string]any{
			"benchmark":          "BenchmarkKernels",
			"dataset":            "mnist-6000x784",
			"k":                  10,
			"dim_onevsone":       dim,
			"gomaxprocs":         runtime.GOMAXPROCS(0),
			"ns_per_distance":    nsPer,
			"queries_per_second": qps,
			"knn_multiple":       qps["knn_kernels"] / qps["knn_scalar"],
			"rknn_multiple":      qps["rknn_kernels"] / qps["rknn_scalar"],
		}
		mergeBenchJSON(b, "BENCH_core.json", "kernels", payload)
	}
}

// BenchmarkTelemetryWindowed pins the cost of the sliding-window layer on
// the query hot path. The query/* sub-benchmarks run the same RkNN workload
// instrumented with only the cumulative histogram (the pre-windowing
// instrumentation) versus the Windowed wrapper (cumulative + ring slice +
// the begin.Add completion timestamp, exactly what observeLatency pays);
// their q/s land in BENCH_core.json under "windowed_telemetry". The 5%
// budget is gated on the observe/* sub-benchmarks instead: two sequential
// whole-query runs drift by more than 5% on a shared runner, while the
// instrument itself costs nanoseconds — so the gate compares the directly
// measured per-observation cost delta (windowed minus cumulative Observe)
// against the mean query duration, where runner noise cannot span the four
// orders of magnitude between them. The gate only fires when the
// sub-benchmarks ran enough iterations to mean something (CI's
// -benchtime 1x smoke measures single calls and is pure noise).
func BenchmarkTelemetryWindowed(b *testing.B) {
	data := dataset.FCT(2000, 1)
	s, err := New(data.Points, WithScale(6))
	if err != nil {
		b.Fatal(err)
	}
	qids := make([]int, 256)
	for i := range qids {
		qids[i] = (i * 7) % data.Len()
	}
	hist := telemetry.NewHistogram(telemetry.DefaultLatencyBuckets)
	win := telemetry.NewDefaultWindowed(telemetry.NewHistogram(telemetry.DefaultLatencyBuckets))
	qps := map[string]float64{}
	obsNs := map[string]float64{}
	queryIters, obsIters := 0, 0
	b.Run("query/cumulative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			begin := time.Now()
			if _, err := s.ReverseKNN(qids[i%len(qids)], 10); err != nil {
				b.Fatal(err)
			}
			hist.Observe(time.Since(begin).Seconds())
		}
		q := float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(q, "queries/s")
		qps["cumulative"] = q
	})
	b.Run("query/windowed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			begin := time.Now()
			if _, err := s.ReverseKNN(qids[i%len(qids)], 10); err != nil {
				b.Fatal(err)
			}
			d := time.Since(begin)
			win.Observe(d.Seconds(), begin.Add(d))
		}
		q := float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(q, "queries/s")
		qps["windowed"] = q
		queryIters = b.N
	})
	// Pure-instrument cost. The windowed form advances its timestamp 100µs
	// per call so slice rotation is exercised at a realistic cadence rather
	// than amortised to zero.
	lats := []float64{0.0004, 0.0011, 0.0023, 0.0047, 0.0092}
	base := time.Unix(1_700_000_000, 0)
	b.Run("observe/cumulative", func(b *testing.B) {
		h := telemetry.NewHistogram(telemetry.DefaultLatencyBuckets)
		for i := 0; i < b.N; i++ {
			h.Observe(lats[i%len(lats)])
		}
		obsNs["cumulative"] = b.Elapsed().Seconds() * 1e9 / float64(b.N)
	})
	b.Run("observe/windowed", func(b *testing.B) {
		w := telemetry.NewDefaultWindowed(telemetry.NewHistogram(telemetry.DefaultLatencyBuckets))
		for i := 0; i < b.N; i++ {
			w.Observe(lats[i%len(lats)], base.Add(time.Duration(i)*100*time.Microsecond))
		}
		obsNs["windowed"] = b.Elapsed().Seconds() * 1e9 / float64(b.N)
		obsIters = b.N
	})
	if len(qps) != 2 || len(obsNs) != 2 {
		return
	}
	meanQueryNs := 1e9 / qps["windowed"]
	overhead := (obsNs["windowed"] - obsNs["cumulative"]) / meanQueryNs
	if overhead < 0 {
		overhead = 0
	}
	b.ReportMetric(overhead, "overhead-fraction")
	gated := queryIters >= 100 && obsIters >= 100_000
	if gated && overhead > 0.05 {
		b.Errorf("windowed telemetry costs %.2f%% of a query (observe %.0fns vs %.0fns, query %.0fns), budget 5%%",
			100*overhead, obsNs["windowed"], obsNs["cumulative"], meanQueryNs)
	}
	mergeBenchJSON(b, "BENCH_core.json", "windowed_telemetry", map[string]any{
		"benchmark":          "BenchmarkTelemetryWindowed",
		"dataset":            "fct-2000",
		"k":                  10,
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"queries_per_second": qps,
		"observe_ns":         obsNs,
		"overhead_fraction":  overhead,
		"gated":              gated,
	})
}
