package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/stats"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

// values groups metric values by workload, then by metric name.
type values map[string]map[string][]float64

func (v values) add(workload string, p *pass) {
	if p == nil {
		return
	}
	if v[workload] == nil {
		v[workload] = make(map[string][]float64)
	}
	for name, x := range p.Metrics {
		v[workload][name] = append(v[workload][name], x)
	}
}

// loadSet reads every result file under path (a file, or a directory
// searched recursively) and groups the end-to-end and the per-layer values
// by workload and metric. Several runs of a workload form the sample its
// spread is taken from.
func loadSet(path string) (set, layers values, err error) {
	set, layers = make(values), make(values)
	err = filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".json") || strings.HasPrefix(d.Name(), "trace-") {
			return err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		set.add(r.Workload, r.EndToEnd)
		layers.add(r.Workload, r.PerLayer)
		return nil
	})
	if err == nil && len(set) == 0 {
		err = fmt.Errorf("%s: no end-to-end results", path)
	}
	return set, layers, err
}

// exactCounts are the traced pass's single-goroutine counts. At one seed
// they must repeat exactly; only then may a later change rest a claim on
// one of them.
var exactCounts = []string{
	"core.scan_depth", "core.candidates", "core.lazy_accepts", "core.lazy_rejects", "core.verified",
	"core.witness_dist_comps", "scatter.candidates_per_query", "scatter.knn_probes_per_query",
	"coordinator.rpcs_per_query", "persist.wal_bytes_per_write",
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), which
// is what the driver uses; ok is false under two values.
func quartiles(v []float64) (q1, q3 float64, ok bool) {
	if len(v) < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (len(s) + 1) / 4
		j = min(max(j, 1), len(s)-1)
		delta := float64(i*(len(s)+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), true
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) (float64, bool) {
	q1, q3, ok := quartiles(v)
	if m := stats.Median(v); ok && m != 0 {
		return (q3 - q1) / m, true
	}
	return 0, false
}

// verdict compares one workload × metric: b against its base a.
//
//	regressed   b's median is worse than a's by more than the bound
//	unresolved  the runs of either set spread wider than the bound, so the
//	            medians cannot show a change of that size either way
//	improved    b is better by more than the bound (or, under a wide
//	            spread, every run of b beats every run of a)
//	unchanged   within the bound, and the spread is narrow enough to say so
func verdict(d metricDef, a, b []float64) (worse float64, v string) {
	ma, mb := stats.Median(a), stats.Median(b)
	sign := 1.0
	if d.Better == higher {
		sign = -1
	}
	switch {
	case ma != 0:
		worse = sign * (mb - ma) / ma
	case mb != ma:
		worse = sign * (mb - ma) // a zero base: any move is out of proportion
	}
	sa, _ := spread(a)
	sb, _ := spread(b)
	if max(sa, sb) > d.Bound && d.Bound > 0 {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				allBetter = allBetter && sign*(y-x) < 0
			}
		}
		if allBetter {
			return worse, "improved"
		}
		return worse, "unresolved"
	}
	switch {
	case worse > d.Bound:
		return worse, "regressed"
	case worse < -d.Bound:
		return worse, "improved"
	}
	return worse, "unchanged"
}

// compareSets prints one row per workload × end-to-end metric and returns 1
// when any row regressed.
func compareSets(pathA, pathB, benchmarkJSON string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench -compare:", err)
		return 2
	}
	a, layersA, err := loadSet(pathA)
	if err != nil {
		return fail(err)
	}
	b, layersB, err := loadSet(pathB)
	if err != nil {
		return fail(err)
	}
	raw, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		return fail(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fail(fmt.Errorf("%s: %w", benchmarkJSON, err))
	}
	// BENCHMARK.json is the authority on bounds; the metrics it cannot
	// list keep the ones in this program's table.
	defs := append([]metricDef(nil), endToEndDefs...)
	for i := range defs {
		for _, listed := range bf.EndToEnd {
			if listed.Name == defs[i].Name {
				defs[i].Bound, defs[i].Better = listed.Bound, listed.Better
			}
		}
	}

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA (base)\tB\tB/A\tworse by\tbound\tspread A\tspread B\tverdict")
	regressed := 0
	for _, w := range workloads(fullSizing) {
		for _, d := range defs {
			va, vb := a[w.name][d.Name], b[w.name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, v := verdict(d, va, vb)
			if v == "regressed" {
				regressed++
			}
			ratio := "-"
			if ma := stats.Median(va); ma != 0 {
				ratio = fmt.Sprintf("%.4f", stats.Median(vb)/ma)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (n=%d)\t%.6g (n=%d)\t%s\t%+.2f%%\t%.0f%%\t%s\t%s\t%s\n",
				w.name, d.Name, stats.Median(va), d.Unit, len(va), stats.Median(vb), len(vb), ratio,
				100*worse, 100*d.Bound, spreadText(va), spreadText(vb), v)
		}
	}
	if len(layersA) > 0 && len(layersB) > 0 {
		fmt.Fprintln(tw, "\nworkload\tcount per query\tA\tB\tat one seed")
		for _, w := range workloads(fullSizing) {
			for _, name := range exactCounts {
				va, vb := layersA[w.name][name], layersB[w.name][name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				same := "identical"
				for _, x := range slices.Concat(va, vb) {
					if x != va[0] {
						same = "differs"
					}
				}
				fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t%s\n", w.name, name, va[0], vb[0], same)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return fail(err)
	}
	if regressed > 0 {
		fmt.Fprintf(stdout, "%d regressed\n", regressed)
		return 1
	}
	return 0
}

func spreadText(v []float64) string {
	if s, ok := spread(v); ok {
		return fmt.Sprintf("%.2f%%", 100*s)
	}
	return "-"
}
