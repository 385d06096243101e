// Package harness drives the experiments of the paper's evaluation section
// (Sections 7–8) over the synthetic surrogate datasets: the time-accuracy
// tradeoff curves of Figures 3–6, the intrinsic-dimensionality estimates of
// Table 1, the lazy accept/reject mechanism breakdown of Figure 7, the
// scalability study of Figure 8, and the precomputation-amortization
// comparison of Figure 9.
//
// Every experiment returns structured rows and can render itself as an
// aligned text table, so `cmd/experiments` and the benchmark suite share one
// implementation. `experiments -h` lists them; DESIGN.md, "Evaluation", says
// what is measured where.
package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/lsh"
	"repro/internal/vecmath"
)

// BuildBackend constructs the forward-kNN index by name: a serving back-end
// through backend.Build, or "lsh", the approximate ranking of the paper's
// claim (iii), which only the reproduction runs (lsh.DefaultOptions()).
func BuildBackend(name string, points [][]float64, metric vecmath.Metric) (index.Index, error) {
	if name == "lsh" {
		return lsh.New(points, metric, lsh.DefaultOptions())
	}
	return backend.Build(name, points, metric)
}

// Workload is a dataset with the query sample and back-end choice used by an
// experiment.
type Workload struct {
	Data    *dataset.Dataset
	Backend string
	// Queries is the number of member queries sampled (the paper uses
	// 100 random dataset members).
	Queries int
	Seed    int64
}

// QueryIDs returns the deterministic query sample for the workload.
func (w Workload) QueryIDs() []int {
	rng := rand.New(rand.NewSource(w.Seed))
	return w.Data.SampleIDs(w.Queries, rng)
}

// Truth holds the exact answers for one workload at one k, computed once and
// shared by every method under test.
type Truth struct {
	K       int
	Queries []int
	Answers map[int][]int
}

// NewTruth computes exact RkNN answers for the given queries using the kNN
// distance table shortcut: x is a reverse neighbor of q iff d(q,x) ≤ d_k(x).
// The table costs one forward kNN query per dataset point and is reused for
// every query, which is far cheaper than per-query brute force.
func NewTruth(points [][]float64, metric vecmath.Metric, forward index.Index, k int, queries []int) (*Truth, error) {
	if k <= 0 {
		return nil, fmt.Errorf("harness: k must be positive, got %d", k)
	}
	if forward == nil {
		return nil, errors.New("harness: nil forward index")
	}
	kdist := make([]float64, len(points))
	ctx := context.Background()
	if err := core.ForEach(ctx, len(points), 0, func(_ context.Context, id int) {
		nn := forward.KNN(points[id], k, id)
		if len(nn) < k {
			// Fewer than k other points exist, so every query has
			// this point as a reverse neighbor.
			kdist[id] = math.Inf(1)
			return
		}
		kdist[id] = nn[len(nn)-1].Dist
	}); err != nil {
		return nil, err
	}
	t := &Truth{K: k, Queries: queries, Answers: make(map[int][]int, len(queries))}
	var mu sync.Mutex
	if err := core.ForEach(ctx, len(queries), 0, func(_ context.Context, i int) {
		qid := queries[i]
		q := points[qid]
		var ids []int
		for x := range points {
			if x == qid {
				continue
			}
			if metric.Distance(q, points[x]) <= kdist[x] {
				ids = append(ids, x)
			}
		}
		mu.Lock()
		t.Answers[qid] = ids
		mu.Unlock()
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// MeanRecall returns the mean recall of the per-query results in got
// against the truth.
func (t *Truth) MeanRecall(got map[int][]int) float64 {
	if len(t.Queries) == 0 {
		return 1
	}
	var sum float64
	for _, qid := range t.Queries {
		sum += bruteforce.Recall(got[qid], t.Answers[qid])
	}
	return sum / float64(len(t.Queries))
}

// MeanPrecision returns the mean precision of the per-query results in got
// against the truth.
func (t *Truth) MeanPrecision(got map[int][]int) float64 {
	if len(t.Queries) == 0 {
		return 1
	}
	var sum float64
	for _, qid := range t.Queries {
		sum += bruteforce.Precision(got[qid], t.Answers[qid])
	}
	return sum / float64(len(t.Queries))
}

// MethodRun is one point on a time-accuracy tradeoff curve: a method with a
// fixed parameter setting, measured over the workload's query sample.
type MethodRun struct {
	Method    string        // e.g. "RDT+", "SFT", "MRkNNCoP"
	Param     string        // e.g. "t=4.0", "α=8", "" for exact methods
	K         int           //
	Recall    float64       // mean over queries
	Precision float64       // mean over queries
	QueryTime time.Duration // mean per query
	Precomp   time.Duration // one-time preprocessing cost
}

// runQueries times fn over all queries sequentially (timing fidelity) and
// returns the per-query answers plus the mean latency.
func runQueries(queries []int, fn func(qid int) ([]int, error)) (map[int][]int, time.Duration, error) {
	got := make(map[int][]int, len(queries))
	start := time.Now()
	for _, qid := range queries {
		ids, err := fn(qid)
		if err != nil {
			return nil, 0, err
		}
		got[qid] = ids
	}
	elapsed := time.Since(start)
	return got, elapsed / time.Duration(len(queries)), nil
}
