// Package bruteforce computes exact reverse k-nearest-neighbor results by
// definition, with no index support. It is the ground truth for every recall
// and exactness measurement in this repository, and doubles as the O(n²)
// baseline that the paper's methods are designed to beat.
//
// Conventions (see DESIGN.md): neighbor ranks exclude the object itself, and
// boundary ties are accepted — x is a reverse k-nearest neighbor of q if and
// only if fewer than k points y ∉ {x} satisfy d(x,y) < d(x,q). This matches
// the refinement test d_k(x) ≥ d(q,x) in Algorithm 1 of the paper.
package bruteforce

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/vecmath"
)

// Truth answers exact RkNN queries over a fixed dataset.
type Truth struct {
	points [][]float64
	metric vecmath.Metric
	dist   vecmath.DistanceFunc // vecmath.KernelFor(metric)
}

// New constructs a Truth over points. The slice is retained by reference.
func New(points [][]float64, metric vecmath.Metric) (*Truth, error) {
	if metric == nil {
		return nil, errors.New("bruteforce: nil metric")
	}
	if err := vecmath.ValidateAllFor(metric, points); err != nil {
		return nil, err
	}
	return &Truth{points: points, metric: metric, dist: vecmath.KernelFor(metric)}, nil
}

// Len returns the dataset size.
func (t *Truth) Len() int { return len(t.points) }

// RkNNByID returns the exact reverse k-nearest neighbors of the dataset
// member qid, as a sorted slice of IDs.
func (t *Truth) RkNNByID(qid, k int) ([]int, error) {
	if qid < 0 || qid >= len(t.points) {
		return nil, fmt.Errorf("bruteforce: query id %d out of range [0,%d)", qid, len(t.points))
	}
	return t.rknn(t.points[qid], qid, k)
}

// RkNN returns the exact reverse k-nearest neighbors of an arbitrary query
// point q (not necessarily a dataset member), as a sorted slice of IDs.
func (t *Truth) RkNN(q []float64, k int) ([]int, error) {
	if err := vecmath.ValidateFor(t.metric, q); err != nil {
		return nil, err
	}
	if len(q) != len(t.points[0]) {
		return nil, vecmath.CheckDims(q, t.points[0])
	}
	return t.rknn(q, -1, k)
}

func (t *Truth) rknn(q []float64, skipID, k int) ([]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("bruteforce: k must be positive, got %d", k)
	}
	return ReverseKNN(t.points, nil, t.dist, q, skipID, k), nil
}

// ReverseKNN is the refinement test by definition, the one quadratic oracle
// of the module. It returns, ascending, every ID x in [0, len(rows)) other
// than skipID for which live(x) holds and fewer than k live IDs y ≠ x satisfy
// dist(rows[x], rows[y]) < dist(rows[x], q). A nil live accepts every ID; a
// row it rejects is never read. The count stops at k, so a point far from q
// costs about k distances.
func ReverseKNN(rows [][]float64, live func(id int) bool, dist vecmath.DistanceFunc, q []float64, skipID, k int) []int {
	var out []int
	for x, px := range rows {
		if x == skipID || live != nil && !live(x) {
			continue
		}
		dxq := dist(px, q)
		closer := 0
		for y := 0; y < len(rows) && closer < k; y++ {
			if y != x && (live == nil || live(y)) && dist(px, rows[y]) < dxq {
				closer++
			}
		}
		if closer < k {
			out = append(out, x)
		}
	}
	return out
}

// KNNDists returns, for every dataset member x, its distance to its k-th
// nearest neighbor among the other members (or to the farthest member if
// fewer than k exist). Exact baselines with heavy precomputation (RdNN-Tree,
// MRkNNCoP) consume this table; tests use it to validate index kNN output.
func (t *Truth) KNNDists(k int) ([]float64, error) {
	if k <= 0 {
		return nil, fmt.Errorf("bruteforce: k must be positive, got %d", k)
	}
	out := make([]float64, len(t.points))
	dists := make([]float64, 0, len(t.points)-1)
	for x := range t.points {
		dists = dists[:0]
		for y := range t.points {
			if y == x {
				continue
			}
			dists = append(dists, t.dist(t.points[x], t.points[y]))
		}
		sort.Float64s(dists)
		idx := k - 1
		if idx >= len(dists) {
			idx = len(dists) - 1
		}
		if idx < 0 {
			out[x] = 0
			continue
		}
		out[x] = dists[idx]
	}
	return out, nil
}

// Recall returns |got ∩ want| / |want|, the approximation-quality measure of
// the paper's time-accuracy tradeoff curves. An empty ground truth counts as
// recall 1.
func Recall(got, want []int) float64 {
	if len(want) == 0 {
		return 1
	}
	set := make(map[int]bool, len(want))
	for _, id := range want {
		set[id] = true
	}
	hit := 0
	for _, id := range got {
		if set[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// Precision returns |got ∩ want| / |got|. An empty result counts as
// precision 1.
func Precision(got, want []int) float64 {
	if len(got) == 0 {
		return 1
	}
	set := make(map[int]bool, len(want))
	for _, id := range want {
		set[id] = true
	}
	hit := 0
	for _, id := range got {
		if set[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(got))
}
