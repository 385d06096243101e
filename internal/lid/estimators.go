package lid

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/index"
	"repro/internal/vecmath"
)

// The estimators in this file implement Section 6 of the paper: practical
// intrinsic-dimensionality estimation used to choose RDT's scale parameter t
// automatically. The paper evaluates three: the maximum-likelihood (Hill)
// estimator of local intrinsic dimensionality averaged over a sample
// (RDT+(MLE)), and two correlation-dimension estimators over pairwise
// distances — Grassberger-Procaccia (RDT+(GP)) and Takens (RDT+(Takens)).

// Estimate runs the estimator the name selects — "mle", "gp" or "takens" —
// at the paper's settings: MLE over ix, the two correlation-dimension
// estimators over points under metric. It is the one place an estimator name
// is resolved; callers clamp the estimate to the scale they accept.
func Estimate(name string, ix index.Index, points [][]float64, metric vecmath.Metric) (float64, error) {
	switch name {
	case "mle":
		return MLE(ix, DefaultMLEOptions())
	case "gp":
		return GrassbergerProcaccia(points, metric, DefaultPairwiseOptions())
	case "takens":
		return Takens(points, metric, DefaultPairwiseOptions())
	}
	return 0, fmt.Errorf("unknown estimator %q (want mle, gp or takens)", name)
}

// MLEOptions configures the Hill/MLE estimator.
type MLEOptions struct {
	// SampleFraction is the share of dataset points whose local estimate
	// is averaged. The paper samples ten percent.
	SampleFraction float64
	// Neighbors is the neighborhood size per local estimate. The paper
	// uses 100, citing the convergence study of Amsaleg et al. (KDD'15).
	Neighbors int
	// Seed drives the deterministic sample choice.
	Seed int64
}

// DefaultMLEOptions returns the paper's settings.
func DefaultMLEOptions() MLEOptions {
	return MLEOptions{SampleFraction: 0.10, Neighbors: 100, Seed: 1}
}

// MLE estimates the dataset's intrinsic dimensionality by averaging the
// maximum-likelihood (Hill) estimator of local intrinsic dimensionality
//
//	ID_x = −( (1/k) Σ_{i=1..k} ln(x_i / x_k) )^{−1}
//
// over a random sample of points, where x_1..x_k are the distances from the
// sample point to its k nearest neighbors. Zero distances (duplicates) are
// skipped, matching the treatment in the reference implementations.
func MLE(ix index.Index, opts MLEOptions) (float64, error) {
	if ix == nil {
		return 0, errors.New("lid: nil index")
	}
	if !(opts.SampleFraction > 0 && opts.SampleFraction <= 1) {
		return 0, fmt.Errorf("lid: sample fraction must be in (0,1], got %v", opts.SampleFraction)
	}
	if opts.Neighbors < 2 {
		return 0, fmt.Errorf("lid: need at least 2 neighbors, got %d", opts.Neighbors)
	}
	n := ix.Len()
	sampleSize := int(math.Ceil(opts.SampleFraction * float64(n)))
	rng := rand.New(rand.NewSource(opts.Seed))
	perm := rng.Perm(n)
	k := opts.Neighbors
	if k > n-1 {
		k = n - 1
	}
	if k < 2 {
		return 0, errors.New("lid: dataset too small for MLE estimation")
	}
	var sum float64
	var used int
	for _, id := range perm[:sampleSize] {
		nn := ix.KNN(ix.Point(id), k, id)
		if len(nn) == 0 {
			continue
		}
		w := nn[len(nn)-1].Dist
		if w <= 0 {
			continue // the whole neighborhood is duplicates
		}
		var logSum float64
		var terms int
		for _, nb := range nn {
			if nb.Dist <= 0 {
				continue
			}
			logSum += math.Log(nb.Dist / w)
			terms++
		}
		if terms == 0 || logSum == 0 {
			continue
		}
		sum += -float64(terms) / logSum
		used++
	}
	if used == 0 {
		return 0, errors.New("lid: no usable sample points (all-duplicate data?)")
	}
	return sum / float64(used), nil
}

// PairwiseOptions configures the correlation-dimension estimators, which
// operate on the pairwise distance distribution.
type PairwiseOptions struct {
	// MaxSample caps the number of points whose pairwise distances are
	// computed; the estimators are quadratic (the cost the paper's Table
	// 1 reports in hours for the full datasets), so large datasets are
	// subsampled deterministically.
	MaxSample int
	// Seed drives the subsample choice.
	Seed int64
	// TailFraction is the upper quantile of pairwise distances treated
	// as the "small r" regime where the log-log curve is fitted (GP) or
	// averaged (Takens).
	TailFraction float64
	// FitPoints is the number of radii sampled for the GP log-log fit.
	FitPoints int
}

// DefaultPairwiseOptions returns settings that keep the estimators under a
// second for the experiment workloads while matching the paper's estimates
// on the calibration datasets.
func DefaultPairwiseOptions() PairwiseOptions {
	return PairwiseOptions{MaxSample: 1000, Seed: 1, TailFraction: 0.05, FitPoints: 16}
}

func (o PairwiseOptions) validate() error {
	if o.MaxSample < 3 {
		return fmt.Errorf("lid: MaxSample must be at least 3, got %d", o.MaxSample)
	}
	if !(o.TailFraction > 0 && o.TailFraction <= 1) {
		return fmt.Errorf("lid: TailFraction must be in (0,1], got %v", o.TailFraction)
	}
	if o.FitPoints < 2 {
		return fmt.Errorf("lid: FitPoints must be at least 2, got %d", o.FitPoints)
	}
	return nil
}

// pairwiseDistances returns the sorted positive pairwise distances of a
// deterministic subsample of the dataset.
func pairwiseDistances(points [][]float64, metric vecmath.Metric, opts PairwiseOptions) ([]float64, error) {
	if metric == nil {
		return nil, errors.New("lid: nil metric")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(points) < 2 {
		return nil, errors.New("lid: need at least 2 points")
	}
	sample := points
	if len(points) > opts.MaxSample {
		rng := rand.New(rand.NewSource(opts.Seed))
		perm := rng.Perm(len(points))
		sample = make([][]float64, opts.MaxSample)
		for i := 0; i < opts.MaxSample; i++ {
			sample[i] = points[perm[i]]
		}
	}
	dists := make([]float64, 0, len(sample)*(len(sample)-1)/2)
	for i := 0; i < len(sample); i++ {
		for j := i + 1; j < len(sample); j++ {
			if d := metric.Distance(sample[i], sample[j]); d > 0 {
				dists = append(dists, d)
			}
		}
	}
	if len(dists) == 0 {
		return nil, errors.New("lid: all pairwise distances are zero")
	}
	sort.Float64s(dists)
	return dists, nil
}

// GrassbergerProcaccia estimates the correlation dimension by fitting a line
// to log C(r) versus log r over the smallest pairwise distances, where
// C(r) is the fraction of pairs within distance r (Grassberger & Procaccia
// 1983; paper Section 6).
func GrassbergerProcaccia(points [][]float64, metric vecmath.Metric, opts PairwiseOptions) (float64, error) {
	dists, err := pairwiseDistances(points, metric, opts)
	if err != nil {
		return 0, err
	}
	m := len(dists)
	tail := int(float64(m) * opts.TailFraction)
	if tail < opts.FitPoints {
		tail = opts.FitPoints
	}
	if tail > m {
		tail = m
	}
	// Sample radii at log-spaced ranks within the tail; C(r) at the
	// radius of rank i is (i+1)/m.
	xs := make([]float64, 0, opts.FitPoints)
	ys := make([]float64, 0, opts.FitPoints)
	for j := 0; j < opts.FitPoints; j++ {
		frac := math.Exp(float64(j) / float64(opts.FitPoints-1) * math.Log(float64(tail)))
		rank := int(frac) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= m {
			rank = m - 1
		}
		r := dists[rank]
		if r <= 0 {
			continue
		}
		x := math.Log(r)
		if len(xs) > 0 && x == xs[len(xs)-1] {
			continue // duplicate radius from tied distances
		}
		xs = append(xs, x)
		ys = append(ys, math.Log(float64(rank+1)/float64(m)))
	}
	if len(xs) < 2 {
		return 0, errors.New("lid: distance distribution too degenerate for a GP fit")
	}
	line, err := fitSlope(xs, ys)
	if err != nil {
		return 0, err
	}
	return line, nil
}

// Takens estimates the correlation dimension with the Takens (1985) maximum
// likelihood estimator: over all pairwise distances below a small threshold
// r, CD = −1 / ⟨ln(d_ij / r)⟩ (paper Section 6).
func Takens(points [][]float64, metric vecmath.Metric, opts PairwiseOptions) (float64, error) {
	dists, err := pairwiseDistances(points, metric, opts)
	if err != nil {
		return 0, err
	}
	m := len(dists)
	cut := int(float64(m) * opts.TailFraction)
	if cut < 2 {
		cut = 2
	}
	if cut > m {
		cut = m
	}
	r := dists[cut-1]
	if r <= 0 {
		return 0, errors.New("lid: zero threshold radius")
	}
	var sum float64
	var terms int
	for _, d := range dists[:cut] {
		if d >= r {
			continue // ln(1) terms carry no information
		}
		sum += math.Log(d / r)
		terms++
	}
	if terms == 0 || sum == 0 {
		return 0, errors.New("lid: distance distribution too degenerate for Takens")
	}
	return -float64(terms) / sum, nil
}

// fitSlope returns the least-squares slope of ys against xs.
func fitSlope(xs, ys []float64) (float64, error) {
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy float64
	for i := range xs {
		sxx += (xs[i] - mx) * (xs[i] - mx)
		sxy += (xs[i] - mx) * (ys[i] - my)
	}
	if sxx == 0 {
		return 0, errors.New("lid: degenerate fit")
	}
	return sxy / sxx, nil
}
