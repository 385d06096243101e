// Package vecmath provides dense float64 vector primitives and the distance
// metrics used throughout the repository.
//
// All reverse k-nearest-neighbor algorithms in this module interact with the
// data exclusively through a Metric, mirroring the paper's observation that
// the analysis of RDT holds for any distance measure satisfying the triangle
// inequality (Casanova et al., PVLDB 2017, Section 5).
package vecmath

import (
	"errors"
	"fmt"
	"math"
)

// Metric is a distance function on equal-length float64 vectors.
//
// Implementations must be symmetric and non-negative. Implementations for
// which Metricity() returns true must additionally satisfy the triangle
// inequality; RDT's dimensional-test guarantee (Theorem 1) and the
// correctness of the exact baselines require a true metric.
type Metric interface {
	// Distance returns the distance between a and b. It panics if the
	// vectors have different lengths; use CheckDims for validated entry
	// points.
	Distance(a, b []float64) float64

	// Name identifies the metric in logs and experiment output.
	Name() string

	// Metricity reports whether the triangle inequality holds.
	Metricity() bool
}

// ErrDimensionMismatch is returned by validated entry points when two vectors
// (or a vector and an index) disagree on dimensionality.
var ErrDimensionMismatch = errors.New("vecmath: dimension mismatch")

// CheckDims returns ErrDimensionMismatch (wrapped with the observed lengths)
// unless len(a) == len(b).
func CheckDims(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%w: %d vs %d", ErrDimensionMismatch, len(a), len(b))
	}
	return nil
}

// Euclidean is the L2 metric, the distance used for all experiments in the
// paper (Section 7.1).
type Euclidean struct{}

// Distance returns the L2 distance between a and b.
func (Euclidean) Distance(a, b []float64) float64 {
	return math.Sqrt(SquaredDistance(a, b))
}

// Name implements Metric.
func (Euclidean) Name() string { return "euclidean" }

// Metricity implements Metric. The Euclidean distance is a true metric.
func (Euclidean) Metricity() bool { return true }

// SquaredEuclidean is the squared L2 dissimilarity. It is NOT a metric (the
// triangle inequality fails) and is provided only for filtering steps that
// compare distances from a common anchor, where the square preserves order.
type SquaredEuclidean struct{}

// Distance returns the squared L2 distance between a and b.
func (SquaredEuclidean) Distance(a, b []float64) float64 {
	return SquaredDistance(a, b)
}

// Name implements Metric.
func (SquaredEuclidean) Name() string { return "sq-euclidean" }

// Metricity implements Metric; squared Euclidean violates the triangle
// inequality.
func (SquaredEuclidean) Metricity() bool { return false }

// Manhattan is the L1 metric.
type Manhattan struct{}

// Distance returns the L1 distance between a and b.
func (Manhattan) Distance(a, b []float64) float64 { return L1Distance(a, b) }

// Name implements Metric.
func (Manhattan) Name() string { return "manhattan" }

// Metricity implements Metric. L1 is a true metric.
func (Manhattan) Metricity() bool { return true }

// Chebyshev is the L∞ metric.
type Chebyshev struct{}

// Distance returns the L∞ distance between a and b.
func (Chebyshev) Distance(a, b []float64) float64 { return LinfDistance(a, b) }

// Name implements Metric.
func (Chebyshev) Name() string { return "chebyshev" }

// Metricity implements Metric. L∞ is a true metric.
func (Chebyshev) Metricity() bool { return true }

// Minkowski is the general Lp metric for p >= 1.
type Minkowski struct {
	// P is the order of the norm; it must be >= 1 for the triangle
	// inequality to hold.
	P float64
}

// NewMinkowski returns an Lp metric, or an error if p < 1.
func NewMinkowski(p float64) (Minkowski, error) {
	if p < 1 || math.IsNaN(p) {
		return Minkowski{}, fmt.Errorf("vecmath: Minkowski order must be >= 1, got %v", p)
	}
	return Minkowski{P: p}, nil
}

// maxFastIntP bounds the integer orders served by the repeated-multiplication
// fast path; beyond it |a[i]-b[i]|^p over- or underflows long before the
// rounding difference against math.Pow matters, so the generic path is fine.
const maxFastIntP = 32

// Distance returns the Lp distance between a and b. Integer orders take a
// repeated-multiplication fast path (exponentiation by squaring) instead of
// paying a math.Pow per coordinate; the quick-check test in metric_test.go
// pins the fast path within 1 ULP of the generic one.
func (m Minkowski) Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: dimension mismatch")
	}
	if p := int(m.P); float64(p) == m.P && p >= 1 && p <= maxFastIntP {
		var s float64
		for i := range a {
			s += ipow(math.Abs(a[i]-b[i]), p)
		}
		// math.Pow special-cases y == 1 and y == 0.5 (it returns x and
		// Sqrt(x)), so the root below is bit-identical to the generic
		// path for p == 1 and p == 2.
		return math.Pow(s, 1/m.P)
	}
	var s float64
	for i := range a {
		s += math.Pow(math.Abs(a[i]-b[i]), m.P)
	}
	return math.Pow(s, 1/m.P)
}

// ipow computes x^p for p >= 1 by binary exponentiation: O(log p)
// multiplications, each rounded once, versus math.Pow's table-driven
// exp/log decomposition.
func ipow(x float64, p int) float64 {
	r := 1.0
	for p > 0 {
		if p&1 == 1 {
			r *= x
		}
		x *= x
		p >>= 1
	}
	return r
}

// Name implements Metric.
func (m Minkowski) Name() string { return fmt.Sprintf("minkowski(%g)", m.P) }

// Metricity implements Metric. Lp is a metric for p >= 1.
func (m Minkowski) Metricity() bool { return m.P >= 1 }

// Angular is the angle between vectors (arc length on the unit sphere). It is
// a true metric, unlike raw cosine dissimilarity 1−cos θ, making it safe for
// metric-tree back-ends.
//
// The metric is only defined on nonzero vectors: Distance keeps the d(0,x)=0
// convention for robustness, but that convention violates the triangle
// inequality (d(a,b) > d(a,0) + d(0,b) = 0 whenever a and b subtend a
// positive angle), so Angular implements PointValidator and every validated
// entry point (ValidateFor / ValidateAllFor) rejects zero vectors before
// they can reach a metric-tree pruning bound. Snapshot restore rebuilds
// through the same entry points, so legacy angular snapshots containing a
// zero vector fail to load with ErrZeroVector instead of silently serving
// over a broken pruning invariant (DESIGN.md, "Migration note").
type Angular struct{}

// Distance returns the angle in radians between a and b. Zero vectors are at
// angle 0 from everything by convention.
func (Angular) Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: dimension mismatch")
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	c := dot / math.Sqrt(na*nb)
	// Clamp against floating-point drift outside [-1, 1].
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return math.Acos(c)
}

// Name implements Metric.
func (Angular) Name() string { return "angular" }

// Metricity implements Metric. The angular distance is a true metric on the
// sphere (zero vectors are off the sphere; ValidatePoint keeps them out).
func (Angular) Metricity() bool { return true }

// ErrZeroVector reports a zero vector offered to a metric whose domain
// excludes it (Angular). It is a sentinel so callers rebuilding legacy data
// — snapshots written before zero vectors were rejected could contain one —
// can recognize the failure and explain the migration instead of opaquely
// refusing to load.
var ErrZeroVector = errors.New("vecmath: angular metric is undefined for the zero vector (d(0,x)=0 convention violates the triangle inequality)")

// ValidatePoint implements PointValidator: the zero vector has no direction,
// and admitting it under the d(0,x)=0 convention breaks the triangle
// inequality that Metricity() promises.
func (Angular) ValidatePoint(v []float64) error {
	for _, x := range v {
		if x != 0 {
			return nil
		}
	}
	return ErrZeroVector
}
