package vecmath

import (
	"fmt"
	"math"
)

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product of a and b. It panics on a length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: dimension mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Validate returns an error if v is empty or contains NaN or ±Inf. Library
// entry points use it to reject malformed inputs up front instead of letting
// NaNs poison distance comparisons deep inside an index.
func Validate(v []float64) error {
	if len(v) == 0 {
		return fmt.Errorf("vecmath: empty vector")
	}
	for i, x := range v {
		if math.IsNaN(x) {
			return fmt.Errorf("vecmath: NaN at coordinate %d", i)
		}
		if math.IsInf(x, 0) {
			return fmt.Errorf("vecmath: Inf at coordinate %d", i)
		}
	}
	return nil
}

// PointValidator is implemented by metrics whose domain excludes some
// otherwise-finite vectors. Angular implements it to reject the zero vector:
// its d(0,x) = 0 convention breaks the triangle inequality (d(a,b) can
// exceed d(a,0) + d(0,b) = 0), which would silently corrupt every
// metric-tree pruning bound while Metricity() still claims true.
type PointValidator interface {
	// ValidatePoint reports why v is outside the metric's domain, or nil.
	// Callers have already passed v through Validate.
	ValidatePoint(v []float64) error
}

// ValidateFor is Validate plus the metric-specific domain check when m
// implements PointValidator. Every entry point that indexes or queries under
// a metric should use it in place of bare Validate.
func ValidateFor(m Metric, v []float64) error {
	if err := Validate(v); err != nil {
		return err
	}
	if pv, ok := m.(PointValidator); ok {
		return pv.ValidatePoint(v)
	}
	return nil
}

// ValidateRowFor is the insert check of every index layer: ValidateFor, and
// a row as wide as the dim-wide index it joins — a wrong width wraps
// ErrDimensionMismatch.
func ValidateRowFor(m Metric, dim int, v []float64) error {
	if err := ValidateFor(m, v); err != nil {
		return err
	}
	if len(v) != dim {
		return fmt.Errorf("%w: point dimension %d, index dimension %d", ErrDimensionMismatch, len(v), dim)
	}
	return nil
}

// ValidateAllFor is ValidateAll plus the metric-specific domain check on
// every row.
func ValidateAllFor(m Metric, rows [][]float64) error {
	if err := ValidateAll(rows); err != nil {
		return err
	}
	if pv, ok := m.(PointValidator); ok {
		for i, r := range rows {
			if err := pv.ValidatePoint(r); err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
		}
	}
	return nil
}

// ValidateAll applies Validate to every row and additionally checks that all
// rows share one dimensionality.
func ValidateAll(rows [][]float64) error {
	if len(rows) == 0 {
		return fmt.Errorf("vecmath: empty dataset")
	}
	dim := len(rows[0])
	for i, r := range rows {
		if len(r) != dim {
			return fmt.Errorf("%w: row %d has dim %d, want %d", ErrDimensionMismatch, i, len(r), dim)
		}
		if err := Validate(r); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}
