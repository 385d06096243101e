package vecmath

import (
	"math"
	"testing"
)

func TestVectorOps(t *testing.T) {
	a, b := []float64{1, 2, 3}, []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := []float64{1, 2}
	c := Clone(a)
	c[0] = 99
	if a[0] != 1 {
		t.Error("Clone shares backing array")
	}
}

func TestValidate(t *testing.T) {
	if err := Validate([]float64{1, 2}); err != nil {
		t.Errorf("valid vector rejected: %v", err)
	}
	for _, bad := range [][]float64{
		{},
		{math.NaN()},
		{1, math.Inf(1)},
		{math.Inf(-1), 0},
	} {
		if err := Validate(bad); err == nil {
			t.Errorf("Validate(%v) succeeded, want error", bad)
		}
	}
}

func TestValidateAll(t *testing.T) {
	if err := ValidateAll([][]float64{{1, 2}, {3, 4}}); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	if err := ValidateAll(nil); err == nil {
		t.Error("empty dataset accepted")
	}
	if err := ValidateAll([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged dataset accepted")
	}
	if err := ValidateAll([][]float64{{1, 2}, {3, math.NaN()}}); err == nil {
		t.Error("NaN dataset accepted")
	}
}
