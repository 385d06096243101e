//go:build !amd64

package vecmath

// wideL2 is always false here: only amd64 has the wide squared-L2 kernels.
var wideL2 = false

// squaredWide measures no rows: every row goes to the portable kernels.
func squaredWide(q []float64, rows [][]float64, out []float64) int { return 0 }
