//go:build race

package wire

import "math"

// Under the race detector a released buffer is overwritten before it is
// pooled: a reader that kept a reference past Release computes with NaN (or
// decodes 0xFF bytes) and fails whatever oracle is watching, instead of
// reading stale values that happen to still be right.

// raceEnabled tells the package's tests that allocation counts are the
// detector's, not the code's.
const raceEnabled = true

func poisonCoords(c []float64) {
	for i := range c {
		c[i] = math.NaN()
	}
}

func poisonBytes(b []byte) {
	for i := range b {
		b[i] = 0xFF
	}
}
