//go:build !race

package wire

// Outside the race detector a released buffer is pooled as it is (see
// poison_race.go).

const raceEnabled = false

func poisonCoords([]float64) {}

func poisonBytes([]byte) {}
