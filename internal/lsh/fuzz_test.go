package lsh

import (
	"testing"

	"repro/internal/indextest"
	"repro/internal/vecmath"
)

// FuzzRestore feeds arbitrary bytes to the structure decoder: it must never
// panic and never accept a structure whose candidate machinery then
// misbehaves. Anything it does accept is queried to force the tables to be
// actually usable. Run with `go test -fuzz FuzzRestore` for continuous
// fuzzing; plain `go test` exercises the seed corpus.
func FuzzRestore(f *testing.F) {
	pts := indextest.ClusteredPoints(40, 3, 3, 13)
	ix, err := New(pts, vecmath.Euclidean{}, Options{Tables: 3, Hashes: 2, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	valid := ix.EncodeStructure()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{codecVersion})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		re, err := Restore(pts, vecmath.Euclidean{}, data)
		if err != nil {
			return
		}
		// Accepted structures must answer queries without panicking and
		// respect the candidate-set contract (no out-of-range IDs — the
		// decoder validated them, Point would panic otherwise).
		for qid := 0; qid < len(pts); qid += 11 {
			for _, nb := range re.KNN(pts[qid], 5, qid) {
				if nb.ID < 0 || nb.ID >= len(pts) || nb.ID == qid {
					t.Fatalf("restored index returned invalid id %d", nb.ID)
				}
			}
		}
	})
}
