package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vecmath"
)

// The decoders must never panic and never allocate memory disproportionate
// to the input, whatever the bytes. These fuzz targets are also run as a
// short smoke pass in CI.

func FuzzReadSnapshot(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteSnapshot(&valid, &Snapshot{
		MetricID: vecmath.MetricIDEuclidean,
		Backend:  "scan",
		Scale:    4,
		Dim:      2,
		Points:   [][]float64{{1, 2}, {3, 4}},
		Deleted:  []int{0},
		Native:   []byte{1, 2, 3},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add([]byte("RKNNSNAP"))
	f.Add([]byte{})
	// A header that claims a huge point count on a tiny stream.
	huge := bytes.Clone(valid.Bytes())
	for i := range huge {
		huge[i] ^= byte(i)
	}
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything that decodes must satisfy the structural invariants
		// downstream code relies on.
		if s.Dim < 1 || s.Dim > maxDim {
			t.Fatalf("decoded dim %d out of range", s.Dim)
		}
		if len(s.Points) == 0 {
			t.Fatal("decoded snapshot with no points")
		}
		for _, p := range s.Points {
			if len(p) != s.Dim {
				t.Fatalf("decoded ragged point of dim %d", len(p))
			}
		}
		if len(s.Deleted) > len(s.Points) {
			t.Fatal("decoded more tombstones than points")
		}
		for i, id := range s.Deleted {
			if id < 0 || id >= len(s.Points) {
				t.Fatalf("decoded tombstone %d out of range", id)
			}
			if i > 0 && id <= s.Deleted[i-1] {
				t.Fatal("decoded unsorted tombstones")
			}
		}
	})
}

func FuzzReadDataset(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteDataset(&valid, "fuzz", [][]float64{{1}, {2}}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("RKNNDATA"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		name, pts, err := ReadDataset(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(name) > maxNameLen {
			t.Fatalf("decoded name of %d bytes", len(name))
		}
		if len(pts) == 0 {
			t.Fatal("decoded dataset with no points")
		}
		for _, p := range pts {
			if len(p) != len(pts[0]) {
				t.Fatal("decoded ragged dataset")
			}
		}
	})
}

func FuzzReplayWAL(f *testing.F) {
	var valid []byte
	for _, r := range []WALRecord{
		{Op: WALInsert, ID: 0, Point: []float64{1, 2}},
		{Op: WALDelete, ID: 0},
	} {
		var err error
		if valid, err = appendWALFrame(valid, r); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		n := 0
		valid, _, err := ReplayWAL(path, func(r WALRecord) error {
			n++
			if r.Op != WALInsert && r.Op != WALDelete {
				t.Fatalf("replayed unknown op %d", r.Op)
			}
			if r.ID < 0 {
				t.Fatalf("replayed negative id %d", r.ID)
			}
			if r.Op == WALInsert && (len(r.Point) == 0 || len(r.Point) > maxDim) {
				t.Fatalf("replayed insert with dim %d", len(r.Point))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("ReplayWAL returned error on arbitrary bytes: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid offset %d outside [0, %d]", valid, len(data))
		}
	})
}
