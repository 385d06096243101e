package persist

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/vecmath"
)

func testSnapshot() *Snapshot {
	return &Snapshot{
		MetricID:    vecmath.MetricIDMinkowski,
		MetricParam: 2.5,
		Backend:     "covertree",
		Plus:        true,
		Scale:       8.25,
		Margin:      0.5,
		Dim:         3,
		Points: [][]float64{
			{1, 2, 3},
			{4, 5, 6},
			{7, 8, math.Pi},
			{-1, 0, 1e-300},
		},
		Deleted: []int{1, 3},
		Native:  []byte("opaque backend blob"),
	}
}

func encode(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := testSnapshot()
	got, err := ReadSnapshot(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestSnapshotRoundTripAdaptiveNoNative(t *testing.T) {
	want := testSnapshot()
	want.Adaptive = true
	want.Scale = 0
	want.Native = nil
	want.Deleted = nil
	got, err := ReadSnapshot(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSnapshotDetectsCorruption flips every byte of a valid snapshot in
// turn; each mutated stream must fail to decode (every region of the file
// is covered by magic, version, a checksum, or the trailer) — or, if the
// flip lands in a checksum field itself, still fail because the checksum no
// longer matches.
func TestSnapshotDetectsCorruption(t *testing.T) {
	blob := encode(t, testSnapshot())
	for i := range blob {
		mut := bytes.Clone(blob)
		mut[i] ^= 0x40
		if _, err := ReadSnapshot(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flip at byte %d of %d decoded successfully", i, len(blob))
		}
	}
}

func TestSnapshotDetectsTruncation(t *testing.T) {
	blob := encode(t, testSnapshot())
	for cut := 0; cut < len(blob); cut++ {
		if _, err := ReadSnapshot(bytes.NewReader(blob[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d bytes: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestWriteSnapshotRejectsInvalid(t *testing.T) {
	cases := map[string]func(*Snapshot){
		"no metric":        func(s *Snapshot) { s.MetricID = vecmath.MetricIDInvalid },
		"empty backend":    func(s *Snapshot) { s.Backend = "" },
		"zero dim":         func(s *Snapshot) { s.Dim = 0 },
		"huge dim":         func(s *Snapshot) { s.Dim = maxDim + 1 },
		"no points":        func(s *Snapshot) { s.Points = nil },
		"too many deletes": func(s *Snapshot) { s.Deleted = []int{0, 1, 2, 3, 0} },
		"ragged point":     func(s *Snapshot) { s.Points[1] = []float64{1} },
	}
	for name, mutate := range cases {
		s := testSnapshot()
		mutate(s)
		if err := WriteSnapshot(&bytes.Buffer{}, s); err == nil {
			t.Errorf("%s: WriteSnapshot succeeded", name)
		}
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	points := [][]float64{{1, 2}, {3, 4}, {-5, 1e12}}
	var buf bytes.Buffer
	if err := WriteDataset(&buf, "unit-test", points); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	name, got, err := ReadDataset(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadDataset: %v", err)
	}
	if name != "unit-test" || !reflect.DeepEqual(got, points) {
		t.Errorf("round trip = %q, %v", name, got)
	}

	for cut := 0; cut < buf.Len(); cut++ {
		if _, _, err := ReadDataset(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("dataset truncation at %d decoded", cut)
		}
	}
}

// TestPointsSectionDecodesIntoBlocks pins the layout readPointsSection
// restores: every row clipped to dim and rows back to back within a block
// of pointBlockFloats coordinates — at a dimension that fills blocks
// exactly, one that leaves a gap, and one whose single row outgrows a
// block. A count the stream cannot back fails having allocated a bounded
// amount, not the count's worth.
func TestPointsSectionDecodesIntoBlocks(t *testing.T) {
	for _, c := range []struct{ dim, count int }{{4, 2*pointBlockFloats/4 + 3}, {784, 200}, {pointBlockFloats + 1, 3}} {
		points := make([][]float64, c.count)
		for i := range points {
			points[i] = make([]float64, c.dim)
			for j := range points[i] {
				points[i][j] = float64(i) + float64(j)/float64(c.dim)
			}
		}
		var buf bytes.Buffer
		if err := writePointsSection(&buf, points, c.dim); err != nil {
			t.Fatal(err)
		}
		got, err := readPointsSection(&buf, uint64(c.count), c.dim)
		if err != nil {
			t.Fatalf("dim %d: %v", c.dim, err)
		}
		if !reflect.DeepEqual(got, points) {
			t.Fatalf("dim %d: rows do not round-trip", c.dim)
		}
		blockRows := max(1, pointBlockFloats/c.dim)
		for i, p := range got {
			if cap(p) != c.dim {
				t.Fatalf("dim %d: row %d has capacity %d", c.dim, i, cap(p))
			}
			if i+1 < len(got) && (i+1)%blockRows != 0 && uintptr(unsafe.Pointer(&got[i+1][0])) != uintptr(unsafe.Pointer(&p[0]))+uintptr(8*c.dim) {
				t.Fatalf("dim %d: row %d is not followed in memory by row %d, in the same block", c.dim, i, i+1)
			}
		}
	}

	var short bytes.Buffer
	if err := writePointsSection(&short, [][]float64{{1, 2, 3}}, 3); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := readPointsSection(&short, 1<<40, 3); err == nil {
		t.Fatal("a count of 2^40 rows decoded from a one-row stream")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("a bogus count allocated %d bytes before failing, want at most 4 MB", got)
	}
}
