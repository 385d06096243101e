package dataset

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vecmath"
)

func TestUniformShape(t *testing.T) {
	d := Uniform("u", 100, 5, 1)
	if d.Len() != 100 || d.Dim() != 5 {
		t.Fatalf("Len/Dim = %d/%d", d.Len(), d.Dim())
	}
	for _, p := range d.Points {
		for _, x := range p {
			if x < 0 || x >= 1 {
				t.Fatalf("coordinate %g outside [0,1)", x)
			}
		}
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) *Dataset{
		"uniform":  func(s int64) *Dataset { return Uniform("u", 50, 3, s) },
		"gmm":      func(s int64) *Dataset { return GaussianMixture("g", 50, 3, 4, 0.1, s) },
		"manifold": func(s int64) *Dataset { return Manifold("m", 50, 2, 6, 0.01, s) },
		"sequoia":  func(s int64) *Dataset { return Sequoia(50, s) },
		"aloi":     func(s int64) *Dataset { return ALOI(20, s) },
		"fct":      func(s int64) *Dataset { return FCT(20, s) },
		"mnist":    func(s int64) *Dataset { return MNIST(20, s) },
		"imagenet": func(s int64) *Dataset { return Imagenet(20, 64, s) },
	}
	for name, gen := range gens {
		a, b := gen(42), gen(42)
		c := gen(43)
		if !pointsEqual(a.Points, b.Points) {
			t.Errorf("%s: same seed produced different data", name)
		}
		if pointsEqual(a.Points, c.Points) {
			t.Errorf("%s: different seeds produced identical data", name)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", name, err)
		}
		if err := vecmath.ValidateAll(a.Points); err != nil {
			t.Errorf("%s: invalid coordinates: %v", name, err)
		}
	}
}

func TestSurrogateDimensions(t *testing.T) {
	cases := []struct {
		name string
		ds   *Dataset
		dim  int
	}{
		{"sequoia", Sequoia(10, 1), 2},
		{"aloi", ALOI(10, 1), 641},
		{"fct", FCT(10, 1), 53},
		{"mnist", MNIST(10, 1), 784},
		{"imagenet", Imagenet(10, 128, 1), 128},
	}
	for _, tc := range cases {
		if tc.ds.Dim() != tc.dim {
			t.Errorf("%s dim = %d, want %d", tc.name, tc.ds.Dim(), tc.dim)
		}
	}
}

func TestSampleIDs(t *testing.T) {
	d := Uniform("u", 30, 2, 1)
	rng := rand.New(rand.NewSource(7))
	ids := d.SampleIDs(10, rng)
	if len(ids) != 10 {
		t.Fatalf("len = %d", len(ids))
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if id < 0 || id >= 30 {
			t.Errorf("id %d out of range", id)
		}
		if seen[id] {
			t.Errorf("duplicate id %d", id)
		}
		seen[id] = true
	}
	all := d.SampleIDs(100, rng)
	if len(all) != 30 {
		t.Errorf("oversized sample returned %d ids, want all 30", len(all))
	}
}

func TestSubsample(t *testing.T) {
	d := Uniform("u", 100, 2, 1)
	rng := rand.New(rand.NewSource(3))
	sub := d.Subsample("u100", 25, rng)
	if sub.Len() != 25 || sub.Name != "u100" {
		t.Fatalf("Subsample = %d points, name %q", sub.Len(), sub.Name)
	}
	same := d.Subsample("full", 200, rng)
	if same.Len() != 100 {
		t.Errorf("oversized Subsample = %d points", same.Len())
	}
}

func TestStandardize(t *testing.T) {
	pts := [][]float64{{1, 5, 7}, {3, 5, 9}, {5, 5, 11}}
	Standardize(pts)
	for j := 0; j < 3; j++ {
		var mean float64
		for _, p := range pts {
			mean += p[j]
		}
		mean /= 3
		if math.Abs(mean) > 1e-12 {
			t.Errorf("column %d mean = %g", j, mean)
		}
	}
	// Constant column becomes zero with no NaNs.
	for _, p := range pts {
		if p[1] != 0 {
			t.Errorf("constant column value = %g, want 0", p[1])
		}
	}
	var sd float64
	for _, p := range pts {
		sd += p[0] * p[0]
	}
	if math.Abs(sd/3-1) > 1e-12 {
		t.Errorf("column 0 variance = %g, want 1", sd/3)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := Uniform("u", 20, 3, 9)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV("u", &buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !pointsEqual(d.Points, back.Points) {
		t.Error("CSV round trip altered the data")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("bad", bytes.NewBufferString("1,2\nx,4\n")); err == nil {
		t.Error("accepted non-numeric CSV")
	}
	if _, err := ReadCSV("empty", bytes.NewBufferString("")); err == nil {
		t.Error("accepted empty CSV")
	}
}

func pointsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestBinaryRoundTrip pins the current binary format (the checksummed
// persist framing).
func TestBinaryRoundTrip(t *testing.T) {
	d := FCT(25, 4)
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("RKNNDATA")) {
		t.Error("binary format does not open with the persist magic")
	}
	back, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if back.Name != d.Name || !pointsEqual(d.Points, back.Points) {
		t.Error("binary round trip altered the data")
	}
	// Corruption anywhere must be detected — the property gob never had.
	mut := bytes.Clone(buf.Bytes())
	mut[len(mut)/2] ^= 0x20
	if _, err := ReadBinary(bytes.NewReader(mut)); err == nil {
		t.Error("ReadBinary accepted a corrupted stream")
	}
}

// TestBinaryReadsLegacyGob: files written before the persist format still
// load through the sniffing fallback.
func TestBinaryReadsLegacyGob(t *testing.T) {
	d := Sequoia(15, 3)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gobDataset{Name: d.Name, Points: d.Points}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBinary(legacy gob): %v", err)
	}
	if back.Name != d.Name || !pointsEqual(d.Points, back.Points) {
		t.Error("legacy gob fallback altered the data")
	}
}
