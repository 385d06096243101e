package dataset

import (
	"bufio"
	"encoding/csv"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/persist"
)

// WriteCSV writes the dataset as rows of comma-separated coordinates.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	row := make([]string, d.Dim())
	for _, p := range d.Points {
		for j, x := range p {
			row[j] = strconv.FormatFloat(x, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: write csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset from rows of comma-separated coordinates.
func ReadCSV(name string, r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.ReuseRecord = true
	var pts [][]float64
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read csv: %w", err)
		}
		p := make([]float64, len(rec))
		for j, field := range rec {
			x, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d col %d: %w", len(pts), j, err)
			}
			p[j] = x
		}
		pts = append(pts, p)
	}
	d := &Dataset{Name: name, Points: pts}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// WriteBinary writes the dataset in the checksummed binary format of
// internal/persist (magic "RKNNDATA"): the same framing and corruption
// detection as engine snapshots, for bare named point sets. CSV remains
// the ingest path for external data; this is the compact interchange
// format between the tools.
func (d *Dataset) WriteBinary(w io.Writer) error {
	if err := persist.WriteDataset(w, d.Name, d.Points); err != nil {
		return fmt.Errorf("dataset: write binary: %w", err)
	}
	return nil
}

// ReadBinary parses a dataset written by WriteBinary. For compatibility
// with files produced before the persist format existed, a stream that
// does not open with the persist magic falls back to the legacy gob
// decoder.
func ReadBinary(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	magic := persist.DataMagic()
	head, err := br.Peek(len(magic))
	if err != nil || [8]byte(head) != magic {
		return readLegacyGob(br)
	}
	name, pts, err := persist.ReadDataset(br)
	if err != nil {
		return nil, fmt.Errorf("dataset: read binary: %w", err)
	}
	d := &Dataset{Name: name, Points: pts}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// gobDataset is the legacy on-disk representation, kept only so ReadBinary
// can still ingest old files.
type gobDataset struct {
	Name   string
	Points [][]float64
}

func readLegacyGob(r io.Reader) (*Dataset, error) {
	var g gobDataset
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("dataset: read gob: %w", err)
	}
	d := &Dataset{Name: g.Name, Points: g.Points}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Load returns the points the command-line tools run over: the CSV file at
// csvPath when given, otherwise the named surrogate generated with n points
// (dim applies to imagenet and uniform only) from seed.
func Load(csvPath, name string, n, dim int, seed int64) (*Dataset, error) {
	if csvPath != "" {
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ReadCSV(csvPath, f)
	}
	switch name {
	case "sequoia":
		return Sequoia(n, seed), nil
	case "aloi":
		return ALOI(n, seed), nil
	case "fct":
		return FCT(n, seed), nil
	case "mnist":
		return MNIST(n, seed), nil
	case "imagenet":
		return Imagenet(n, dim, seed), nil
	case "uniform":
		return Uniform("uniform", n, dim, seed), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
}
