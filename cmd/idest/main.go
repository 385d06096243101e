// Command idest estimates the intrinsic dimensionality of a dataset with
// the three estimators of the paper's Section 6 (MLE/Hill, Grassberger-
// Procaccia, Takens) and reports the resulting recommendation for RDT's
// scale parameter t.
//
// Examples:
//
//	idest -data mnist -n 2000
//	idest -csv points.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/backend"
	"repro/internal/dataset"
	"repro/internal/lid"
	"repro/internal/vecmath"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fail(err)
	}
}

// run estimates intrinsic dimensionality with all three estimators and
// prints the report; main is its only non-test caller.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("idest", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		dataName = fs.String("data", "sequoia", "surrogate dataset: sequoia, aloi, fct, mnist, imagenet, uniform")
		csvPath  = fs.String("csv", "", "load points from a CSV file instead of generating")
		n        = fs.Int("n", 5000, "generated dataset size")
		dim      = fs.Int("dim", 128, "dimension for imagenet/uniform surrogates")
		seed     = fs.Int64("seed", 1, "generation seed")
		sample   = fs.Float64("sample", 0.10, "MLE sample fraction")
		nbrs     = fs.Int("neighbors", 100, "MLE neighborhood size")
		pairs    = fs.Int("pairs", 1000, "max points for pairwise estimators")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not a failure
		}
		return err
	}

	pts, name, err := loadPoints(*csvPath, *dataName, *n, *dim, *seed)
	if err != nil {
		return err
	}
	metric := vecmath.Euclidean{}
	forward, err := backend.Build("covertree", pts, metric)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "dataset %s: n=%d, representational dimension D=%d\n", name, len(pts), len(pts[0]))

	start := time.Now()
	mle, err := lid.MLE(forward, lid.MLEOptions{SampleFraction: *sample, Neighbors: *nbrs, Seed: *seed})
	report(stdout, "MLE (Hill)", mle, time.Since(start), err)

	pw := lid.DefaultPairwiseOptions()
	pw.MaxSample = *pairs
	pw.Seed = *seed

	start = time.Now()
	gp, err := lid.GrassbergerProcaccia(pts, metric, pw)
	report(stdout, "Grassberger-Procaccia", gp, time.Since(start), err)

	start = time.Now()
	tk, err := lid.Takens(pts, metric, pw)
	report(stdout, "Takens", tk, time.Since(start), err)
	return nil
}

func report(w io.Writer, name string, value float64, elapsed time.Duration, err error) {
	if err != nil {
		fmt.Fprintf(w, "%-24s error: %v\n", name, err)
		return
	}
	t := value
	if t < 1 {
		t = 1
	}
	fmt.Fprintf(w, "%-24s ID ≈ %6.2f   (%-10s suggested t = %.2f)\n", name, value, elapsed.Round(time.Millisecond).String()+",", t)
}

func loadPoints(csvPath, dataName string, n, dim int, seed int64) ([][]float64, string, error) {
	ds, err := dataset.Load(csvPath, dataName, n, dim, seed)
	if err != nil {
		return nil, "", err
	}
	return ds.Points, ds.Name, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "idest:", err)
	os.Exit(1)
}
