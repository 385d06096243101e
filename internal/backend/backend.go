// Package backend is the factory for the forward-kNN index structures the
// engine can run on. It is a leaf: it imports only the index
// implementations, so the serving facade and the experiment harness both
// build back-ends through it without importing each other.
package backend

import (
	"fmt"

	"repro/internal/covertree"
	"repro/internal/index"
	"repro/internal/kdtree"
	"repro/internal/lsh"
	"repro/internal/scan"
	"repro/internal/vecmath"
	"repro/internal/vptree"
)

// Build constructs the forward-kNN back-end by name: "scan", "covertree",
// "kdtree", "vptree", or the approximate "lsh". The paper uses the cover
// tree for the small and medium datasets and sequential scan for MNIST and
// Imagenet (Section 7.1); LSH realizes its claim (iii), RDT over
// approximate neighbor rankings.
func Build(name string, points [][]float64, metric vecmath.Metric) (index.Index, error) {
	switch name {
	case "scan":
		return scan.New(points, metric)
	case "covertree":
		return covertree.New(points, metric)
	case "kdtree":
		return kdtree.New(points, metric)
	case "vptree":
		return vptree.New(points, metric)
	case "lsh":
		return lsh.New(points, metric, lsh.DefaultOptions())
	default:
		return nil, fmt.Errorf("backend: unknown back-end %q", name)
	}
}
