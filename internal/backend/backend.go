// Package backend is the factory for the forward-kNN index structures the
// engine can run on. It is a leaf: it imports only the index
// implementations, so the serving facade and the experiment harness both
// build back-ends through it without importing each other.
package backend

import (
	"fmt"

	"repro/internal/covertree"
	"repro/internal/index"
	"repro/internal/lsh"
	"repro/internal/scan"
	"repro/internal/vecmath"
)

// Check reports whether Build knows the back-end name, so that a caller can
// refuse a configuration before it loads the data Build needs. "kdtree" and
// "vptree" were back-ends until they won no workload (DESIGN.md, "Back-ends
// measured and retired"); the error says so.
func Check(name string) error {
	switch name {
	case "scan", "covertree", "lsh":
		return nil
	case "kdtree", "vptree":
		return fmt.Errorf("backend: back-end %q was retired; choose covertree, scan or lsh", name)
	default:
		return fmt.Errorf("backend: unknown back-end %q; choose covertree, scan or lsh", name)
	}
}

// Build constructs the forward-kNN back-end by name: "scan", "covertree",
// or the approximate "lsh". The paper uses the cover tree for the small and
// medium datasets and sequential scan for MNIST and Imagenet (Section 7.1);
// LSH realizes its claim (iii), RDT over approximate neighbor rankings.
// Every back-end takes writes and clones itself, which is what lets an
// engine hold it under an index.Overlay.
func Build(name string, points [][]float64, metric vecmath.Metric) (index.Cloner, error) {
	switch name {
	case "scan":
		return scan.New(points, metric)
	case "covertree":
		return covertree.New(points, metric)
	case "lsh":
		return lsh.New(points, metric, lsh.DefaultOptions())
	default:
		return nil, Check(name)
	}
}
