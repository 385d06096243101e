// Package backend is the factory for the forward-kNN index structures the
// engine can run on. It is a leaf: it imports only the index
// implementations, so the serving facade and the experiment harness both
// build back-ends through it without importing each other.
package backend

import (
	"fmt"

	"repro/internal/covertree"
	"repro/internal/index"
	"repro/internal/scan"
	"repro/internal/vecmath"
)

// Check reports whether Build knows the back-end name, so that a caller can
// refuse a configuration before it loads the data Build needs. "kdtree" and
// "vptree" were back-ends until they won no workload (DESIGN.md, "Back-ends
// measured and retired"), and "lsh" until no setting of it beat the exact
// engine at the paper's recall (DESIGN.md, "Approximate rankings
// (reproduction only)"); the error says so.
func Check(name string) error {
	switch name {
	case "scan", "covertree":
		return nil
	case "kdtree", "vptree", "lsh":
		return fmt.Errorf("backend: back-end %q was retired; choose covertree or scan", name)
	default:
		return fmt.Errorf("backend: unknown back-end %q; choose covertree or scan", name)
	}
}

// Build constructs the forward-kNN back-end by name: "scan" or "covertree".
// The paper uses the cover tree for the small and medium datasets and
// sequential scan for MNIST and Imagenet (Section 7.1). Both are exact, take
// writes, clone themselves and answer by a k-distance table, which is what
// lets an engine hold them under an index.Overlay.
func Build(name string, points [][]float64, metric vecmath.Metric) (index.Cloner, error) {
	switch name {
	case "scan":
		return scan.New(points, metric)
	case "covertree":
		return covertree.New(points, metric)
	default:
		return nil, Check(name)
	}
}
