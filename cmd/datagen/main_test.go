package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func TestRunCSVToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pts.csv")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-data", "uniform", "-n", "40", "-dim", "3", "-o", path}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := dataset.ReadCSV(path, f)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if ds.Len() != 40 || ds.Dim() != 3 {
		t.Errorf("round-tripped %d points, dim %d; want 40, 3", ds.Len(), ds.Dim())
	}
	if !strings.Contains(stderr.String(), "wrote uniform: 40 points, 3 dimensions") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

func TestRunGobToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-data", "gaussmix", "-n", "30", "-dim", "4", "-format", "gob"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	ds, err := dataset.ReadBinary(&stdout)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if ds.Len() != 30 || ds.Dim() != 4 {
		t.Errorf("round-tripped %d points, dim %d; want 30, 4", ds.Len(), ds.Dim())
	}
}

func TestRunAllGenerators(t *testing.T) {
	for _, name := range []string{"sequoia", "aloi", "fct", "mnist", "imagenet", "uniform", "gaussmix", "manifold"} {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-data", name, "-n", "20", "-dim", "6"}, &stdout, &stderr); err != nil {
			t.Errorf("run(%s): %v", name, err)
			continue
		}
		if lines := strings.Count(stdout.String(), "\n"); lines != 20 {
			t.Errorf("run(%s) wrote %d CSV lines, want 20", name, lines)
		}
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); err != nil {
		t.Errorf("run(-h) = %v, want nil", err)
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-data", "nosuch"}, &stdout, &stderr); err == nil {
		t.Error("accepted unknown dataset")
	}
	if err := run([]string{"-data", "uniform", "-n", "10", "-format", "nosuch"}, &stdout, &stderr); err == nil {
		t.Error("accepted unknown format")
	}
	if err := run([]string{"-bogus"}, &stdout, &stderr); err == nil {
		t.Error("accepted unknown flag")
	}
	if err := run([]string{"-n", "10", "-o", filepath.Join(t.TempDir(), "no", "such", "dir.csv")}, &stdout, &stderr); err == nil {
		t.Error("accepted unwritable output path")
	}
}
