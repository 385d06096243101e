package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLoadPointsGenerators(t *testing.T) {
	for _, name := range []string{"sequoia", "aloi", "fct", "mnist", "imagenet", "uniform"} {
		pts, got, err := loadPoints("", name, 50, 16, 1)
		if err != nil {
			t.Errorf("loadPoints(%s): %v", name, err)
			continue
		}
		if len(pts) != 50 || got == "" {
			t.Errorf("loadPoints(%s) = %d points, name %q", name, len(pts), got)
		}
	}
	if _, _, err := loadPoints("", "nosuch", 10, 2, 1); err == nil {
		t.Error("accepted unknown dataset")
	}
}

func TestLoadPointsCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pts.csv")
	if err := os.WriteFile(path, []byte("1,2\n3,4\n5,6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pts, _, err := loadPoints(path, "", 0, 0, 0)
	if err != nil {
		t.Fatalf("loadPoints(csv): %v", err)
	}
	if len(pts) != 3 || pts[1][0] != 3 {
		t.Errorf("csv points = %v", pts)
	}
	if _, _, err := loadPoints(filepath.Join(dir, "missing.csv"), "", 0, 0, 0); err == nil {
		t.Error("accepted missing file")
	}
}
