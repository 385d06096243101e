package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/vecmath"
)

// TestRunOneShot drives the query subcommand end to end for RDT+ and one
// competitor.
func TestRunOneShot(t *testing.T) {
	for _, method := range []string{"rdt+", "tpl"} {
		var out bytes.Buffer
		if err := runOneShot([]string{"-data", "sequoia", "-n", "200", "-k", "5", "-method", method, "-query", "3", "-v"}, &out); err != nil {
			t.Fatalf("query -method %s: %v", method, err)
		}
		if !strings.Contains(out.String(), "R5NN(3) via "+method) {
			t.Errorf("query -method %s printed %q", method, out.String())
		}
	}
	if err := runOneShot([]string{"-method", "nosuch", "-n", "100"}, &bytes.Buffer{}); err == nil {
		t.Error("accepted unknown method")
	}
}

func TestRunQueryAllMethods(t *testing.T) {
	pts := dataset.Sequoia(200, 1).Points
	metric := vecmath.Euclidean{}
	fwd, err := harness.BuildBackend("scan", pts, metric)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"rdt", "rdt+", "sft", "mrknncop", "rdnn", "tpl"} {
		ids, stats, err := runQuery(method, fwd, pts, metric, 3, 5, 8, 8)
		if err != nil {
			t.Errorf("runQuery(%s): %v", method, err)
			continue
		}
		if stats == "" {
			t.Errorf("runQuery(%s): empty stats line", method)
		}
		for _, id := range ids {
			if id == 3 {
				t.Errorf("runQuery(%s) returned the query itself", method)
			}
		}
	}
	if _, _, err := runQuery("nosuch", fwd, pts, metric, 0, 5, 8, 8); err == nil {
		t.Error("accepted unknown method")
	}
}

// TestEstimateT drives the query subcommand's -auto path: each estimator,
// named in any case, chooses a t inside a sanity band, and an unknown name is
// refused.
func TestEstimateT(t *testing.T) {
	for _, est := range []string{"mle", "gp", "takens", "MLE"} {
		var out bytes.Buffer
		if err := runOneShot([]string{"-data", "fct", "-n", "600", "-k", "5", "-query", "3", "-auto", est}, &out); err != nil {
			t.Errorf("-auto %s: %v", est, err)
			continue
		}
		var got float64
		if _, err := fmt.Sscanf(out.String(), "auto t ("+est+") = %g", &got); err != nil {
			t.Errorf("-auto %s printed %q: %v", est, out.String(), err)
			continue
		}
		if got < 1 || got > 30 {
			t.Errorf("-auto %s chose t = %g, outside sanity band", est, got)
		}
	}
	if err := runOneShot([]string{"-n", "100", "-auto", "nosuch"}, &bytes.Buffer{}); err == nil {
		t.Error("accepted unknown estimator")
	}
}
