package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/dataset"
	"repro/internal/lid"
	"repro/internal/scan"
	"repro/internal/vecmath"
)

func newBF(t *testing.T, pts [][]float64) *bruteforce.Truth {
	t.Helper()
	bf, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatalf("bruteforce.New: %v", err)
	}
	return bf
}

func smallWorkload(t *testing.T) Workload {
	t.Helper()
	return Workload{
		Data:    dataset.Sequoia(600, 1),
		Backend: "covertree",
		Queries: 10,
		Seed:    42,
	}
}

func TestBuildBackend(t *testing.T) {
	pts := dataset.Uniform("u", 50, 3, 1).Points
	for _, name := range []string{"scan", "covertree", "lsh"} {
		ix, err := BuildBackend(name, pts, vecmath.Euclidean{})
		if err != nil {
			t.Errorf("BuildBackend(%q): %v", name, err)
			continue
		}
		if ix.Len() != 50 {
			t.Errorf("%s: Len = %d", name, ix.Len())
		}
	}
	if _, err := BuildBackend("nosuch", pts, vecmath.Euclidean{}); err == nil {
		t.Error("accepted unknown back-end")
	}
}

func TestTruthMatchesBruteforce(t *testing.T) {
	pts := dataset.Uniform("u", 200, 3, 3).Points
	fwd, err := scan.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []int{0, 5, 17, 99}
	k := 4
	truth, err := NewTruth(pts, vecmath.Euclidean{}, fwd, k, queries)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against the O(n²) definition in package bruteforce.
	bf := newBF(t, pts)
	for _, qid := range queries {
		want, err := bf.RkNNByID(qid, k)
		if err != nil {
			t.Fatal(err)
		}
		got := truth.Answers[qid]
		if len(got) != len(want) {
			t.Fatalf("qid=%d: truth %v, bruteforce %v", qid, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("qid=%d: truth %v, bruteforce %v", qid, got, want)
			}
		}
	}
	// Self-recall must be 1 by construction.
	if r := truth.MeanRecall(truth.Answers); r != 1 {
		t.Errorf("self recall = %g", r)
	}
	if p := truth.MeanPrecision(truth.Answers); p != 1 {
		t.Errorf("self precision = %g", p)
	}
}

func TestTradeoffEndToEnd(t *testing.T) {
	cfg := TradeoffConfig{
		Workload:     smallWorkload(t),
		Ks:           []int{5},
		TValues:      []float64{2, 6},
		Alphas:       []float64{2, 8},
		ExactMethods: true,
		AutoT:        true,
	}
	res, err := Tradeoff(cfg)
	if err != nil {
		t.Fatalf("Tradeoff: %v", err)
	}
	byMethod := map[string][]MethodRun{}
	for _, r := range res.Runs {
		byMethod[r.Method] = append(byMethod[r.Method], r)
	}
	for _, m := range []string{"RDT", "RDT+", "SFT", "MRkNNCoP", "RdNN-Tree", "TPL"} {
		if len(byMethod[m]) == 0 {
			t.Errorf("method %s produced no runs", m)
		}
	}
	// Exact methods must be exact.
	for _, m := range []string{"MRkNNCoP", "RdNN-Tree", "TPL"} {
		for _, r := range byMethod[m] {
			if r.Recall != 1 || r.Precision != 1 {
				t.Errorf("%s: recall %.3f precision %.3f, want exact", m, r.Recall, r.Precision)
			}
		}
	}
	// RDT recall must not decrease with t.
	rdt := byMethod["RDT"]
	if len(rdt) == 2 && rdt[1].Recall < rdt[0].Recall {
		t.Errorf("RDT recall fell from %.3f to %.3f with larger t", rdt[0].Recall, rdt[1].Recall)
	}
	// The auto-t variants exist when AutoT is on.
	auto := 0
	for m := range byMethod {
		if strings.HasPrefix(m, "RDT+(") {
			auto += len(byMethod[m])
		}
	}
	if auto == 0 {
		t.Error("AutoT produced no estimator-driven runs")
	}
	var buf bytes.Buffer
	if err := WriteTradeoff(&buf, res); err != nil {
		t.Fatalf("WriteTradeoff: %v", err)
	}
	if !strings.Contains(buf.String(), "k = 5") {
		t.Error("report missing k header")
	}
}

func TestIDTableEndToEnd(t *testing.T) {
	rows := IDTable(
		[]Workload{{Data: dataset.Uniform("u2", 800, 2, 9), Backend: "scan", Queries: 5, Seed: 1}},
		lid.MLEOptions{SampleFraction: 0.1, Neighbors: 50, Seed: 1},
		lid.DefaultPairwiseOptions(),
	)
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.Err != nil {
		t.Fatalf("row error: %v", r.Err)
	}
	if r.MLE < 1 || r.MLE > 4 {
		t.Errorf("MLE estimate %.2f outside sanity band for the 2-cube", r.MLE)
	}
	var buf bytes.Buffer
	if err := WriteIDTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "u2") {
		t.Error("report missing dataset name")
	}
}

func TestMechanismsEndToEnd(t *testing.T) {
	rows, err := Mechanisms(smallWorkload(t), 5, []float64{2, 8})
	if err != nil {
		t.Fatalf("Mechanisms: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		sum := r.AcceptFrac + r.RejectFrac + r.VerifyFrac
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("t=%g: proportions sum to %.4f", r.T, sum)
		}
	}
	if rows[1].Recall < rows[0].Recall {
		t.Errorf("recall fell with larger t: %.3f -> %.3f", rows[0].Recall, rows[1].Recall)
	}
	var buf bytes.Buffer
	if err := WriteMechanisms(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestScalabilityEndToEnd(t *testing.T) {
	full := Workload{
		Data:    dataset.Imagenet(900, 32, 4),
		Backend: "scan",
		Queries: 5,
		Seed:    2,
	}
	runs, err := Scalability(ScalabilityConfig{
		Full:        full,
		Sizes:       []int{300, 600},
		Ks:          []int{5},
		TValues:     []float64{4},
		ExactCutoff: 400,
	})
	if err != nil {
		t.Fatalf("Scalability: %v", err)
	}
	sawSmallExact, sawLargeExact := false, false
	for _, r := range runs {
		if r.Method == "RDT" {
			t.Error("Figure 8 must not include plain RDT")
		}
		if r.Method == "MRkNNCoP" || r.Method == "RdNN-Tree" {
			if r.Size == 300 {
				sawSmallExact = true
			}
			if r.Size == 600 {
				sawLargeExact = true
			}
		}
	}
	if !sawSmallExact {
		t.Error("exact methods missing below the cutoff")
	}
	if sawLargeExact {
		t.Error("exact methods present above the cutoff")
	}
	var buf bytes.Buffer
	if err := WriteScalability(&buf, runs); err != nil {
		t.Fatal(err)
	}
}

func TestAmortizationEndToEnd(t *testing.T) {
	rows, err := Amortization(smallWorkload(t), 5, 10)
	if err != nil {
		t.Fatalf("Amortization: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Budget <= 0 {
			t.Errorf("%s: budget %v", r.Method, r.Budget)
		}
	}
	var buf bytes.Buffer
	if err := WriteAmortization(&buf, rows); err != nil {
		t.Fatal(err)
	}
}
