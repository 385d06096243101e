package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/lid"
	"repro/internal/mrknncop"
	"repro/internal/rdnntree"
	"repro/internal/rtree"
	"repro/internal/sft"
	"repro/internal/tpl"
	"repro/internal/vecmath"
)

// TradeoffConfig parameterizes the Figures 3–6 experiment: every method's
// recall/query-time tradeoff over one dataset.
type TradeoffConfig struct {
	Workload Workload
	// Ks are the reverse neighbor ranks tested (the paper uses 10, 50,
	// 100 for the medium datasets).
	Ks []int
	// TValues is the scale-parameter sweep generating the RDT and RDT+
	// curves.
	TValues []float64
	// Alphas is the oversampling sweep generating the SFT curve.
	Alphas []float64
	// ExactMethods enables the precomputation-heavy exact baselines
	// (MRkNNCoP, RdNN-Tree) and TPL.
	ExactMethods bool
	// AutoT additionally runs RDT+ once per estimator with t set
	// automatically (the RDT+(MLE)/(GP)/(Takens) curves).
	AutoT bool
	// SkipPlainRDT drops the plain-RDT curve; the scalability experiment
	// (Figure 8) shows only RDT+, and plain RDT's quadratic witness cost
	// is prohibitive at those sizes (the very motivation for RDT+).
	SkipPlainRDT bool
}

// TradeoffResult holds every measured point of the experiment.
type TradeoffResult struct {
	Dataset string
	Backend string
	Runs    []MethodRun
}

// Tradeoff runs the experiment. The same back-end index serves all methods
// that need forward kNN queries, mirroring the paper's setup.
func Tradeoff(cfg TradeoffConfig) (*TradeoffResult, error) {
	w := cfg.Workload
	metric := vecmath.Metric(vecmath.Euclidean{})
	buildStart := time.Now()
	forward, err := BuildBackend(w.Backend, w.Data.Points, metric)
	if err != nil {
		return nil, err
	}
	backendBuild := time.Since(buildStart)

	queries := w.QueryIDs()
	res := &TradeoffResult{Dataset: w.Data.Name, Backend: w.Backend}

	// The exact baselines' precomputation is shared across all k (the
	// MRkNNCoP index covers every k up to kmax; the RdNN-Tree needs one
	// build per k, which is part of its cost story).
	var cop *mrknncop.Index
	if cfg.ExactMethods {
		kmax := 0
		for _, k := range cfg.Ks {
			if k > kmax {
				kmax = k
			}
		}
		if kmax < 2 {
			kmax = 2
		}
		cop, err = mrknncop.New(w.Data.Points, metric, kmax, forward)
		if err != nil {
			return nil, err
		}
	}

	for _, k := range cfg.Ks {
		truth, err := NewTruth(w.Data.Points, metric, forward, k, queries)
		if err != nil {
			return nil, err
		}

		for _, plus := range []bool{false, true} {
			if !plus && cfg.SkipPlainRDT {
				continue
			}
			name := "RDT"
			if plus {
				name = "RDT+"
			}
			for _, t := range cfg.TValues {
				run, err := runRDT(forward, truth, queries, k, t, plus, backendBuild)
				if err != nil {
					return nil, err
				}
				run.Method = name
				res.Runs = append(res.Runs, *run)
			}
		}

		for _, alpha := range cfg.Alphas {
			qr, err := sft.NewQuerier(forward, sft.Params{K: k, Alpha: alpha})
			if err != nil {
				return nil, err
			}
			got, mean, err := runQueries(queries, func(qid int) ([]int, error) {
				r, err := qr.ByID(qid)
				if err != nil {
					return nil, err
				}
				return r.IDs, nil
			})
			if err != nil {
				return nil, err
			}
			res.Runs = append(res.Runs, MethodRun{
				Method: "SFT", Param: fmt.Sprintf("α=%g", alpha), K: k,
				Recall: truth.MeanRecall(got), Precision: truth.MeanPrecision(got),
				QueryTime: mean, Precomp: backendBuild,
			})
		}

		if cfg.AutoT {
			autoRuns, err := runAutoT(w, forward, truth, queries, k, backendBuild)
			if err != nil {
				return nil, err
			}
			res.Runs = append(res.Runs, autoRuns...)
		}

		if cfg.ExactMethods {
			exactRuns, err := runExact(w, metric, forward, cop, truth, queries, k)
			if err != nil {
				return nil, err
			}
			res.Runs = append(res.Runs, exactRuns...)
		}
	}
	return res, nil
}

// runRDT measures one point of the RDT or RDT+ curve.
func runRDT(forward index.Index, truth *Truth, queries []int, k int, t float64, plus bool, precomp time.Duration) (*MethodRun, error) {
	qr, err := core.NewQuerier(forward, core.Params{K: k, T: t, Plus: plus})
	if err != nil {
		return nil, err
	}
	got, mean, err := runQueries(queries, func(qid int) ([]int, error) {
		r, err := qr.ByID(qid)
		if err != nil {
			return nil, err
		}
		return r.IDs, nil
	})
	if err != nil {
		return nil, err
	}
	return &MethodRun{
		Param: fmt.Sprintf("t=%g", t), K: k,
		Recall: truth.MeanRecall(got), Precision: truth.MeanPrecision(got),
		QueryTime: mean, Precomp: precomp,
	}, nil
}

// runAutoT produces the RDT+(MLE), RDT+(GP) and RDT+(Takens) points: the
// scale parameter is chosen by each intrinsic-dimensionality estimator
// (paper Section 6), and the estimation cost is charged as precomputation.
func runAutoT(w Workload, forward index.Index, truth *Truth, queries []int, k int, backendBuild time.Duration) ([]MethodRun, error) {
	var runs []MethodRun
	for _, est := range []struct{ name, method string }{
		{"mle", "RDT+(MLE)"}, {"gp", "RDT+(GP)"}, {"takens", "RDT+(Takens)"},
	} {
		start := time.Now()
		t, err := lid.Estimate(est.name, forward, w.Data.Points, vecmath.Euclidean{})
		if err != nil {
			continue
		}
		cost := time.Since(start)
		t = max(t, 1) // a sub-1 estimate would cap the scan below k itself
		run, err := runRDT(forward, truth, queries, k, t, true, backendBuild+cost)
		if err != nil {
			return nil, err
		}
		run.Method = est.method
		run.Param = fmt.Sprintf("t=%.2f", t)
		runs = append(runs, *run)
	}
	return runs, nil
}

// runExact measures the exact competitors: MRkNNCoP (shared index), the
// RdNN-Tree (rebuilt per k, its structural deficiency) and TPL (no
// precomputation beyond its R-tree).
func runExact(w Workload, metric vecmath.Metric, forward index.Index, cop *mrknncop.Index, truth *Truth, queries []int, k int) ([]MethodRun, error) {
	var runs []MethodRun

	got, mean, err := runQueries(queries, func(qid int) ([]int, error) {
		r, err := cop.Query(qid, k)
		if err != nil {
			return nil, err
		}
		return r.IDs, nil
	})
	if err != nil {
		return nil, err
	}
	runs = append(runs, MethodRun{
		Method: "MRkNNCoP", K: k,
		Recall: truth.MeanRecall(got), Precision: truth.MeanPrecision(got),
		QueryTime: mean, Precomp: cop.PrecomputeTime,
	})

	rdnnStart := time.Now()
	rdnn, err := rdnntree.New(w.Data.Points, metric, k, forward)
	if err != nil {
		return nil, err
	}
	rdnnBuild := time.Since(rdnnStart)
	got, mean, err = runQueries(queries, rdnn.Query)
	if err != nil {
		return nil, err
	}
	runs = append(runs, MethodRun{
		Method: "RdNN-Tree", K: k,
		Recall: truth.MeanRecall(got), Precision: truth.MeanPrecision(got),
		QueryTime: mean, Precomp: rdnnBuild,
	})

	rtStart := time.Now()
	rt, err := rtree.New(w.Data.Points, metric, nil)
	if err != nil {
		return nil, err
	}
	rtBuild := time.Since(rtStart)
	tq, err := tpl.New(rt, k)
	if err != nil {
		return nil, err
	}
	got, mean, err = runQueries(queries, func(qid int) ([]int, error) {
		r, err := tq.ByID(qid)
		if err != nil {
			return nil, err
		}
		return r.IDs, nil
	})
	if err != nil {
		return nil, err
	}
	runs = append(runs, MethodRun{
		Method: "TPL", K: k,
		Recall: truth.MeanRecall(got), Precision: truth.MeanPrecision(got),
		QueryTime: mean, Precomp: rtBuild,
	})
	return runs, nil
}
