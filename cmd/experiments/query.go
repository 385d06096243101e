package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/index"
	"repro/internal/lid"
	"repro/internal/mrknncop"
	"repro/internal/rdnntree"
	"repro/internal/rtree"
	"repro/internal/sft"
	"repro/internal/tpl"
	"repro/internal/vecmath"
)

// runOneShot is the `experiments query` subcommand: one reverse k-NN query
// answered by any of the implemented methods, RDT/RDT+ or a competitor of
// the paper's evaluation, over a generated surrogate dataset or a CSV file.
//
//	experiments query -data sequoia -n 5000 -k 10 -method tpl -query 42
//	experiments query -csv points.csv -k 5 -method sft -alpha 8 -query 0
func runOneShot(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments query", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		dataName = fs.String("data", "sequoia", "surrogate dataset: sequoia, aloi, fct, mnist, imagenet, uniform")
		csvPath  = fs.String("csv", "", "load points from a CSV file instead of generating")
		n        = fs.Int("n", 5000, "generated dataset size")
		dim      = fs.Int("dim", 128, "dimension for imagenet/uniform surrogates")
		seed     = fs.Int64("seed", 1, "generation seed")
		backend  = fs.String("backend", "covertree", "forward index: scan, covertree, or lsh (approximate)")
		method   = fs.String("method", "rdt+", "rdt, rdt+, sft, mrknncop, rdnn, tpl")
		k        = fs.Int("k", 10, "reverse neighbor rank")
		tParam   = fs.Float64("t", 8, "scale parameter for rdt/rdt+")
		auto     = fs.String("auto", "", "choose t automatically: mle, gp or takens")
		alpha    = fs.Float64("alpha", 8, "oversampling factor for sft")
		queryID  = fs.Int("query", 0, "dataset member to query")
		verbose  = fs.Bool("v", false, "print per-query statistics")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not a failure
		}
		return err
	}

	ds, err := dataset.Load(*csvPath, *dataName, *n, *dim, *seed)
	if err != nil {
		return err
	}
	pts := ds.Points
	metric := vecmath.Euclidean{}
	forward, err := harness.BuildBackend(*backend, pts, metric)
	if err != nil {
		return err
	}
	if *auto != "" {
		t, err := lid.Estimate(strings.ToLower(*auto), forward, pts, metric)
		if err != nil {
			return err
		}
		t = max(t, 1) // a sub-1 estimate would cap the scan below k itself
		fmt.Fprintf(stdout, "auto t (%s) = %.2f\n", *auto, t)
		*tParam = t
	}

	start := time.Now()
	ids, stats, err := runQuery(strings.ToLower(*method), forward, pts, metric, *queryID, *k, *tParam, *alpha)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "dataset %s (n=%d, dim=%d), %s back-end\n", ds.Name, len(pts), len(pts[0]), *backend)
	fmt.Fprintf(stdout, "R%dNN(%d) via %s: %d results in %s\n", *k, *queryID, *method, len(ids), elapsed.Round(time.Microsecond))
	fmt.Fprintln(stdout, ids)
	if *verbose && stats != "" {
		fmt.Fprintln(stdout, stats)
	}
	return nil
}

// runQuery dispatches to the requested method and returns the result IDs
// plus an optional statistics line.
func runQuery(method string, forward index.Index, pts [][]float64, metric vecmath.Metric, qid, k int, t, alpha float64) ([]int, string, error) {
	switch method {
	case "rdt", "rdt+":
		qr, err := core.NewQuerier(forward, core.Params{K: k, T: t, Plus: method == "rdt+"})
		if err != nil {
			return nil, "", err
		}
		res, err := qr.ByID(qid)
		if err != nil {
			return nil, "", err
		}
		st := res.Stats
		return res.IDs, fmt.Sprintf(
			"scan depth %d, filter %d, lazy accepts %d, lazy rejects %d, verified %d, ω=%.4g",
			st.ScanDepth, st.FilterSize, st.LazyAccepts, st.LazyRejects, st.Verified, st.Omega), nil
	case "sft":
		qr, err := sft.NewQuerier(forward, sft.Params{K: k, Alpha: alpha})
		if err != nil {
			return nil, "", err
		}
		res, err := qr.ByID(qid)
		if err != nil {
			return nil, "", err
		}
		st := res.Stats
		return res.IDs, fmt.Sprintf("candidates %d, filter rejects %d, verified %d",
			st.Candidates, st.FilterRejects, st.Verified), nil
	case "mrknncop":
		kmax := k
		if kmax < 2 {
			kmax = 2
		}
		ix, err := mrknncop.New(pts, metric, kmax, forward)
		if err != nil {
			return nil, "", err
		}
		res, err := ix.Query(qid, k)
		if err != nil {
			return nil, "", err
		}
		st := res.Stats
		return res.IDs, fmt.Sprintf("definite %d, pruned %d, verified %d (precompute %s)",
			st.Definite, st.Pruned, st.Verified, ix.PrecomputeTime.Round(time.Millisecond)), nil
	case "rdnn":
		tree, err := rdnntree.New(pts, metric, k, forward)
		if err != nil {
			return nil, "", err
		}
		ids, err := tree.Query(qid)
		if err != nil {
			return nil, "", err
		}
		return ids, fmt.Sprintf("precompute %s", tree.PrecomputeTime.Round(time.Millisecond)), nil
	case "tpl":
		rt, err := rtree.New(pts, metric, nil)
		if err != nil {
			return nil, "", err
		}
		qr, err := tpl.New(rt, k)
		if err != nil {
			return nil, "", err
		}
		res, err := qr.ByID(qid)
		if err != nil {
			return nil, "", err
		}
		st := res.Stats
		return res.IDs, fmt.Sprintf("nodes pruned %d, points pruned %d, candidates %d",
			st.NodesPruned, st.PointsPruned, st.Candidates), nil
	default:
		return nil, "", fmt.Errorf("unknown method %q", method)
	}
}
