// Command rknn answers reverse k-nearest-neighbor queries from the command
// line with the paper's RDT and RDT+ algorithms, over a generated surrogate
// dataset or a CSV file — or, with the serve subcommand, runs as a
// long-lived HTTP daemon answering them over the network. The save and
// load subcommands separate build time from query time: save pays the
// scale estimation and index build once and writes a snapshot file; load
// restores it without re-estimating anything. The binary links only what it
// serves; the competing methods of the paper's evaluation (SFT, MRkNNCoP,
// RdNN-Tree, TPL) answer the same one-shot query under `experiments query`.
//
// Examples:
//
//	rknn -data sequoia -n 5000 -k 10 -query 42
//	rknn -data mnist -n 2000 -k 10 -method rdt -t 8 -query 7
//	rknn -csv points.csv -k 5 -query 0
//	rknn -data fct -n 3000 -k 10 -method rdt+ -auto mle -query 3
//	rknn serve -addr :8080 -data fct -n 10000
//	rknn serve -addr :8080 -data-dir /var/lib/rknn     (durable, crash-recovering)
//	rknn shard-serve -addr :8081 -shard 0 -shards 3 -data fct -n 10000
//	rknn coordinate -addr :8080 -shard localhost:8081 -shard localhost:8082 -shard localhost:8083
//	rknn top -addr localhost:8080                      (live operations dashboard)
//	rknn save -data fct -n 10000 -out fct.rknn
//	rknn load -in fct.rknn -query 3 -k 10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			defer stop()
			if err := runServe(ctx, os.Args[2:], os.Stdout, nil); err != nil {
				fail(err)
			}
			return
		case "shard-serve":
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			defer stop()
			if err := runShardServe(ctx, os.Args[2:], os.Stdout, nil); err != nil {
				fail(err)
			}
			return
		case "coordinate":
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			defer stop()
			if err := runCoordinate(ctx, os.Args[2:], os.Stdout, nil); err != nil {
				fail(err)
			}
			return
		case "save":
			if err := runSave(os.Args[2:], os.Stdout); err != nil {
				fail(err)
			}
			return
		case "load":
			if err := runLoad(os.Args[2:], os.Stdout); err != nil {
				fail(err)
			}
			return
		case "top":
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			defer stop()
			if err := runTop(ctx, os.Args[2:], os.Stdout); err != nil {
				fail(err)
			}
			return
		}
	}
	var (
		dataName = flag.String("data", "sequoia", "surrogate dataset: sequoia, aloi, fct, mnist, imagenet, uniform")
		csvPath  = flag.String("csv", "", "load points from a CSV file instead of generating")
		n        = flag.Int("n", 5000, "generated dataset size")
		dim      = flag.Int("dim", 128, "dimension for imagenet/uniform surrogates")
		seed     = flag.Int64("seed", 1, "generation seed")
		backend  = flag.String("backend", "covertree", "forward index: scan, covertree, or lsh (approximate)")
		method   = flag.String("method", "rdt+", "rdt or rdt+")
		k        = flag.Int("k", 10, "reverse neighbor rank")
		tParam   = flag.Float64("t", 8, "scale parameter")
		auto     = flag.String("auto", "", "choose t automatically: mle, gp or takens")
		queryID  = flag.Int("query", 0, "dataset member to query")
		verbose  = flag.Bool("v", false, "print per-query statistics")
	)
	flag.Parse()

	pts, name, err := loadPoints(*csvPath, *dataName, *n, *dim, *seed)
	if err != nil {
		fail(err)
	}
	plain := false
	switch strings.ToLower(*method) {
	case "rdt+":
	case "rdt":
		plain = true
	default:
		fail(fmt.Errorf("unknown method %q (want rdt or rdt+; sft, mrknncop, rdnn and tpl run under `experiments query`)", *method))
	}
	if *auto != "" {
		*tParam = 0 // estimate instead
	}
	s, err := buildSearcher(pts, *backend, *tParam, strings.ToLower(*auto), plain, false, "")
	if err != nil {
		fail(err)
	}
	if *auto != "" {
		fmt.Printf("auto t (%s) = %.2f\n", *auto, s.Scale())
	}

	start := time.Now()
	ids, st, err := s.ReverseKNNStats(*queryID, *k)
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("dataset %s (n=%d, dim=%d), %s back-end\n", name, len(pts), len(pts[0]), *backend)
	fmt.Printf("R%dNN(%d) via %s: %d results in %s\n", *k, *queryID, *method, len(ids), elapsed.Round(time.Microsecond))
	fmt.Println(ids)
	if *verbose {
		fmt.Printf("scan depth %d, filter %d, lazy accepts %d, lazy rejects %d, verified %d, ω=%.4g\n",
			st.ScanDepth, st.FilterSize, st.LazyAccepts, st.LazyRejects, st.Verified, st.Omega)
	}
}

func loadPoints(csvPath, dataName string, n, dim int, seed int64) ([][]float64, string, error) {
	ds, err := dataset.Load(csvPath, dataName, n, dim, seed)
	if err != nil {
		return nil, "", err
	}
	return ds.Points, ds.Name, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rknn:", err)
	os.Exit(1)
}
