package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	repro "repro"
)

// runSave implements `rknn save`: build a Searcher (estimating or pinning
// the scale parameter exactly as `rknn serve` would) and write it as one
// snapshot file — or, with -shards N, as a sharded store directory holding
// one snapshot per shard. The expensive part of bringing an RkNN engine up
// — dimensionality estimation plus the index build — is paid here, offline;
// `rknn load` and `rknn serve -data-dir` then restore in build-cost only.
func runSave(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("save", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		out    = fs.String("out", "", "snapshot file to write, or store directory with -shards > 1 (required)")
		shards = fs.Int("shards", 1, "hash-partition the dataset across N shards and write a sharded store directory")
	)
	ef := registerEngineFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *out == "" {
		return errors.New("save: -out is required")
	}

	pts, name, err := ef.points()
	if err != nil {
		return err
	}
	opts, err := ef.options()
	if err != nil {
		return err
	}
	if *shards > 1 {
		start := time.Now()
		ss, err := repro.NewSharded(pts, *shards, opts...)
		if err != nil {
			return err
		}
		if _, err := repro.NewDurableSharded(*out, ss); err != nil {
			return err
		}
		if err := ss.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "rknn save: %s (n=%d, dim=%d), %s back-end, t=%.2f, built in %s\n",
			name, ss.Len(), ss.Dim(), ef.backend, ss.Scale(), time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(stdout, "rknn save: wrote sharded store (%d shards) to %s\n", *shards, *out)
		return nil
	}
	start := time.Now()
	s, err := repro.New(pts, opts...)
	if err != nil {
		return err
	}
	built := time.Since(start)

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := s.Save(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "rknn save: %s (n=%d, dim=%d), %s back-end, t=%.2f, built in %s\n",
		name, s.Len(), s.Dim(), ef.backend, s.Scale(), built.Round(time.Millisecond))
	fmt.Fprintf(stdout, "rknn save: wrote %d bytes to %s\n", info.Size(), *out)
	return nil
}

// runLoad implements `rknn load`: restore an engine from a snapshot file
// (or a sharded store directory written by `rknn save -shards`) — metric,
// back-end, tombstones, and scale parameter all come from disk, nothing is
// re-estimated — and answer one reverse query.
func runLoad(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		in      = fs.String("in", "", "snapshot file or sharded store directory to read (required)")
		queryID = fs.Int("query", 0, "dataset member to query")
		k       = fs.Int("k", 10, "reverse neighbor rank")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *in == "" {
		return errors.New("load: -in is required")
	}

	if repro.ShardedStoreExists(*in) {
		start := time.Now()
		ss, err := repro.OpenSharded(*in)
		if err != nil {
			return err
		}
		defer ss.Close()
		fmt.Fprintf(stdout, "rknn load: %d points across %d shards, dim=%d, t=%.2f restored in %s (no re-estimation)\n",
			ss.Len(), ss.Shards(), ss.Dim(), ss.Scale(), time.Since(start).Round(time.Millisecond))
		start = time.Now()
		ids, err := ss.ReverseKNN(*queryID, *k)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "R%dNN(%d): %d results in %s\n", *k, *queryID, len(ids), time.Since(start).Round(time.Microsecond))
		fmt.Fprintln(stdout, ids)
		return nil
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	start := time.Now()
	s, err := repro.Load(f)
	if err != nil {
		return err
	}
	loaded := time.Since(start)
	fmt.Fprintf(stdout, "rknn load: %d points, dim=%d, t=%.2f restored in %s (no re-estimation)\n",
		s.Len(), s.Dim(), s.Scale(), loaded.Round(time.Millisecond))

	start = time.Now()
	ids, err := s.ReverseKNN(*queryID, *k)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "R%dNN(%d): %d results in %s\n", *k, *queryID, len(ids), time.Since(start).Round(time.Microsecond))
	fmt.Fprintln(stdout, ids)
	return nil
}
