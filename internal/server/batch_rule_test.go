package server

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/indextest"
	"repro/internal/telemetry"
)

// TestBatchRuleAgreesAcrossTopologies pins the one batch rule on every
// engine: every member runs, a member's error does not stop the pool, the
// batch reports the failing member that comes first in input order, and the
// members that succeeded are counted — so a Searcher, a ShardedSearcher at
// S = 1 and 3 and a Coordinator over three daemons answer the same batch
// with the same error text and the same rknn_queries_total{op="batch"}
// delta, at any pool size. Only the caller's context stops a batch, with the
// same error everywhere.
func TestBatchRuleAgreesAcrossTopologies(t *testing.T) {
	const k, deleted, unassigned = 5, 42, 100000
	pts := indextest.RandPoints(300, 3, 41)
	opts := []repro.Option{repro.WithScale(100)}

	type topology struct {
		name string
		eng  Engine
		reg  *telemetry.Registry
	}
	var tops []topology
	s, err := repro.New(pts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	tops = append(tops, topology{name: "searcher", eng: s})
	for _, S := range []int{1, 3} {
		ss, err := repro.NewSharded(pts, S, opts...)
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, topology{name: fmt.Sprintf("sharded S=%d", S), eng: ss})
	}
	for i := range tops {
		tops[i].reg = telemetry.NewRegistry()
		tops[i].eng.EnableTelemetry(tops[i].reg)
	}
	cl := startClusterWith(t, pts, 3, 1, opts)
	tops = append(tops, topology{name: "coordinator", eng: cl.co, reg: cl.reg})
	for _, top := range tops {
		if ok, err := top.eng.DeleteContext(context.Background(), deleted); !ok || err != nil {
			t.Fatalf("%s: Delete(%d) = %v, %v", top.name, deleted, ok, err)
		}
	}
	batchCount := func(top topology) float64 {
		return sampleValue(t, top.reg, "rknn_queries_total",
			telemetry.Label{Name: "backend", Value: "covertree"}, telemetry.Label{Name: "op", Value: "batch"})
	}

	forward := make([]int, 60)
	for i := range forward {
		forward[i] = i // member 42 is deleted
	}
	forward[50] = unassigned
	backward := make([]int, len(forward))
	for i, qid := range forward {
		backward[len(forward)-1-i] = qid
	}
	for _, tc := range []struct {
		name  string
		qids  []int
		first int // the failing member first in input order
	}{
		{"deleted first", forward, deleted},
		{"unassigned first", backward, unassigned},
	} {
		for _, workers := range []int{1, 4} {
			var wantErr string
			for _, top := range tops {
				before := batchCount(top)
				out, err := top.eng.BatchReverseKNNContext(context.Background(), tc.qids, k, workers)
				if err == nil || out != nil {
					t.Fatalf("%s, workers=%d, %s: batch answered (%v, %v), want member %d's error", tc.name, workers, top.name, out, err, tc.first)
				}
				if wantErr == "" {
					wantErr = err.Error()
					if !strings.HasPrefix(wantErr, fmt.Sprintf("rknnd: query %d: ", tc.first)) {
						t.Fatalf("%s, workers=%d, %s: error %q does not name member %d", tc.name, workers, top.name, wantErr, tc.first)
					}
				} else if err.Error() != wantErr {
					t.Errorf("%s, workers=%d, %s: error %q, want %q", tc.name, workers, top.name, err, wantErr)
				}
				if got := batchCount(top) - before; got != float64(len(tc.qids)-2) {
					t.Errorf("%s, workers=%d, %s: batch counter moved by %v, want %d members that succeeded", tc.name, workers, top.name, got, len(tc.qids)-2)
				}
			}
		}
	}

	long := make([]int, 3000)
	for i := range long {
		long[i] = (i * 7) % len(pts)
		if long[i] == deleted {
			long[i] = 0
		}
	}
	for _, top := range tops {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		before := batchCount(top)
		if _, err := top.eng.BatchReverseKNNContext(ctx, long, k, 2); err == nil || err.Error() != "rknnd: context canceled" {
			t.Errorf("%s, cancelled before the call: error %v, want rknnd: context canceled", top.name, err)
		}
		if got := batchCount(top) - before; got != 0 {
			t.Errorf("%s, cancelled before the call: %v members counted, want none", top.name, got)
		}

		ctx, cancel = context.WithCancel(context.Background())
		time.AfterFunc(2*time.Millisecond, cancel)
		before = batchCount(top)
		if _, err := top.eng.BatchReverseKNNContext(ctx, long, k, 2); err == nil || err.Error() != "rknnd: context canceled" {
			t.Errorf("%s, cancelled mid-batch: error %v, want rknnd: context canceled", top.name, err)
		}
		if got := batchCount(top) - before; got >= float64(len(long)) {
			t.Errorf("%s, cancelled mid-batch: %v members counted, want fewer than the %d dispatched", top.name, got, len(long))
		}
		cancel()
	}
}
