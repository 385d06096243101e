package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// batchByID is the facade's batch shape over ForEach: one member query per
// task, its result or error recorded in the task's slot.
func batchByID(ctx context.Context, qr *Querier, qids []int, workers int) ([]*Result, []error, error) {
	res := make([]*Result, len(qids))
	errs := make([]error, len(qids))
	err := ForEach(ctx, len(qids), workers, func(ctx context.Context, i int) {
		res[i], errs[i] = boxed(qr.ByIDCtx(ctx, qids[i]))
	})
	return res, errs, err
}

func TestBatchMatchesSequential(t *testing.T) {
	pts := randPoints(300, 4, 17)
	ix := newScan(t, pts)
	qr, err := NewQuerier(ix, Params{K: 5, T: 8, Plus: true})
	if err != nil {
		t.Fatal(err)
	}
	qids := make([]int, 40)
	for i := range qids {
		qids[i] = i * 7 % 300
	}
	batch, errs, err := batchByID(context.Background(), qr, qids, 4)
	if err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	for i, res := range batch {
		if errs[i] != nil {
			t.Fatalf("entry %d: %v", i, errs[i])
		}
		seq, err := qr.ByID(qids[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.IDs, seq.IDs) {
			t.Fatalf("qid %d: batch %v, sequential %v", qids[i], res.IDs, seq.IDs)
		}
	}
}

// TestBatchPerEntryErrors: a task's failure is its own — every task runs and
// the pool itself reports none.
func TestBatchPerEntryErrors(t *testing.T) {
	ix := newScan(t, randPoints(50, 2, 3))
	qr, err := NewQuerier(ix, Params{K: 3, T: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		batch, errs, err := batchByID(context.Background(), qr, []int{0, -1, 5, 999}, workers)
		if err != nil {
			t.Fatalf("workers=%d: ForEach: %v", workers, err)
		}
		if errs[0] != nil || errs[2] != nil || batch[0] == nil || batch[2] == nil {
			t.Errorf("workers=%d: valid queries reported errors", workers)
		}
		if errs[1] == nil || errs[3] == nil {
			t.Errorf("workers=%d: invalid queries did not report errors", workers)
		}
	}
}

func TestBatchEdgeCases(t *testing.T) {
	ix := newScan(t, randPoints(50, 2, 5))
	qr, err := NewQuerier(ix, Params{K: 3, T: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := batchByID(ctx, qr, []int{1}, -1); err == nil {
		t.Error("accepted negative workers")
	}
	if empty, _, err := batchByID(ctx, qr, nil, 0); err != nil || len(empty) != 0 {
		t.Errorf("empty batch = (%v, %v)", empty, err)
	}
	// workers defaulting to GOMAXPROCS and clamping to batch size.
	if one, errs, err := batchByID(ctx, qr, []int{7}, 0); err != nil || one[0] == nil || errs[0] != nil {
		t.Errorf("single-query batch failed: %v, %v", err, errs[0])
	}
	// Only the context stops the pool: cancelled up front, nothing runs.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	ran := atomic.Int64{}
	if err := ForEach(cctx, 100, 2, func(context.Context, int) { ran.Add(1) }); !errors.Is(err, context.Canceled) || ran.Load() != 0 {
		t.Errorf("pre-cancelled pool: err %v after %d tasks, want context.Canceled after none", err, ran.Load())
	}
	// Cancelled mid-flight, the pool stops dispatching and drains.
	cctx, cancel = context.WithCancel(ctx)
	ran.Store(0)
	err = ForEach(cctx, 1000, 2, func(context.Context, int) {
		if ran.Add(1) == 10 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) || ran.Load() > 12 {
		t.Errorf("mid-flight cancel: err %v after %d tasks, want context.Canceled after at most 12", err, ran.Load())
	}
}

// TestBatchWorkerCapBoundsGoroutines is the regression test for the worker
// pool sizing: a batch requesting far more workers than cores must run on
// at most GOMAXPROCS workers, so peak goroutine count stays bounded even
// when every worker itself fans out (the sharded scatter-gather path).
func TestBatchWorkerCapBoundsGoroutines(t *testing.T) {
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	ix := newScan(t, randPoints(600, 6, 7))
	qr, err := NewQuerier(ix, Params{K: 8, T: 10, Plus: true})
	if err != nil {
		t.Fatal(err)
	}
	qids := make([]int, 256)
	for i := range qids {
		qids[i] = i * 2
	}

	before := runtime.NumGoroutine()
	var peak atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	if _, _, err := batchByID(context.Background(), qr, qids, 512); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	close(stop)
	<-sampled

	// The pool may add at most GOMAXPROCS workers plus the feeder; the
	// sampler itself and a little scheduler slack account for the rest.
	if extra := peak.Load() - int64(before); extra > procs+4 {
		t.Errorf("peak goroutines grew by %d with 512 requested workers, want <= %d (GOMAXPROCS=%d + feeder + slack)",
			extra, procs+4, procs)
	}
}
