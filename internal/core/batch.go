package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// ForEach runs fn(i) for every i in [0, n) on a worker pool of the given
// size (0 selects one worker per core) and waits for completion. The pool
// is capped at both n and GOMAXPROCS: more workers than tasks idle
// forever, and more workers than cores only add scheduler pressure — the
// cap matters most under sharded fan-out, where every worker scatters to S
// shard goroutines and an uncapped request would multiply goroutines
// quadratically. Tasks report their outcomes themselves; only ctx stops the
// pool, which then stops dispatching, drains in-flight calls and returns
// ctx's error. The other error is an invalid worker count.
//
// The paper's conclusion names parallelizable RkNN processing as an open
// problem for extreme scales; within one machine the problem is
// embarrassingly parallel because the Querier and every index back-end in
// this module are safe for concurrent readers.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 0 {
		return fmt.Errorf("core: workers must be non-negative, got %d", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n, runtime.GOMAXPROCS(0))
	if err := ctx.Err(); err != nil {
		return err
	}

	// The feeder owns the dispatch channel: it stops feeding the moment ctx
	// is cancelled, so workers drain at most one in-flight task each before
	// the pool winds down.
	next := make(chan int)
	go func() {
		defer close(next)
		for i := 0; i < n; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					return
				}
				fn(ctx, i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
