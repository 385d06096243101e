package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	repro "repro"
	"repro/internal/stats"
)

// config is what the command line decides; everything else is in sizing.
type config struct {
	seed    int64
	window  time.Duration
	warm    time.Duration
	clients int
	sz      sizing
	tmp     string // scratch directory for stores
	log     io.Writer
	started time.Time

	// Set-up is repeated and its median reported: at least minSetups
	// times, then until setupBudget is spent, so that a 20 ms scan build
	// and a 1 s cluster start are both steady.
	minSetups, maxSetups int
	setupBudget          time.Duration
}

// logf reports progress on standard error, stamped with the seconds since
// the process started so a slow phase is visible.
func (c config) logf(format string, args ...any) {
	fmt.Fprintf(c.log, "[%5.1fs] "+format+"\n", append([]any{time.Since(c.started).Seconds()}, args...)...)
}

// minQuality is the floor below which an answer set counts as wrong rather
// than approximate; recall and precision themselves are gated by their
// bounds in BENCHMARK.json.
const minQuality = 0.9

// pass is the outcome of one untraced or traced pass over a workload.
type pass struct {
	Metrics   map[string]float64 `json:"metrics"`
	Info      map[string]float64 `json:"info,omitempty"` // recorded beside the metrics, never compared
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
}

// setUp builds the workload's stack from points in hand to the first
// answered query, repeatedly, and returns the last stack with the median
// time.
func setUp(cfg config, w workload, in *inputs) (*system, float64, int, error) {
	var times []float64
	var spent time.Duration
	for {
		runtime.GC()
		begin := time.Now()
		sys, err := buildSystem(w, in, cfg.tmp)
		if err != nil {
			return nil, 0, 0, err
		}
		if _, err := sys.newClient().rknn(in.queries[0], w.k); err != nil {
			sys.close()
			return nil, 0, 0, fmt.Errorf("first query: %w", err)
		}
		d := time.Since(begin)
		spent += d
		times = append(times, d.Seconds())
		if len(times) >= cfg.maxSetups || (len(times) >= cfg.minSetups && spent >= cfg.setupBudget) {
			return sys, stats.Median(times), len(times), nil
		}
		if err := sys.close(); err != nil {
			return nil, 0, 0, err
		}
	}
}

// runEndToEnd is the untraced pass: set-up, closed-loop window, checks.
func runEndToEnd(cfg config, w workload, in *inputs) (*pass, error) {
	sys, setupS, setups, err := setUp(cfg, w, in)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / (1 << 20)
	cfg.logf("%s: set up %d times, median %.3fs, live heap %.1f MB", w.name, setups, setupS, heapMB)

	var orc *oracle
	if !w.mixed { // a mixed workload is checked against its final live set
		if orc, err = newOracle(denseIDs(len(in.points)), in.points, w.k); err != nil {
			return nil, err
		}
	}

	cfg.logf("%s: oracle table ready", w.name)
	res := runLoad(sys, w, in, cfg.seed, cfg.clients, cfg.warm, cfg.window, false)
	lm, err := res.metrics()
	if err != nil {
		return nil, err
	}
	cfg.logf("%s: %d reads, %d writes, %d failed in %v with %d clients; reads/s by round %.0f", w.name, lm.reads, lm.writes, lm.failed, cfg.window, cfg.clients, lm.qpsBy)
	if lm.minBeyondP95 < beyond {
		cfg.logf("%s: warning: a round has only %d samples beyond p95, want %d", w.name, lm.minBeyondP95, beyond)
	}

	t := &tally{attempted: lm.reads + lm.writes + lm.failed, failed: lm.failed}
	if w.mixed {
		t.writesLanded(sys.durable, len(in.points), res.clients)
		ids, pts := liveSet(in, res.clients)
		if orc, err = newOracle(ids, pts, w.k); err != nil {
			return nil, err
		}
	}
	got := t.answerAll(sys.newClient(), in.check, w.k)
	recall, precision := orc.score(in.check, got)
	switch w.kind {
	case kindCluster:
		ref, err := repro.NewSharded(in.points, shards, w.engineOptions()...)
		if err != nil {
			return nil, err
		}
		t.identical("cluster against lib-sharded", got, t.answerAll(libClient{ref}, in.check, w.k))
	case kindDurable:
		t.reopened(sys, in.check, w.k, got)
	}

	cfg.logf("%s: checks done", w.name)

	p := &pass{
		Metrics: map[string]float64{
			"setup_s": setupS, "rknn_qps": lm.qps, "rknn_p50_ms": lm.readP50, "rknn_p95_ms": lm.readP95,
			"recall": recall, "precision": precision,
			"failed_share":  float64(t.failed) / float64(t.attempted),
			"allocs_per_op": lm.allocs, "alloc_kb_per_op": lm.allocKB, "cpu_ms_per_op": lm.cpuMsOp, "heap_mb": heapMB,
		},
		Info: map[string]float64{
			"setups": float64(setups), "reads": float64(lm.reads), "writes": float64(lm.writes),
			"rknn_tail_percentile": lm.tailPct, "rknn_tail_ms": lm.tailMs,
			"rknn_p95_min_samples_beyond": float64(lm.minBeyondP95),
		},
		Attempted: t.attempted, Failed: t.failed, Notes: t.notes,
	}
	if w.mixed { // absent, not zero, where nothing writes
		p.Metrics["write_p50_ms"], p.Metrics["write_p95_ms"] = lm.writeP50, lm.writeP95
		p.Info["compactions"] = float64(sys.durable.Compactions())
	}
	p.Correct = t.failed == 0 && recall >= minQuality && precision >= minQuality
	if recall < minQuality || precision < minQuality {
		p.Notes = append(p.Notes, fmt.Sprintf("recall %.4f or precision %.4f under the %.2f floor", recall, precision, minQuality))
	}
	return p, sys.close()
}
