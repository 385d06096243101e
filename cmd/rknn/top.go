package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// runTop implements the `rknn top` subcommand: a zero-dependency terminal
// dashboard over a running `rknn serve` instance, assembled from three
// endpoints the server already exposes — /statsz (windowed route and
// engine digests), /v1/admin/slo (error-budget state) and
// /v1/admin/analytics (hot query regions). In the default mode it clears
// and redraws the screen every -interval like top(1); with -once it prints
// a single frame and exits 0, which is the scriptable form the CI smoke
// uses.
func runTop(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr     = fs.String("addr", "http://localhost:8080", "base URL of the rknn serve instance (a bare host:port gets http://)")
		interval = fs.Duration("interval", 2*time.Second, "refresh interval")
		once     = fs.Bool("once", false, "print one frame and exit instead of refreshing")
		topN     = fs.Int("n", 8, "hot query regions to show")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *interval <= 0 {
		return fmt.Errorf("top: -interval must be positive, got %s", *interval)
	}
	base := strings.TrimRight(*addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 5 * time.Second}

	render := func() error {
		frame, err := buildFrame(client, base, *topN)
		if err != nil {
			return err
		}
		if !*once {
			// ANSI clear + home: redraw in place like top(1).
			fmt.Fprint(stdout, "\x1b[2J\x1b[H")
		}
		fmt.Fprint(stdout, frame)
		return nil
	}
	if err := render(); err != nil {
		return err
	}
	if *once {
		return nil
	}
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
			if err := render(); err != nil {
				return err
			}
		}
	}
}

// The decode targets mirror only the fields the dashboard renders; unknown
// fields in the server responses are ignored, so the dashboard stays
// compatible as /statsz grows.

type topWindow struct {
	Count  float64 `json:"count"`
	QPS    float64 `json:"qps"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
}

type topStatsz struct {
	Endpoints map[string]struct {
		Requests float64              `json:"requests"`
		Errors   float64              `json:"errors"`
		P99US    float64              `json:"p99_us"`
		Windows  map[string]topWindow `json:"windows"`
	} `json:"endpoints"`
	Engine struct {
		Points  float64                         `json:"points"`
		Dim     float64                         `json:"dim"`
		Scale   float64                         `json:"scale"`
		Ops     map[string]map[string]topWindow `json:"ops"`
		Windows map[string]struct {
			ScanDepth    float64 `json:"scan_depth"`
			Generated    float64 `json:"candidates_generated"`
			Verified     float64 `json:"candidates_verified"`
			PruningRatio float64 `json:"pruning_ratio"`
		} `json:"windows"`
	} `json:"engine"`
	Runtime struct {
		Goroutines float64 `json:"goroutines"`
		HeapBytes  float64 `json:"heap_alloc_bytes"`
	} `json:"runtime"`
}

type topSLO struct {
	FastBurn   float64 `json:"fast_burn_threshold"`
	Degraded   bool    `json:"degraded"`
	Objectives []struct {
		Name            string             `json:"name"`
		Objective       string             `json:"objective"`
		Requests        int64              `json:"requests"`
		BadEvents       int64              `json:"bad_events"`
		BudgetRemaining float64            `json:"error_budget_remaining_ratio"`
		BurnRates       map[string]float64 `json:"burn_rates"`
		Degraded        bool               `json:"degraded"`
	} `json:"objectives"`
}

type topAnalytics struct {
	Window string `json:"window"`
	Top    []struct {
		Signature     string    `json:"signature"`
		Count         uint64    `json:"count"`
		ErrBound      uint64    `json:"count_error_bound"`
		MeanLatency   float64   `json:"mean_latency_seconds"`
		MeanScanDepth float64   `json:"mean_scan_depth"`
		PruningRatio  float64   `json:"pruning_ratio"`
		Window        topWindow `json:"window"`
	} `json:"top"`
}

// fetchJSON GETs url and decodes the body into out. A 501 reports
// (false, nil): the endpoint exists but the feature is off, which the
// dashboard renders as a note rather than an error.
func fetchJSON(client *http.Client, url string, out any) (bool, error) {
	resp, err := client.Get(url)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotImplemented {
		io.Copy(io.Discard, resp.Body)
		return false, nil
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("top: GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return false, fmt.Errorf("top: GET %s: decode: %w", url, err)
	}
	return true, nil
}

// buildFrame assembles one full dashboard frame as a string, so a redraw
// is a single write and never interleaves with the clear sequence.
func buildFrame(client *http.Client, base string, topN int) (string, error) {
	var stats topStatsz
	if _, err := fetchJSON(client, base+"/statsz", &stats); err != nil {
		return "", err
	}
	var slo topSLO
	sloOn, err := fetchJSON(client, base+"/v1/admin/slo", &slo)
	if err != nil {
		return "", err
	}
	var ana topAnalytics
	anaOn, err := fetchJSON(client, fmt.Sprintf("%s/v1/admin/analytics?n=%d", base, topN), &ana)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "rknn top — %s — %s\n", base, time.Now().Format("15:04:05"))
	fmt.Fprintf(&b, "engine: %.0f points, dim %.0f, t=%.2f    runtime: %.0f goroutines, heap %s\n\n",
		stats.Engine.Points, stats.Engine.Dim, stats.Engine.Scale,
		stats.Runtime.Goroutines, fmtBytes(stats.Runtime.HeapBytes))

	// Routes: lifetime counters next to the 1m window.
	fmt.Fprintf(&b, "%-22s %9s %7s %8s %10s %10s %10s\n",
		"ROUTE", "REQS", "ERRS", "1m q/s", "1m p50", "1m p99", "life p99")
	routes := make([]string, 0, len(stats.Endpoints))
	for r, ep := range stats.Endpoints {
		if ep.Requests > 0 {
			routes = append(routes, r)
		}
	}
	sort.Slice(routes, func(i, j int) bool {
		return stats.Endpoints[routes[i]].Requests > stats.Endpoints[routes[j]].Requests
	})
	for _, r := range routes {
		ep := stats.Endpoints[r]
		w := ep.Windows["1m"]
		fmt.Fprintf(&b, "%-22s %9.0f %7.0f %8.1f %10s %10s %10s\n",
			r, ep.Requests, ep.Errors, w.QPS, fmtUS(w.P50US), fmtUS(w.P99US), fmtUS(ep.P99US))
	}
	if len(routes) == 0 {
		b.WriteString("  (no traffic yet)\n")
	}

	// Engine ops: the windowed per-operation view, with the pruning story.
	if len(stats.Engine.Ops) > 0 {
		fmt.Fprintf(&b, "\n%-22s %9s %8s %10s %10s\n", "ENGINE OP", "1m count", "1m q/s", "1m p50", "1m p99")
		ops := make([]string, 0, len(stats.Engine.Ops))
		for op := range stats.Engine.Ops {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		for _, op := range ops {
			w := stats.Engine.Ops[op]["1m"]
			fmt.Fprintf(&b, "%-22s %9.0f %8.1f %10s %10s\n", op, w.Count, w.QPS, fmtUS(w.P50US), fmtUS(w.P99US))
		}
	}
	if w, ok := stats.Engine.Windows["1m"]; ok && w.Generated > 0 {
		fmt.Fprintf(&b, "pruning (1m): %.0f generated, %.0f verified, ratio %.1f%%\n",
			w.Generated, w.Verified, 100*w.PruningRatio)
	}

	// SLO: budget remaining and multi-window burn, the page-or-not readout.
	b.WriteString("\n")
	if !sloOn {
		b.WriteString("slo: not configured (-slo-latency / -slo-availability)\n")
	} else {
		state := "ok"
		if slo.Degraded {
			state = "DEGRADED"
		}
		fmt.Fprintf(&b, "slo: %s (fast burn ≥ %.1f on both windows)\n", state, slo.FastBurn)
		fmt.Fprintf(&b, "%-14s %-28s %9s %7s %10s %9s %9s\n",
			"OBJECTIVE", "GOAL", "REQS", "BAD", "BUDGET", "burn 1m", "burn 5m")
		for _, o := range slo.Objectives {
			mark := ""
			if o.Degraded {
				mark = "  <<burning"
			}
			fmt.Fprintf(&b, "%-14s %-28s %9d %7d %9.1f%% %9.2f %9.2f%s\n",
				o.Name, o.Objective, o.Requests, o.BadEvents, 100*o.BudgetRemaining,
				o.BurnRates["1m"], o.BurnRates["5m"], mark)
		}
	}

	// Workload analytics: where in the space the queries are landing.
	b.WriteString("\n")
	if !anaOn {
		b.WriteString("analytics: not available (engine telemetry off)\n")
	} else if len(ana.Top) == 0 {
		fmt.Fprintf(&b, "hot query regions (%s): none yet\n", ana.Window)
	} else {
		fmt.Fprintf(&b, "hot query regions (%s window)\n", ana.Window)
		fmt.Fprintf(&b, "%-34s %12s %8s %10s %9s %8s\n",
			"SIGNATURE", "COUNT", "q/s", "mean lat", "scan", "prune")
		for _, e := range ana.Top {
			count := fmt.Sprintf("%d", e.Count)
			if e.ErrBound > 0 {
				count = fmt.Sprintf("%d±%d", e.Count, e.ErrBound)
			}
			fmt.Fprintf(&b, "%-34s %12s %8.1f %10s %9.1f %7.1f%%\n",
				e.Signature, count, e.Window.QPS, fmtUS(e.MeanLatency*1e6),
				e.MeanScanDepth, 100*e.PruningRatio)
		}
	}
	return b.String(), nil
}

// fmtUS renders a microsecond quantity at a human scale (µs, ms or s).
func fmtUS(us float64) string {
	switch {
	case us <= 0:
		return "-"
	case us < 1000:
		return fmt.Sprintf("%.0fµs", us)
	case us < 1e6:
		return fmt.Sprintf("%.2fms", us/1000)
	default:
		return fmt.Sprintf("%.2fs", us/1e6)
	}
}

// fmtBytes renders a byte quantity at a human scale.
func fmtBytes(n float64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", n/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", n/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", n/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", n)
	}
}
