// Command bench is the repository's benchmark: five workloads, the
// end-to-end metrics a caller sees, and a per-layer ladder from the distance
// kernel to the coordinator. BENCHMARK.json describes it to the driver;
// README.md explains the choices.
//
//	go run ./bench -workload all -seed 1
//	go run ./bench -workload cluster -seed 7 -seconds 10 -trace 0
//	go run ./bench -compare bench/baseline/set1 bench/baseline/set2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// stamp records where and how a result was measured.
type stamp struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	When       string  `json:"when"`
}

// result is the file one invocation writes per workload.
type result struct {
	Stamp    stamp  `json:"stamp"`
	Workload string `json:"workload"`
	EndToEnd *pass  `json:"end_to_end,omitempty"`
	PerLayer *pass  `json:"per_layer,omitempty"`
}

// traceFile holds the traced pass's spans and the cost of recording them.
type traceFile struct {
	Stamp    stamp              `json:"stamp"`
	Workload string             `json:"workload"`
	Extra    map[string]float64 `json:"extra,omitempty"`
	Spans    []span             `json:"spans"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the input generators (the system under test never sees it)")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	traceArg := fs.String("trace", "both", "0: untraced end-to-end pass, 1: traced per-layer pass, both")
	out := fs.String("out", "bench/out", "directory for result and trace files")
	compare := fs.Bool("compare", false, "compare two result sets (files or directories) against the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A B")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	}
	if *seconds <= 0 || (*traceArg != "0" && *traceArg != "1" && *traceArg != "both") {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace one of 0, 1, both")
		return 2
	}
	var selected []workload
	for _, w := range workloads(fullSizing) {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	window := time.Duration(*seconds * float64(time.Second))
	cfg := config{
		seed: *seed, window: window, warm: min(3*time.Second, window/4),
		clients: min(runtime.NumCPU(), maxClients), sz: fullSizing, log: stderr, started: time.Now(),
		minSetups: 3, maxSetups: 50, setupBudget: 1500 * time.Millisecond,
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*out, "tmp-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp

	ok := true
	for _, w := range selected {
		good, err := runWorkload(cfg, w, *traceArg, *out, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		ok = ok && good
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkload runs the requested passes of one workload on one set of
// generated inputs, prints their metrics and writes the result files.
func runWorkload(cfg config, w workload, traceArg, out string, stdout io.Writer) (bool, error) {
	st := stamp{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: cfg.clients, Seed: cfg.seed, WindowS: cfg.window.Seconds(), WarmupS: cfg.warm.Seconds(),
		When: time.Now().UTC().Format(time.RFC3339),
	}
	st.Commit, st.Dirty = gitState()
	cfg.logf("%s: generating inputs from seed %d", w.name, cfg.seed)
	in := generate(w, cfg.sz, cfg.seed)
	res := result{Stamp: st, Workload: w.name}
	ok := true
	if traceArg != "1" {
		p, err := runEndToEnd(cfg, w, in)
		if err != nil {
			return false, err
		}
		res.EndToEnd = p
		printPass(stdout, w.name, p, endToEndDefs, true)
		ok = ok && p.Correct
	}
	if traceArg != "0" {
		p, spans, extra, err := runLadder(cfg, w, in)
		if err != nil {
			return false, err
		}
		res.PerLayer = p
		for _, name := range sortedNames(extra) {
			fmt.Fprintf(stdout, "%s %s %v ratio\n", w.name, name, extra[name])
		}
		if err := writeJSON(filepath.Join(out, "trace-"+w.name+".json"), traceFile{Stamp: st, Workload: w.name, Extra: extra, Spans: spans}); err != nil {
			return false, err
		}
		printPass(stdout, w.name, p, perLayerDefs, false)
		ok = ok && p.Correct
	}
	return ok, writeJSON(filepath.Join(out, w.name+".json"), res)
}

// printPass prints one `workload metric value unit` row per metric, the
// notes of any failed check, and last the result line the driver reads.
func printPass(stdout io.Writer, workload string, p *pass, defs []metricDef, gatedOnly bool) {
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]lineValue `json:"metrics"`
	}{p.Correct, p.Attempted, p.Failed, make(map[string]lineValue)}
	for _, d := range defs {
		v, ok := p.Metrics[d.Name]
		if !ok {
			continue // a metric that does not apply is absent, not zero
		}
		fmt.Fprintf(stdout, "%s %s %v %s\n", workload, d.Name, v, d.Unit)
		if d.gated || !gatedOnly {
			line.Metrics[d.Name] = lineValue{v, d.Unit}
		}
	}
	if pct := p.Info["rknn_tail_percentile"]; pct > 0 {
		// Printed with its sample count; not an end-to-end metric until
		// it is shown to repeat.
		fmt.Fprintf(stdout, "%s rknn_p%v_ms %v ms n=%v\n", workload, pct, p.Info["rknn_tail_ms"], p.Info["reads"])
	}
	for _, note := range p.Notes {
		fmt.Fprintf(stdout, "%s check-failed %s\n", workload, note)
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // NaN or Inf in a metric is a bug in the benchmark
	}
	fmt.Fprintf(stdout, "%s\n", b)
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sortedNames returns the keys of m in order, for stable output.
func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// gitState names the commit the working tree is at, "unknown" outside a
// git checkout (the driver's copy is not one).
func gitState() (commit string, dirty bool) {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, _ := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(head)), len(status) > 0
}
