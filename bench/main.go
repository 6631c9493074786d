// Command bench is the end-to-end and per-layer benchmark of antennad.
// It starts the antennad binary built from the checkout on loopback,
// drives one workload over the HTTP API, checks every answer, and prints
// the metrics BENCHMARK.json declares, one JSON object on the last line.
//
// Run it from the repository root through bench/run.sh, which builds
// both binaries first:
//
//	bash bench/run.sh --workload orient-mixed --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh run -repeat 5 -seed 1 -out runs.jsonl -baseline bench/BASELINE.json
//	bash bench/run.sh compare parent.jsonl change.jsonl
//
// --trace 1 runs the workload twice, untraced and then traced against a
// server with its debug listener on, and reports the per-layer metrics
// instead of the end-to-end ones. See bench/README.md for the workloads,
// every metric's definition, and how to read a comparison.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "run":
			os.Exit(repeatMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	antennad string
	workDir  string
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg runConfig
	var trace int
	var out string
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed (1 is the dev seed, 2 the holdout)")
	fs.IntVar(&cfg.seconds, "seconds", 16, "length of the timed window (BENCHMARK.json's run_seconds)")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced pass")
	fs.StringVar(&cfg.antennad, "antennad", ".bench_build/antennad", "antennad binary to benchmark")
	fs.StringVar(&cfg.workDir, "work", ".bench_build", "directory for server data")
	fs.StringVar(&out, "out", "", "append each pass's full record to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	cfg.traced = trace == 1
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	passes, metrics, err := measure(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	attempted, failed := 0, 0
	for _, p := range passes {
		report(os.Stdout, p)
		attempted += p.Attempted
		failed += p.Failed
		for _, f := range p.Failures {
			fmt.Fprintln(os.Stderr, "bench: FAILED", f)
		}
	}
	if out != "" {
		if err := appendRecords(out, passes); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]value{}}
	defs := e2eMetrics
	if cfg.traced {
		defs = layerMetrics
	}
	for _, d := range defs {
		line.Metrics[d.name] = value{metrics[d.name], d.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(data))
	if failed > 0 {
		return 1
	}
	return 0
}

// measure runs the untraced pass and, for --trace 1, the traced pass
// after it. It returns the passes and the metrics to report: the
// untraced end-to-end ones, or the traced per-layer ones with the
// tracing overhead on each end-to-end metric.
func measure(ctx context.Context, cfg runConfig) ([]*passResult, map[string]float64, error) {
	if _, err := os.Stat(cfg.antennad); err != nil {
		return nil, nil, fmt.Errorf("antennad binary: %w", err)
	}
	plain, err := onePass(ctx, cfg, false)
	if err != nil {
		return nil, nil, err
	}
	if !cfg.traced {
		return []*passResult{plain}, plain.E2E, nil
	}
	traced, err := onePass(ctx, cfg, true)
	if err != nil {
		return nil, nil, err
	}
	m := map[string]float64{}
	for k, v := range traced.Layers {
		m[k] = v
	}
	for _, d := range e2eMetrics {
		m["bench.trace_overhead."+d.name] = ratio(traced.E2E[d.name], plain.E2E[d.name]) - 1
	}
	return []*passResult{plain, traced}, m, nil
}

func onePass(ctx context.Context, cfg runConfig, traced bool) (*passResult, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	runDir, err := filepath.Abs(filepath.Join(cfg.workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	srv, err := newProcServer(cfg.antennad, filepath.Join(runDir, "data"), w.config(), traced)
	if err != nil {
		return nil, err
	}
	res, err := runPass(ctx, cfg.workload, w, srv, cfg.seconds, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res.Seed = cfg.seed
	return res, nil
}

// report prints a pass in readable form: every class with its sample
// count and the highest percentile it supports, then the metrics.
func report(w io.Writer, p *passResult) {
	mode := "untraced"
	if p.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed=%d window=%ds %s: %d attempted, %d failed\n",
		p.Workload, p.Seed, p.Seconds, mode, p.Attempted, p.Failed)
	fmt.Fprintf(w, "  %-10s %7s %10s %10s %8s\n", "class", "n", "p50_ms", "p90_ms", "highest")
	for _, c := range p.Classes {
		p90 := "-"
		if c.P90 > 0 {
			p90 = fmt.Sprintf("%.3f", c.P90)
		}
		fmt.Fprintf(w, "  %-10s %7d %10.3f %10s %7gp\n", c.Class, c.N, c.P50, p90, 100*c.Highest)
	}
	printMap(w, "e2e", p.E2E)
	printMap(w, "layer", p.Layers)
	printMap(w, "detail", p.Detail)
}

func printMap(w io.Writer, label string, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-6s %-40s %.6g\n", label, k, m[k])
	}
}

func appendRecords(path string, passes []*passResult) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, p := range passes {
		if err := enc.Encode(p); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// readRecords loads the pass records of a JSONL file.
func readRecords(path string) ([]*passResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*passResult
	dec := json.NewDecoder(f)
	for {
		var p passResult
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &p)
	}
}
