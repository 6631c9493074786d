package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
)

// baseline is the record `run -repeat` writes: for each workload ×
// end-to-end metric, the median and quartiles of the repeated runs, as a
// share of the median next to the metric's bound.
type baseline struct {
	Nproc     int                                `json:"nproc"`
	Seeds     map[string]int64                   `json:"seeds"`
	Seed      int64                              `json:"seed"`
	Seconds   int                                `json:"seconds"`
	Repeat    int                                `json:"repeat"`
	Commands  []string                           `json:"commands"`
	Workloads map[string]map[string]baselineStat `json:"workloads"`
}

type baselineStat struct {
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	IQRFrac float64 `json:"iqr_frac"`
	Bound   float64 `json:"bound"`
}

// Seeds: inputs are tuned on the dev seed; claims must also hold on the
// holdout seed.
const (
	devSeed     = 1
	holdoutSeed = 2
)

func repeatMain(args []string) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	cfg := runConfig{antennad: ".bench_build/antennad", workDir: ".bench_build"}
	repeat := fs.Int("repeat", 5, "runs per workload")
	fs.Int64Var(&cfg.seed, "seed", devSeed, "input seed")
	out := fs.String("out", "", "append every run's record to this JSONL file")
	basePath := fs.String("baseline", "", "write the median/IQR summary here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg.seconds = spec.RunSeconds
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var all []*passResult
	failed := 0
	for i := range *repeat {
		// Alternate the visiting order so no workload always runs
		// right after the same neighbour.
		order := slices.Clone(workloadNames)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			cfg.workload = name
			p, err := onePass(ctx, cfg, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			report(os.Stdout, p)
			failed += p.Failed
			all = append(all, p)
			if *out != "" {
				if err := appendRecords(*out, []*passResult{p}); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
			}
		}
	}

	b := baseline{
		Nproc: runtime.NumCPU(), Seeds: map[string]int64{"dev": devSeed, "holdout": holdoutSeed},
		Seed: cfg.seed, Seconds: cfg.seconds, Repeat: *repeat,
		Commands: []string{
			fmt.Sprintf("bash bench/run.sh run -repeat %d -seed %d", *repeat, cfg.seed),
			fmt.Sprintf("bash bench/run.sh --workload <name> --seed %d --seconds %d --trace 0", cfg.seed, cfg.seconds),
		},
		Workloads: map[string]map[string]baselineStat{},
	}
	for _, name := range workloadNames {
		runs, _ := split(all, name)
		stats := map[string]baselineStat{}
		fmt.Printf("== %s baseline over %d runs\n", name, len(runs))
		for _, m := range spec.EndToEnd {
			vs := values(runs, m.Name, e2eOf)
			q1, med, q3 := quartiles(vs)
			st := baselineStat{Median: med, Q1: q1, Q3: q3, IQRFrac: ratio(q3-q1, med), Bound: m.Bound}
			stats[m.Name] = st
			fmt.Printf("  %-12s median %-10.5g IQR/median %.3f (bound %.2f)\n", m.Name, med, st.IQRFrac, m.Bound)
		}
		b.Workloads[name] = stats
	}
	if *basePath != "" {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false) // keep "<name>" in the command lines readable
		enc.SetIndent("", "  ")
		err := enc.Encode(b)
		if err == nil {
			err = os.WriteFile(*basePath, buf.Bytes(), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
