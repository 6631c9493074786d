package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// specFile is the benchmark definition, read from the repository root.
const specFile = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json the tools read.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict judges one workload × metric from paired runs of the parent
// and the change. wins is the fraction of pairs (i-th parent run, i-th
// change run) the change wins, ties counting for neither side. The label
// is:
//   - improved: the change wins at least 9 pairs in 10 and the medians
//     differ by more than the parent's interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than bound (a share of the parent's median);
//   - unresolved: the parent's own spread exceeds bound, unless every
//     change run beats every parent run;
//   - unchanged: otherwise.
func verdict(parent, change []float64, better string, bound float64) (label string, wins float64) {
	gain := func(p, c float64) float64 { // > 0 when c is better than p
		if better == "higher" {
			return c - p
		}
		return p - c
	}
	pairs := min(len(parent), len(change))
	won := 0
	for i := range pairs {
		if gain(parent[i], change[i]) > 0 {
			won++
		}
	}
	if pairs > 0 {
		wins = float64(won) / float64(pairs)
	}
	q1, pm, q3 := quartiles(parent)
	cm := median(change)
	allBetter := len(parent) > 0 && len(change) > 0
	for _, p := range parent {
		for _, c := range change {
			if gain(p, c) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case pairs > 0 && wins >= 0.9 && gain(pm, cm) > q3-q1:
		return "improved", wins
	case pm != 0 && -gain(pm, cm)/math.Abs(pm) > bound:
		return "regressed", wins
	case pm != 0 && (q3-q1)/math.Abs(pm) > bound && !allBetter:
		return "unresolved", wins
	}
	return "unchanged", wins
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	parent, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	change, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	compare(os.Stdout, spec, parent, change)
	return 0
}

// compare prints, per workload, every end-to-end metric's verdict from
// the untraced runs, then the median per-layer and detail deltas from
// the traced ones.
func compare(w io.Writer, spec *benchSpec, parent, change []*passResult) {
	for _, name := range workloadNames {
		pu, pt := split(parent, name)
		cu, ct := split(change, name)
		if len(pu)+len(cu)+len(pt)+len(ct) == 0 {
			continue
		}
		fmt.Fprintf(w, "== %s: parent %d runs, change %d runs (traced %d / %d)\n", name, len(pu), len(cu), len(pt), len(ct))
		fmt.Fprintf(w, "  %-12s %-30s %-30s %6s %6s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			pv, cv := values(pu, m.Name, e2eOf), values(cu, m.Name, e2eOf)
			label, wins := verdict(pv, cv, m.Better, m.Bound)
			fmt.Fprintf(w, "  %-12s %-30s %-30s %6.2f %6.2f  %s\n", m.Name, quart(pv), quart(cv), wins, m.Bound, label)
		}
		if len(pt) == 0 || len(ct) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-44s %12s %12s %9s\n", "per-layer (traced medians)", "parent", "change", "delta")
		for _, get := range []func(*passResult) map[string]float64{layersOf, detailOf} {
			for _, k := range keysOf(append(pt, ct...), get) {
				p, c := median(values(pt, k, get)), median(values(ct, k, get))
				fmt.Fprintf(w, "  %-44s %12.5g %12.5g %8.1f%%\n", k, p, c, 100*ratio(c-p, math.Abs(p)))
			}
		}
	}
}

func e2eOf(p *passResult) map[string]float64    { return p.E2E }
func layersOf(p *passResult) map[string]float64 { return p.Layers }
func detailOf(p *passResult) map[string]float64 { return p.Detail }

// split returns a workload's untraced and traced records.
func split(rs []*passResult, workload string) (untraced, traced []*passResult) {
	for _, r := range rs {
		switch {
		case r.Workload != workload:
		case r.Traced:
			traced = append(traced, r)
		default:
			untraced = append(untraced, r)
		}
	}
	return untraced, traced
}

func values(rs []*passResult, key string, get func(*passResult) map[string]float64) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := get(r)[key]; ok {
			out = append(out, v)
		}
	}
	return out
}

func keysOf(rs []*passResult, get func(*passResult) map[string]float64) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rs {
		for k := range get(r) {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

func quart(vs []float64) string {
	if len(vs) == 0 {
		return "-"
	}
	q1, m, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", m, q1, q3)
}
