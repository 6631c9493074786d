// Command benchjson turns `go test -bench` output into the JSON rows of
// BENCH_baseline.json and audits committed benchmark files in CI. The
// *_test.go benchmarks are the only benchmark bodies; benchjson never
// runs code of its own.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . ./internal/obs | benchjson [-o BENCH_baseline.json]
//	benchjson -check-fleet BENCH_fleet.json
//	benchjson -check-scaling BENCH_baseline.json [-max-growth 25]
//	benchjson -check-repair BENCH_baseline.json
//
// With no -check-* flag, benchjson echoes standard input to standard
// output and parses it: the goos/goarch headers, and one row per
// `Benchmark<name>-<procs> N value unit ...` line. ns/op, B/op and
// allocs/op fill the row's fixed fields; any other unit (a
// b.ReportMetric value such as BenchmarkTable1's paper-bound) lands in
// its metrics map. The -<procs> suffix go test appends is stripped and
// recorded as gomaxprocs (no suffix means 1). A failed test or
// benchmark, a duplicate or malformed row, a row without the -benchmem
// columns, mixed suffixes, or no rows at all fail the run before the
// output file is written, so a broken pipe never leaves a partial
// baseline. go test's own -bench and -benchtime choose the rows and the
// budget.
//
// -check-fleet validates a fleetsim soak file: every row must decode
// strictly (unknown fields rejected) against the fleet report schema
// (fleet/v1 and fleet/v2 are accepted; a v2 row must carry the
// server-side /orient histogram summary, which v1 rows predate) — the
// CI gate that keeps BENCH_fleet.json
// machine-readable as the format evolves.
//
// -check-scaling audits a baseline file's scaling series (benches named
// <prefix>/n=<size>): across every whole-decade step the ns/op growth
// must stay at or below -max-growth, the CI gate that catches an
// accidentally superlinear substrate before it ships.
//
// -check-repair audits the BenchmarkRepairScaling rows: for every
// class/n pair above n=10000 the incremental-repair ns/op must beat the
// full-solve ns/op, and at least one such pair must exist — the CI gate
// that keeps live-instance repair worth having at scale.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
)

// checkFleet strictly validates a BENCH_fleet.json row array. Any
// unknown field, unknown schema tag, or malformed row fails the file.
func checkFleet(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("%s: not a row array: %w", path, err)
	}
	if len(raw) == 0 {
		return fmt.Errorf("%s: no rows", path)
	}
	for i, row := range raw {
		dec := json.NewDecoder(bytes.NewReader(row))
		dec.DisallowUnknownFields()
		var rep fleet.Report
		if err := dec.Decode(&rep); err != nil {
			return fmt.Errorf("%s: row %d does not match the %s schema: %w", path, i, fleet.Schema, err)
		}
		// fleet/v1 rows predate the server-side stats and remain valid;
		// every v2 writer fills at least the /orient view.
		switch rep.Schema {
		case fleet.SchemaV1:
		case fleet.Schema:
			if rep.Server == nil || rep.Server.Orient == nil {
				return fmt.Errorf("%s: row %d is %s but has no server orient view", path, i, rep.Schema)
			}
		default:
			return fmt.Errorf("%s: row %d has schema %q, want %q or %q", path, i, rep.Schema, fleet.Schema, fleet.SchemaV1)
		}
		if rep.Totals.Ops == 0 {
			return fmt.Errorf("%s: row %d records no operations", path, i)
		}
	}
	fmt.Printf("%s: %d rows, schema %s/%s ok\n", path, len(raw), fleet.SchemaV1, fleet.Schema)
	return nil
}

// checkScaling audits the per-decade growth of every scaling series in a
// baseline file. Benches named `<prefix>/n=<size>` with the same prefix
// form a series; for each consecutive pair at sizes (n, 10n) the ns/op
// ratio must stay at or below maxGrowth. An O(n log n) substrate lands
// near 11–13× per decade, an accidental O(n²) regression near 100×, so
// the gate separates them with room for runner noise on either side.
func checkScaling(path string, maxGrowth float64) error {
	base, err := loadBaseline(path)
	if err != nil {
		return err
	}
	type point struct {
		n  int
		ns float64
	}
	series := make(map[string][]point)
	var order []string
	for _, e := range base.Benches {
		i := strings.LastIndex(e.Name, "/n=")
		if i < 0 {
			continue
		}
		n, err := strconv.Atoi(e.Name[i+3:])
		if err != nil || n <= 0 {
			continue
		}
		prefix := e.Name[:i]
		if _, seen := series[prefix]; !seen {
			order = append(order, prefix)
		}
		series[prefix] = append(series[prefix], point{n: n, ns: e.NsPerOp})
	}
	checked := 0
	for _, prefix := range order {
		pts := series[prefix]
		sort.Slice(pts, func(a, b int) bool { return pts[a].n < pts[b].n })
		for i := 1; i < len(pts); i++ {
			lo, hi := pts[i-1], pts[i]
			if hi.n != 10*lo.n || lo.ns <= 0 {
				continue // only whole-decade steps are gated
			}
			growth := hi.ns / lo.ns
			status := "ok"
			if growth > maxGrowth {
				status = "FAIL"
			}
			fmt.Printf("%-34s n=%-8d -> n=%-8d growth %6.1fx (max %.1fx) %s\n",
				prefix, lo.n, hi.n, growth, maxGrowth, status)
			if growth > maxGrowth {
				return fmt.Errorf("%s grows %.1fx from n=%d to n=%d (max %.1fx): superlinear regression",
					prefix, growth, lo.n, hi.n, maxGrowth)
			}
			checked++
		}
	}
	if checked == 0 {
		return fmt.Errorf("%s: no whole-decade scaling pairs found", path)
	}
	fmt.Printf("%s: %d decade steps within %.1fx\n", path, checked, maxGrowth)
	return nil
}

// checkRepair audits the repair-vs-full rows (benches named
// BenchmarkRepairScaling/<class>/<repair|full>/n=<size>): every pair
// above n=10000 must have the repair side strictly faster, and at least
// one gated pair must exist. Pairs at or below n=10000 are printed for
// context but not gated — at small n a full solve is cheap enough that
// repair's constant costs can tie it without being a regression.
func checkRepair(path string) error {
	base, err := loadBaseline(path)
	if err != nil {
		return err
	}
	const prefix = "BenchmarkRepairScaling/"
	type pair struct{ repair, full float64 }
	pairs := make(map[string]*pair)
	var order []string
	for _, e := range base.Benches {
		rest, ok := strings.CutPrefix(e.Name, prefix)
		if !ok {
			continue
		}
		parts := strings.Split(rest, "/") // class, mode, n=<size>
		if len(parts) != 3 {
			return fmt.Errorf("%s: malformed repair bench name %q", path, e.Name)
		}
		key := parts[0] + "/" + parts[2]
		p, seen := pairs[key]
		if !seen {
			p = &pair{}
			pairs[key] = p
			order = append(order, key)
		}
		switch parts[1] {
		case "repair":
			p.repair = e.NsPerOp
		case "full":
			p.full = e.NsPerOp
		default:
			return fmt.Errorf("%s: unknown repair mode in %q", path, e.Name)
		}
	}
	gated := 0
	for _, key := range order {
		p := pairs[key]
		if p.repair <= 0 || p.full <= 0 {
			return fmt.Errorf("%s: repair pair %s is missing a side", path, key)
		}
		i := strings.LastIndex(key, "/n=")
		n, err := strconv.Atoi(key[i+3:])
		if err != nil || n <= 0 {
			return fmt.Errorf("%s: bad size in repair pair %s", path, key)
		}
		speedup := p.full / p.repair
		if n <= 10000 {
			fmt.Printf("%-24s repair %12.0f ns/op  full %12.0f ns/op  %6.1fx (not gated)\n",
				key, p.repair, p.full, speedup)
			continue
		}
		status := "ok"
		if p.repair >= p.full {
			status = "FAIL"
		}
		fmt.Printf("%-24s repair %12.0f ns/op  full %12.0f ns/op  %6.1fx %s\n",
			key, p.repair, p.full, speedup, status)
		if p.repair >= p.full {
			return fmt.Errorf("%s: %s: incremental repair (%0.f ns/op) does not beat the full solve (%0.f ns/op)",
				path, key, p.repair, p.full)
		}
		gated++
	}
	if gated == 0 {
		return fmt.Errorf("%s: no repair pairs above n=10000 to gate", path)
	}
	fmt.Printf("%s: %d repair pairs beat their full solves\n", path, gated)
	return nil
}

// Entry is one benchmark measurement.
type Entry struct {
	Name     string             `json:"name"`
	NsPerOp  float64            `json:"ns_per_op"`
	Iters    int                `json:"iterations"`
	AllocsOp int64              `json:"allocs_per_op"`
	BytesOp  int64              `json:"bytes_per_op"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the file layout of BENCH_baseline.json.
type Baseline struct {
	GoOS      string  `json:"goos"`
	GoArch    string  `json:"goarch"`
	GoMaxProc int     `json:"gomaxprocs"`
	Timestamp string  `json:"timestamp"`
	Benches   []Entry `json:"benches"`
}

// loadBaseline reads a BENCH_baseline.json-shaped file.
func loadBaseline(path string) (Baseline, error) {
	var base Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("%s: %w", path, err)
	}
	return base, nil
}

// parse reads `go test -bench -benchmem` output into a Baseline; the
// package comment lists what it rejects.
func parse(r io.Reader) (Baseline, error) {
	base := Baseline{GoMaxProc: -1}
	seen := make(map[string]bool)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "FAIL") || strings.Contains(line, "--- FAIL") {
			return Baseline{}, fmt.Errorf("benchmark run failed: %s", line)
		}
		if v, ok := strings.CutPrefix(line, "goos: "); ok {
			base.GoOS = v
		} else if v, ok := strings.CutPrefix(line, "goarch: "); ok {
			base.GoArch = v
		} else if strings.HasPrefix(line, "Benchmark") {
			e, procs, err := parseRow(line)
			if err != nil {
				return Baseline{}, err
			}
			if base.GoMaxProc >= 0 && procs != base.GoMaxProc {
				return Baseline{}, fmt.Errorf("%s: GOMAXPROCS suffix -%d, earlier rows had -%d", e.Name, procs, base.GoMaxProc)
			}
			if seen[e.Name] {
				return Baseline{}, fmt.Errorf("duplicate row %s", e.Name)
			}
			base.GoMaxProc = procs
			seen[e.Name] = true
			base.Benches = append(base.Benches, e)
		}
	}
	if err := sc.Err(); err != nil {
		return Baseline{}, err
	}
	if len(base.Benches) == 0 {
		return Baseline{}, fmt.Errorf("no benchmark rows in the input")
	}
	return base, nil
}

// parseRow parses one `Benchmark<name>[-procs] N value unit ...` line.
func parseRow(line string) (Entry, int, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Entry{}, 0, fmt.Errorf("malformed benchmark row %q", line)
	}
	e := Entry{Name: f[0]}
	procs := 1
	if i := strings.LastIndexByte(e.Name, '-'); i >= 0 {
		if p, err := strconv.Atoi(e.Name[i+1:]); err == nil && p > 0 {
			e.Name, procs = e.Name[:i], p
		}
	}
	var err error
	if e.Iters, err = strconv.Atoi(f[1]); err != nil {
		return Entry{}, 0, fmt.Errorf("malformed benchmark row %q", line)
	}
	var hasNs, hasBytes, hasAllocs bool
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Entry{}, 0, fmt.Errorf("malformed benchmark row %q", line)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			e.NsPerOp, hasNs = v, true
		case "B/op":
			e.BytesOp, hasBytes = int64(v), true
		case "allocs/op":
			e.AllocsOp, hasAllocs = int64(v), true
		default:
			if e.Metrics == nil {
				e.Metrics = make(map[string]float64)
			}
			e.Metrics[unit] = v
		}
	}
	if !hasNs || !hasBytes || !hasAllocs {
		return Entry{}, 0, fmt.Errorf("%s: row lacks ns/op, B/op or allocs/op (run go test with -benchmem)", e.Name)
	}
	return e, procs, nil
}

// record parses benchmark output from r and writes it to path as JSON.
func record(r io.Reader, path string) error {
	base, err := parse(r)
	if err != nil {
		return err
	}
	base.Timestamp = time.Now().UTC().Format(time.RFC3339)
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d rows to %s\n", len(base.Benches), path)
	return nil
}

func main() {
	out := flag.String("o", "BENCH_baseline.json", "output file for the parsed go test -bench rows")
	fleetFile := flag.String("check-fleet", "", "validate this fleetsim soak file against the fleet report schema and exit")
	scalingFile := flag.String("check-scaling", "", "audit the per-decade growth of the scaling series in this baseline file and exit")
	maxGrowth := flag.Float64("max-growth", 25, "largest allowed ns/op growth per 10x n step for -check-scaling")
	repairFile := flag.String("check-repair", "", "audit this baseline file's repair-vs-full pairs (repair must win above n=10000) and exit")
	flag.Parse()
	var err error
	switch {
	case *fleetFile != "":
		err = checkFleet(*fleetFile)
	case *scalingFile != "":
		err = checkScaling(*scalingFile, *maxGrowth)
	case *repairFile != "":
		err = checkRepair(*repairFile)
	default:
		// Echo the go test output so a piped run still shows progress.
		err = record(io.TeeReader(os.Stdin, os.Stdout), *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
