// Command benchjson runs the tier-1 substrate benchmarks in-process (via
// testing.Benchmark, no go-test subprocess) and writes the results as
// JSON, establishing the perf trajectory future PRs are measured against.
//
// Usage:
//
//	benchjson [-o BENCH_baseline.json] [-benchtime 1s] [-only REGEX]
//	benchjson -check-fleet BENCH_fleet.json
//	benchjson -check-scaling BENCH_baseline.json [-max-growth 25]
//	benchjson -check-repair BENCH_baseline.json
//
// -only restricts the run to benchmarks whose name matches the regexp —
// handy for refreshing one family of rows without re-running the n=10⁶
// series (merge the resulting file's benches by hand or with jq).
//
// -check-fleet validates a fleetsim soak file instead of running the
// benchmarks: every row must decode strictly (unknown fields rejected)
// against the fleet report schema (fleet/v1 and fleet/v2 are accepted;
// v2 adds optional server-side histogram summaries) — the CI gate that
// keeps BENCH_fleet.json machine-readable as the format evolves.
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
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/fleet"
	"repro/internal/geom"
	"repro/internal/instance"
	"repro/internal/mst"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/pointset"
	"repro/internal/service"
	"repro/internal/solution"
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
		// fleet/v1 rows predate the optional server-side stats and remain
		// valid; v2 is the current writer.
		if rep.Schema != fleet.Schema && rep.Schema != fleet.SchemaV1 {
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
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
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
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
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

// benchPoints mirrors the deterministic workload generator of the root
// bench suite (same seed formula), so numbers here are comparable with
// `go test -bench`.
func benchPoints(n int) []geom.Point {
	rng := rand.New(rand.NewSource(int64(n) + 4242))
	return pointset.Uniform(rng, n, math.Sqrt(float64(n)))
}

// churnBatch mirrors BenchmarkInstanceChurn's sensor-churn batch: two
// local drifts, one join, one failure.
func churnBatch(rng *rand.Rand, cur []geom.Point, side float64) []solution.PointOp {
	drift := func() solution.PointOp {
		i := rng.Intn(len(cur))
		p := cur[i]
		return solution.PointOp{Op: solution.OpMove, Index: i,
			X: math.Min(math.Max(p.X+rng.NormFloat64(), 0), side),
			Y: math.Min(math.Max(p.Y+rng.NormFloat64(), 0), side)}
	}
	return []solution.PointOp{
		drift(),
		drift(),
		{Op: solution.OpAdd, X: rng.Float64() * side, Y: rng.Float64() * side},
		{Op: solution.OpRemove, Index: rng.Intn(len(cur))},
	}
}

// Entry is one benchmark measurement.
type Entry struct {
	Name     string  `json:"name"`
	NsPerOp  float64 `json:"ns_per_op"`
	Iters    int     `json:"iterations"`
	AllocsOp int64   `json:"allocs_per_op"`
	BytesOp  int64   `json:"bytes_per_op"`
}

// Baseline is the file layout of BENCH_baseline.json.
type Baseline struct {
	GoOS      string  `json:"goos"`
	GoArch    string  `json:"goarch"`
	GoMaxProc int     `json:"gomaxprocs"`
	Timestamp string  `json:"timestamp"`
	Benches   []Entry `json:"benches"`
}

func main() {
	testing.Init() // register test.* flags so the benchtime budget is settable
	out := flag.String("o", "BENCH_baseline.json", "output file")
	benchtime := flag.Duration("benchtime", time.Second, "target time per benchmark")
	fleetFile := flag.String("check-fleet", "", "validate this fleetsim soak file against the fleet report schema and exit")
	scalingFile := flag.String("check-scaling", "", "audit the per-decade growth of the scaling series in this baseline file and exit")
	maxGrowth := flag.Float64("max-growth", 25, "largest allowed ns/op growth per 10x n step for -check-scaling")
	repairFile := flag.String("check-repair", "", "audit this baseline file's repair-vs-full pairs (repair must win above n=10000) and exit")
	only := flag.String("only", "", "run only benchmarks whose name matches this regexp")
	flag.Parse()
	if *fleetFile != "" {
		if err := checkFleet(*fleetFile); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *scalingFile != "" {
		if err := checkScaling(*scalingFile, *maxGrowth); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *repairFile != "" {
		if err := checkRepair(*repairFile); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	type bench struct {
		name string
		fn   func(b *testing.B)
	}
	benches := []bench{
		{"BenchmarkMST/prim/n=4000", func(b *testing.B) {
			pts := benchPoints(4000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mst.Prim(pts)
			}
		}},
		{"BenchmarkMST/kruskal/n=4000", func(b *testing.B) {
			pts := benchPoints(4000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mst.Kruskal(pts)
			}
		}},
		{"BenchmarkMST/delaunay/n=4000", func(b *testing.B) {
			pts := benchPoints(4000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mst.Delaunay(pts)
			}
		}},
		{"BenchmarkInducedDigraph/n=2000", func(b *testing.B) {
			pts := benchPoints(2000)
			asg, _, err := core.Orient(pts, 2, math.Pi)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				asg.InducedDigraph()
			}
		}},
	}
	for _, n := range []int{1000, 10000, 100000, 1000000} {
		n := n
		benches = append(benches, bench{
			fmt.Sprintf("BenchmarkDelaunayScaling/n=%d", n),
			func(b *testing.B) {
				pts := benchPoints(n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := delaunay.Build(pts); err != nil {
						b.Fatal(err)
					}
				}
			},
		})
	}
	// Full verified solves across decades up to n=10⁶: orient at the
	// representative cover budget plus the independent verifier, with the
	// EMST bottleneck prefetched concurrently — the single-solve scaling
	// trajectory the -check-scaling gate audits.
	for _, n := range []int{10000, 100000, 1000000} {
		n := n
		benches = append(benches, bench{
			fmt.Sprintf("BenchmarkSolveScaling/cover/n=%d", n),
			func(b *testing.B) {
				pts := benchPoints(n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					eng := service.NewEngine(service.Options{}) // fresh cache each round
					b.StartTimer()
					sol, _, err := eng.Solve(context.Background(),
						service.Request{Pts: pts, K: 2, Phi: core.Phi2Full, Algo: "cover"})
					if err != nil {
						b.Fatal(err)
					}
					if len(sol.VerifyErrors) > 0 {
						b.Fatalf("verification failed: %v", sol.VerifyErrors)
					}
				}
			},
		})
	}
	// Engine-layer entries: planner overhead (a-priori selection across
	// the portfolio grid) and the cache-hit hot path the antennad server
	// serves repeated requests from.
	benches = append(benches,
		bench{"BenchmarkPlanner/grid", func(b *testing.B) {
			var p plan.Planner
			budgets := core.PortfolioBudgets()
			objs := []plan.Objective{
				{Conn: core.ConnStrong, Minimize: plan.MinStretch},
				{Conn: core.ConnSymmetric, Minimize: plan.MinStretch},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, obj := range objs {
					for _, kp := range budgets {
						_, _ = p.Plan(obj, kp.K, kp.Phi)
					}
				}
			}
		}},
		bench{"BenchmarkEngine/cache-hit/n=2000", func(b *testing.B) {
			eng := service.NewEngine(service.Options{})
			req := service.Request{Pts: benchPoints(2000), K: 2, Phi: math.Pi, Algo: "table1"}
			if _, _, err := eng.Solve(context.Background(), req); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, src, err := eng.Solve(context.Background(), req); err != nil || src != service.SourceMemory {
					b.Fatalf("src=%v err=%v", src, err)
				}
			}
		}},
		bench{"BenchmarkEngine/store-hit/n=2000", func(b *testing.B) {
			dir, err := os.MkdirTemp("", "benchstore")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			seedStore, err := solution.OpenStore(dir, 0)
			if err != nil {
				b.Fatal(err)
			}
			req := service.Request{Pts: benchPoints(2000), K: 2, Phi: math.Pi, Algo: "table1"}
			if _, _, err := service.NewEngine(service.Options{Store: seedStore}).Solve(context.Background(), req); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, err := solution.OpenStore(dir, 0)
				if err != nil {
					b.Fatal(err)
				}
				eng := service.NewEngine(service.Options{Store: st}) // cold L1, warm disk
				b.StartTimer()
				if _, src, err := eng.Solve(context.Background(), req); err != nil || src != service.SourceDisk {
					b.Fatalf("src=%v err=%v", src, err)
				}
			}
		}},
	)
	// Live-instance churn: a small drift/join/fail batch served by the
	// incremental repair path vs the same batch with repair disabled (a
	// full engine solve per revision) — the headline numbers of the
	// streaming-churn scenario class. The wal=* variants rerun the repair
	// mode with the write-ahead log on at each fsync policy; wal=interval
	// (the production default) must stay within 1.5× of the no-WAL
	// repair baseline.
	churnModes := []struct {
		name      string
		threshold float64
		want      string
		wal       instance.SyncPolicy
	}{
		{"repair", 0, instance.RepairIncremental, ""},
		{"repair/wal=always", 0, instance.RepairIncremental, instance.SyncAlways},
		{"repair/wal=interval", 0, instance.RepairIncremental, instance.SyncInterval},
		{"repair/wal=off", 0, instance.RepairIncremental, instance.SyncOff},
		{"full-solve", -1, instance.RepairFull, ""},
	}
	for _, mode := range churnModes {
		mode := mode
		benches = append(benches, bench{
			"BenchmarkInstanceChurn/" + mode.name + "/n=2000",
			func(b *testing.B) {
				opts := service.Options{RepairThreshold: mode.threshold}
				var walDir string
				if mode.wal != "" {
					dir, err := os.MkdirTemp("", "benchwal")
					if err != nil {
						b.Fatal(err)
					}
					walDir = dir
					opts.InstanceWAL = &instance.WALConfig{Dir: dir, Policy: mode.wal}
				}
				eng := service.NewEngine(opts)
				m := service.NewInstanceManager(eng)
				defer func() {
					m.Close()
					if walDir != "" {
						os.RemoveAll(walDir)
					}
				}()
				pts := benchPoints(2000)
				side := math.Sqrt(2000)
				budget := instance.Budget{K: 2, Phi: core.Phi2Full, Algo: "cover"}
				if _, err := m.Create(context.Background(), "churn", pts, budget); err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(31007))
				cur := append([]geom.Point(nil), pts...)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					ops := churnBatch(rng, cur, side)
					b.StartTimer()
					snap, err := m.Apply(context.Background(), "churn", 0, ops)
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if cur, err = solution.ApplyPointOps(cur, ops); err != nil {
						b.Fatal(err)
					}
					if snap.Repair != mode.want {
						b.Fatalf("iteration %d served %q, want %q", i, snap.Repair, mode.want)
					}
					b.StartTimer()
				}
			},
		})
	}
	// Repair-vs-full pairs per repair class (emst = the cover rule, tour =
	// the bottleneck cycle, bats = the one-wedge regime), at a small and a
	// beyond-threshold size: the same churn batch served by the class's
	// incremental repair and, with repair disabled, by a full engine solve.
	// The -check-repair gate requires the repair side to win above
	// n=10000. The repair rows tolerate an occasional dirty-threshold or
	// 2-opt fallback (cheap full solves only *raise* the measured ns/op,
	// so the gate stays honest) but fail if repairs stop being the norm.
	repairRows := []struct {
		class  string
		budget instance.Budget
	}{
		{"emst", instance.Budget{K: 2, Phi: core.Phi2Full, Algo: "cover"}},
		{"tour", instance.Budget{K: 1, Phi: 0, Algo: "tour"}},
		{"bats", instance.Budget{K: 1, Phi: core.Phi1Full, Algo: "bats"}},
	}
	for _, row := range repairRows {
		for _, n := range []int{2000, 20000} {
			for _, mode := range []struct {
				name      string
				threshold float64
			}{{"repair", 0}, {"full", -1}} {
				row, n, mode := row, n, mode
				benches = append(benches, bench{
					fmt.Sprintf("BenchmarkRepairScaling/%s/%s/n=%d", row.class, mode.name, n),
					func(b *testing.B) {
						eng := service.NewEngine(service.Options{RepairThreshold: mode.threshold})
						m := service.NewInstanceManager(eng)
						defer m.Close()
						pts := benchPoints(n)
						side := math.Sqrt(float64(n))
						if _, err := m.Create(context.Background(), "rs", pts, row.budget); err != nil {
							b.Fatal(err)
						}
						rng := rand.New(rand.NewSource(31007))
						cur := append([]geom.Point(nil), pts...)
						repaired := 0
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							b.StopTimer()
							ops := churnBatch(rng, cur, side)
							b.StartTimer()
							snap, err := m.Apply(context.Background(), "rs", 0, ops)
							if err != nil {
								b.Fatal(err)
							}
							b.StopTimer()
							if cur, err = solution.ApplyPointOps(cur, ops); err != nil {
								b.Fatal(err)
							}
							if snap.Repair == instance.RepairIncremental {
								repaired++
							}
							if mode.threshold < 0 && snap.Repair != instance.RepairFull {
								b.Fatalf("iteration %d served %q with repair disabled", i, snap.Repair)
							}
							b.StartTimer()
						}
						if mode.threshold == 0 && repaired*5 < b.N*4 {
							b.Fatalf("only %d of %d batches repaired incrementally", repaired, b.N)
						}
					},
				})
			}
		}
	}
	// Crash-recovery replay: one instance at n=2000 with 64 churn
	// revisions in its write-ahead log, recovered from disk per iteration
	// — the startup cost a crashed antennad pays per surviving instance.
	benches = append(benches, bench{
		"BenchmarkInstanceRecovery/n=2000/revs=64",
		func(b *testing.B) {
			dir, err := os.MkdirTemp("", "benchrecover")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			eng := service.NewEngine(service.Options{})
			cfg := func() instance.Config {
				return instance.Config{
					Solve: eng.InstanceSolver(),
					WAL:   &instance.WALConfig{Dir: dir, Policy: instance.SyncOff, MaxLogBytes: 64 << 20},
				}
			}
			m := instance.NewManager(cfg())
			pts := benchPoints(2000)
			side := math.Sqrt(2000)
			if _, err := m.Create(context.Background(), "churn", pts, instance.Budget{K: 2, Phi: core.Phi2Full, Algo: "cover"}); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(31007))
			cur := append([]geom.Point(nil), pts...)
			for r := 0; r < 64; r++ {
				ops := churnBatch(rng, cur, side)
				if _, err := m.Apply(context.Background(), "churn", 0, ops); err != nil {
					b.Fatal(err)
				}
				if cur, err = solution.ApplyPointOps(cur, ops); err != nil {
					b.Fatal(err)
				}
			}
			if err := m.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m2 := instance.NewManager(cfg())
				cnt, err := m2.Recover(context.Background())
				if err != nil || cnt != 1 {
					b.Fatalf("recovered %d instances, err %v", cnt, err)
				}
				b.StopTimer()
				m2.Close()
				b.StartTimer()
			}
		},
	})
	// One bench per registered orienter at its representative budget: the
	// portfolio's perf trajectory.
	for _, o := range core.Orienters() {
		o := o
		info := o.Info()
		benches = append(benches, bench{
			fmt.Sprintf("BenchmarkOrienter/%s/n=2000", info.Name),
			func(b *testing.B) {
				pts := benchPoints(2000)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := o.Orient(pts, info.RepK, info.RepPhi); err != nil {
						b.Fatal(err)
					}
				}
			},
		})
	}

	// Observability substrate: the per-span cost on the two paths every
	// request-phase site pays (no trace on the context — the benchmark
	// and batch paths — versus a live trace), and one histogram observe.
	// These bound the tracing tax the overhead budget test enforces.
	benches = append(benches,
		bench{"BenchmarkObsSpan/untraced", func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, end := obs.StartSpan(ctx, "phase")
				end()
			}
		}},
		bench{"BenchmarkObsSpan/traced", func(b *testing.B) {
			tr := obs.NewTrace("bench")
			ctx := obs.WithTrace(context.Background(), tr)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, end := obs.StartSpan(ctx, "phase")
				end()
				if i%4096 == 4095 { // keep the span buffer bounded
					b.StopTimer()
					tr = obs.NewTrace("bench")
					ctx = obs.WithTrace(context.Background(), tr)
					b.StartTimer()
				}
			}
		}},
		bench{"BenchmarkHistogramObserve", func(b *testing.B) {
			h := obs.NewHistogram(obs.LatencyBuckets())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Observe(0.0042)
			}
		}},
	)

	if *only != "" {
		re, err := regexp.Compile(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: -only:", err)
			os.Exit(1)
		}
		kept := benches[:0]
		for _, bn := range benches {
			if re.MatchString(bn.name) {
				kept = append(kept, bn)
			}
		}
		benches = kept
		if len(benches) == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: -only %q matches no benchmarks\n", *only)
			os.Exit(1)
		}
	}

	base := Baseline{
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
		GoMaxProc: runtime.GOMAXPROCS(0),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	for _, bn := range benches {
		res := testing.Benchmark(bn.fn)
		e := Entry{
			Name:     bn.name,
			NsPerOp:  float64(res.T.Nanoseconds()) / float64(res.N),
			Iters:    res.N,
			AllocsOp: res.AllocsPerOp(),
			BytesOp:  res.AllocedBytesPerOp(),
		}
		fmt.Printf("%-42s %12.0f ns/op  %8d iters\n", e.Name, e.NsPerOp, e.Iters)
		base.Benches = append(base.Benches, e)
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}
