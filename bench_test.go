package repro

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/antenna"
	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/mst"
	"repro/internal/plan"
	"repro/internal/pointset"
	"repro/internal/radio"
	"repro/internal/service"
	"repro/internal/solution"
	"repro/internal/verify"
)

// benchPoints caches deterministic workloads per size.
func benchPoints(n int) []Point {
	rng := rand.New(rand.NewSource(int64(n) + 4242))
	return pointset.Uniform(rng, n, math.Sqrt(float64(n)))
}

// BenchmarkTable1 regenerates every Table-1 row (experiment E-T1): one
// sub-benchmark per row, measuring the full orientation pipeline (EMST +
// algorithm) on n=1000 sensors. Run with -bench 'BenchmarkTable1' to print
// the reproduction of the paper's headline table; the harness verifies
// strong connectivity on every iteration.
func BenchmarkTable1(b *testing.B) {
	pts := benchPoints(1000)
	for _, row := range core.Table1Rows() {
		b.Run(row.Name, func(b *testing.B) {
			var lastRatio float64
			for i := 0; i < b.N; i++ {
				asg, res, err := core.Orient(pts, row.K, row.Phi)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Violations) != 0 {
					b.Fatalf("violations: %s", res.Violations[0])
				}
				if i == 0 && !verify.CheckStrong(asg) {
					b.Fatal("not strongly connected")
				}
				lastRatio = res.RadiusRatio()
			}
			b.ReportMetric(lastRatio, "radius/lmax")
			b.ReportMetric(row.Bound, "paper-bound")
		})
	}
}

// BenchmarkOrienter measures every registered portfolio orienter at its
// representative budget — one sub-benchmark per algorithm, each verified
// once for strong connectivity so a silently broken orienter cannot post
// numbers.
func BenchmarkOrienter(b *testing.B) {
	pts := benchPoints(2000)
	for _, o := range core.Orienters() {
		info := o.Info()
		b.Run(info.Name+"/n=2000", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				asg, res, err := o.Orient(pts, info.RepK, info.RepPhi)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Violations) != 0 {
					b.Fatalf("violations: %s", res.Violations[0])
				}
				if i == 0 {
					// Untimed: the row prices the orientation alone, not
					// the connectivity audit.
					b.StopTimer()
					if !verify.CheckStrong(asg) {
						b.Fatal("not strongly connected")
					}
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkOrientScaling measures the main theorem's cost across n.
func BenchmarkOrientScaling(b *testing.B) {
	for _, n := range []int{100, 400, 1600, 6400} {
		pts := benchPoints(n)
		b.Run(fmt.Sprintf("t3p1/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, res := core.OrientTwoAntennae(mst.Euclidean(pts), math.Pi); len(res.Violations) > 0 {
					b.Fatal("violations")
				}
			}
		})
	}
}

// BenchmarkMST compares the EMST constructions (substrate ablation).
func BenchmarkMST(b *testing.B) {
	for _, n := range []int{200, 1000, 4000} {
		pts := benchPoints(n)
		b.Run(fmt.Sprintf("prim/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mst.Prim(pts)
			}
		})
		b.Run(fmt.Sprintf("delaunay/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mst.Delaunay(pts)
			}
		})
	}
}

// BenchmarkDelaunayScaling measures the incremental triangulation across
// decades of n: near-linear (sub-quadratic) growth here is the acceptance
// bar for the O(n log n) geometry substrate.
func BenchmarkDelaunayScaling(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000, 1000000} {
		pts := benchPoints(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tri, err := delaunay.Build(pts)
				if err != nil {
					b.Fatal(err)
				}
				if tri.NumEdges() == 0 {
					b.Fatal("empty triangulation")
				}
			}
		})
	}
}

// BenchmarkSolveScaling measures the full verified solve — plan-free
// engine path: one EMST build, orient on that tree at the representative
// cover budget, then the independent verifier with the tree's l_max —
// across decades up to n=10⁶. Near-linear growth per decade here is
// the acceptance bar for the single-solve path at scale (gated in CI by
// benchjson -check-scaling).
func BenchmarkSolveScaling(b *testing.B) {
	for _, n := range []int{10000, 100000, 1000000} {
		pts := benchPoints(n)
		b.Run(fmt.Sprintf("cover/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := service.NewEngine(service.Options{}) // fresh cache each round
				b.StartTimer()
				sol, src, err := eng.Solve(context.Background(),
					service.Request{Pts: pts, K: 2, Phi: core.Phi2Full, Algo: "cover"})
				if err != nil {
					b.Fatal(err)
				}
				if src.Hit() {
					b.Fatal("unexpected cache hit")
				}
				if len(sol.VerifyErrors) > 0 {
					b.Fatalf("verification failed: %v", sol.VerifyErrors)
				}
			}
		})
	}
}

// BenchmarkSCC measures strong-connectivity checking on induced digraphs.
func BenchmarkSCC(b *testing.B) {
	pts := benchPoints(2000)
	asg, _, err := core.Orient(pts, 2, math.Pi)
	if err != nil {
		b.Fatal(err)
	}
	g := asg.InducedDigraph()
	b.Run("tarjan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.TarjanSCC(g)
		}
	})
	b.Run("kosaraju", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.KosarajuSCC(g)
		}
	})
}

// BenchmarkInducedDigraph measures transmission-graph construction.
func BenchmarkInducedDigraph(b *testing.B) {
	for _, n := range []int{500, 2000} {
		pts := benchPoints(n)
		asg, _, err := core.Orient(pts, 2, math.Pi)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				asg.InducedDigraph()
			}
		})
	}
}

// BenchmarkAblationCover compares the optimal gap cover against the
// paper's literal Lemma-1 construction (experiment E-A1).
func BenchmarkAblationCover(b *testing.B) {
	pts := benchPoints(1000)
	b.Run("optimal", func(b *testing.B) {
		var spread float64
		for i := 0; i < b.N; i++ {
			_, res := core.OrientFullCover(mst.Euclidean(pts), 2, 2*math.Pi, false)
			spread = res.SpreadUsed
		}
		b.ReportMetric(spread, "max-spread")
	})
	b.Run("literal", func(b *testing.B) {
		var spread float64
		for i := 0; i < b.N; i++ {
			_, res := core.OrientFullCover(mst.Euclidean(pts), 2, 2*math.Pi, true)
			spread = res.SpreadUsed
		}
		b.ReportMetric(spread, "max-spread")
	})
}

// BenchmarkBTSPTours compares tour constructions (experiment E-A2).
func BenchmarkBTSPTours(b *testing.B) {
	pts := benchPoints(400)
	tree := mst.Euclidean(pts)
	lmax := tree.LMax()
	b.Run("shortcut2opt", func(b *testing.B) {
		var bn float64
		for i := 0; i < b.N; i++ {
			tour := core.TwoOptBottleneck(pts, core.ShortcutTour(tree), 4*len(pts))
			bn = core.TourBottleneck(pts, tour) / lmax
		}
		b.ReportMetric(bn, "bottleneck/lmax")
	})
	b.Run("cube", func(b *testing.B) {
		var bn float64
		for i := 0; i < b.N; i++ {
			bn = core.TourBottleneck(pts, core.CubeTour(tree)) / lmax
		}
		b.ReportMetric(bn, "bottleneck/lmax")
	})
}

// BenchmarkPhiSweep measures the E-S1 trade-off harness end to end at a
// small scale (the series itself is produced by cmd/sweep).
func BenchmarkPhiSweep(b *testing.B) {
	cfg := experiments.Config{Seeds: 1, Sizes: []int{150}, Workloads: []string{"uniform"}, BaseSeed: 1}
	for i := 0; i < b.N; i++ {
		experiments.PhiSweep(cfg, 6)
	}
}

// BenchmarkBroadcast measures flooding over an oriented network (E-X3).
func BenchmarkBroadcast(b *testing.B) {
	pts := benchPoints(2000)
	asg, _, err := core.Orient(pts, 3, 0)
	if err != nil {
		b.Fatal(err)
	}
	g := asg.InducedDigraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := radio.Broadcast(g, i%g.N)
		if !r.Complete {
			b.Fatal("incomplete flood")
		}
	}
}

// BenchmarkInterference measures the overhearing audit (E-X3).
func BenchmarkInterference(b *testing.B) {
	pts := benchPoints(1000)
	asg, _, err := core.Orient(pts, 1, core.Phi1Full)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radio.Interference(asg)
	}
}

// BenchmarkPlanner measures planner overhead: one a-priori selection
// across the full portfolio grid per iteration — the cost the engine
// adds on a cache miss before any orientation work.
func BenchmarkPlanner(b *testing.B) {
	b.Run("grid", func(b *testing.B) {
		var p plan.Planner
		budgets := core.PortfolioBudgets()
		objs := []plan.Objective{
			{Conn: core.ConnStrong, Minimize: plan.MinStretch},
			{Conn: core.ConnSymmetric, Minimize: plan.MinStretch},
		}
		for i := 0; i < b.N; i++ {
			for _, obj := range objs {
				for _, kp := range budgets {
					_, _ = p.Plan(obj, kp.K, kp.Phi)
				}
			}
		}
	})
}

// BenchmarkEngine measures the engine's three request paths at n=2000.
// cache-hit is the hot path: a repeated request served from the
// content-addressed cache (pointset digest + LRU lookup, no
// orientation). store-hit is the durable tier: a request missing the
// in-memory LRU but resident on disk (digest, L1 miss, sharded read,
// checksum + decode, L1 promotion) — the cost of the first repeat after
// an antennad restart. solve-miss is the full path: digest, plan,
// orient, verify, cache fill.
func BenchmarkEngine(b *testing.B) {
	pts := benchPoints(2000)
	req := service.Request{Pts: pts, K: 2, Phi: math.Pi, Algo: "table1"}
	b.Run("cache-hit/n=2000", func(b *testing.B) {
		eng := service.NewEngine(service.Options{})
		if _, _, err := eng.Solve(context.Background(), req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, src, err := eng.Solve(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if src != service.SourceMemory {
				b.Fatalf("source %v, want memory", src)
			}
		}
	})
	b.Run("store-hit/n=2000", func(b *testing.B) {
		dir := b.TempDir()
		seedStore, err := solution.OpenStore(dir, 0)
		if err != nil {
			b.Fatal(err)
		}
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
			_, src, err := eng.Solve(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if src != service.SourceDisk {
				b.Fatalf("source %v, want disk", src)
			}
		}
	})
	b.Run("solve-miss/n=2000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng := service.NewEngine(service.Options{}) // fresh cache each round
			b.StartTimer()
			_, src, err := eng.Solve(context.Background(), service.Request{Pts: pts, K: 2, Phi: 0})
			if err != nil {
				b.Fatal(err)
			}
			if src.Hit() {
				b.Fatal("unexpected cache hit")
			}
		}
	})
}

// churnBatch builds one deterministic mutation batch modeling sensor
// churn: two sensors drift locally (~the mean spacing), one joins, one
// fails — never reusing the deployment's coordinate stream.
func churnBatch(rng *rand.Rand, cur []geom.Point, side float64) []instance.Op {
	drift := func() instance.Op {
		i := rng.Intn(len(cur))
		p := cur[i]
		return instance.Op{Op: solution.OpMove, Index: i,
			X: math.Min(math.Max(p.X+rng.NormFloat64(), 0), side),
			Y: math.Min(math.Max(p.Y+rng.NormFloat64(), 0), side)}
	}
	return []instance.Op{
		drift(),
		drift(),
		{Op: solution.OpAdd, X: rng.Float64() * side, Y: rng.Float64() * side},
		{Op: solution.OpRemove, Index: rng.Intn(len(cur))},
	}
}

// churnApply times one churn revision per iteration on instance id of
// m: the batch is built and the caller's point mirror advanced outside
// the timer, so the row prices Apply alone. check audits each served
// snapshot, also untimed.
func churnApply(b *testing.B, m *instance.Manager, id string, pts []geom.Point, side float64, check func(i int, snap *instance.Snapshot)) {
	rng := rand.New(rand.NewSource(31007))
	cur := append([]geom.Point(nil), pts...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ops := churnBatch(rng, cur, side)
		b.StartTimer()
		snap, err := m.Apply(context.Background(), id, 0, ops)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if cur, err = solution.ApplyPointOps(cur, ops); err != nil {
			b.Fatal(err)
		}
		check(i, snap)
		b.StartTimer()
	}
}

// BenchmarkInstanceChurn measures the live-instance tier under sensor
// churn at n=2000: "repair" applies a small Add/Remove/Move batch through
// the incremental path (exact EMST splice + localized re-aim + full
// re-verification against the maintained bottleneck), "full-solve" is
// the same batch with repair disabled — a from-scratch engine solve per
// revision, the baseline the repair must beat by ≥ 5×. Every repair
// iteration asserts the incremental path actually served it and stayed
// verified, so the speedup cannot come from silently degraded work.
//
// The wal=* variants rerun the repair mode with crash durability on,
// pricing the write-ahead log at each fsync policy: wal=always syncs
// per acknowledgment (every revision crash-durable), wal=interval defers
// syncs to a 100ms ticker (the production default; must stay within
// 1.5× of the no-WAL repair baseline), wal=off prices just the codec +
// buffered write.
func BenchmarkInstanceChurn(b *testing.B) {
	const n = 2000
	budget := instance.Budget{K: 2, Phi: core.Phi2Full, Algo: "cover"}
	for _, mode := range []struct {
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
	} {
		b.Run(fmt.Sprintf("%s/n=%d", mode.name, n), func(b *testing.B) {
			opts := service.Options{RepairThreshold: mode.threshold}
			if mode.wal != "" {
				opts.InstanceWAL = &instance.WALConfig{Dir: b.TempDir(), Policy: mode.wal}
			}
			m := service.NewInstanceManager(service.NewEngine(opts))
			defer m.Close()
			pts := benchPoints(n)
			if _, err := m.Create(context.Background(), "churn", pts, budget); err != nil {
				b.Fatal(err)
			}
			churnApply(b, m, "churn", pts, math.Sqrt(n), func(i int, snap *instance.Snapshot) {
				if snap.Repair != mode.want {
					b.Fatalf("iteration %d served %q, want %q", i, snap.Repair, mode.want)
				}
				if !snap.Sol.Verified {
					b.Fatal("revision not verified")
				}
			})
		})
	}
}

// BenchmarkRepairScaling pairs each repair class (emst = the cover rule,
// tour = the bottleneck cycle, bats = the one-wedge regime) at a small
// and a beyond-threshold size: the same churn batch served by the
// class's incremental repair and, with repair disabled, by a full engine
// solve. benchjson -check-repair requires the repair side to win above
// n=10000. The repair rows tolerate an occasional dirty-threshold or
// 2-opt fallback (cheap full solves only *raise* the measured ns/op, so
// the gate stays honest) but fail if repairs stop being the norm.
func BenchmarkRepairScaling(b *testing.B) {
	for _, row := range []struct {
		class  string
		budget instance.Budget
	}{
		{"emst", instance.Budget{K: 2, Phi: core.Phi2Full, Algo: "cover"}},
		{"tour", instance.Budget{K: 1, Phi: 0, Algo: "tour"}},
		{"bats", instance.Budget{K: 1, Phi: core.Phi1Full, Algo: "bats"}},
	} {
		for _, n := range []int{2000, 20000} {
			for _, mode := range []struct {
				name      string
				threshold float64
			}{{"repair", 0}, {"full", -1}} {
				b.Run(fmt.Sprintf("%s/%s/n=%d", row.class, mode.name, n), func(b *testing.B) {
					m := service.NewInstanceManager(service.NewEngine(service.Options{RepairThreshold: mode.threshold}))
					defer m.Close()
					pts := benchPoints(n)
					if _, err := m.Create(context.Background(), "rs", pts, row.budget); err != nil {
						b.Fatal(err)
					}
					repaired := 0
					churnApply(b, m, "rs", pts, math.Sqrt(float64(n)), func(i int, snap *instance.Snapshot) {
						if snap.Repair == instance.RepairIncremental {
							repaired++
						}
						if mode.threshold < 0 && snap.Repair != instance.RepairFull {
							b.Fatalf("iteration %d served %q with repair disabled", i, snap.Repair)
						}
					})
					if mode.threshold == 0 && repaired*5 < b.N*4 {
						b.Fatalf("only %d of %d batches repaired incrementally", repaired, b.N)
					}
				})
			}
		}
	}
}

// BenchmarkInstanceRecovery measures crash-recovery replay: one
// instance at n=2000 with 64 churn revisions in its write-ahead log is
// recovered from disk — snapshot decode, per-record checksum + replay,
// one re-solve, re-verification — per iteration. This is the startup
// cost a crashed antennad pays per surviving instance.
func BenchmarkInstanceRecovery(b *testing.B) {
	const n, revs = 2000, 64
	b.Run(fmt.Sprintf("n=%d/revs=%d", n, revs), func(b *testing.B) {
		dir := b.TempDir()
		eng := service.NewEngine(service.Options{})
		cfg := func() instance.Config {
			return instance.Config{
				Solve: eng.InstanceSolver(),
				// A log cap far above 64 records keeps compaction out of
				// the measurement: recovery replays every revision.
				WAL: &instance.WALConfig{Dir: dir, Policy: instance.SyncOff, MaxLogBytes: 64 << 20},
			}
		}
		m := instance.NewManager(cfg())
		pts := benchPoints(n)
		side := math.Sqrt(float64(n))
		if _, err := m.Create(context.Background(), "churn", pts, instance.Budget{K: 2, Phi: core.Phi2Full, Algo: "cover"}); err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31007))
		cur := append([]geom.Point(nil), pts...)
		for r := 0; r < revs; r++ {
			ops := churnBatch(rng, cur, side)
			if _, err := m.Apply(context.Background(), "churn", 0, ops); err != nil {
				b.Fatal(err)
			}
			var err error
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
			snap, err := m2.Get("churn", 0)
			if err != nil || snap.Rev != revs+1 || !snap.Sol.Verified {
				b.Fatalf("recovered state: snap=%+v err=%v", snap, err)
			}
			m2.Close()
			b.StartTimer()
		}
	})
}

// BenchmarkVerify measures the full verification battery.
func BenchmarkVerify(b *testing.B) {
	pts := benchPoints(1000)
	asg, res, err := core.Orient(pts, 2, math.Pi)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := verify.Check(asg, verify.Budgets{K: 2, Phi: math.Pi, RadiusBound: res.Guarantee})
		if !rep.OK() {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkShrinkRadii measures the energy post-pass.
func BenchmarkShrinkRadii(b *testing.B) {
	pts := benchPoints(1000)
	base, _, err := core.Orient(pts, 2, math.Pi)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cp := antenna.New(pts)
		for u := range base.Sectors {
			cp.Sectors[u] = append([]geom.Sector(nil), base.Sectors[u]...)
		}
		b.StartTimer()
		cp.ShrinkRadii()
	}
}
